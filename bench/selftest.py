"""Self-tests of the benchmark itself.

    python3 bench/selftest.py

They live beside the benchmark, not in the repository's test suite, and take
a few seconds.
"""

from __future__ import annotations

import signal
import sys
import time
import unittest

import run

sys.path.insert(0, str(run.SRC))

import checks  # noqa: E402
import jobs  # noqa: E402
import spans  # noqa: E402
from foldef import cli  # noqa: E402
from foldef.spaces import SubspaceBasis  # noqa: E402


def _bindings() -> dict:
    """Every attribute of every foldef module, and of SubspaceBasis."""
    out = {}
    for name, module in sys.modules.items():
        if name == "foldef" or name.startswith("foldef."):
            out.update({(name, attr): value for attr, value in vars(module).items()})
    out.update({("SubspaceBasis", attr): value for attr, value in vars(SubspaceBasis).items()})
    return out


class JobGeneration(unittest.TestCase):
    def test_same_seed_gives_same_jobs(self):
        for workload in jobs.WORKLOADS:
            for k in (0, 5):
                self.assertEqual(jobs.round_jobs(workload, 7, k), jobs.round_jobs(workload, 7, k))
            self.assertNotEqual(jobs.round_jobs(workload, 7, 0), jobs.round_jobs(workload, 8, 0))

    def test_every_round_has_the_same_shapes(self):
        for workload in jobs.WORKLOADS:
            shapes = [(j.kind, j.argv[:2]) for j in jobs.round_jobs(workload, 0, 0)]
            self.assertEqual(shapes, [(j.kind, j.argv[:2]) for j in jobs.round_jobs(workload, 3, 9)])

    def test_zero_projectivize_specs_are_redrawn(self):
        # -3*z and 2*z^2 with eigenvalues -1, -2 realize the zero form
        f1, f2 = [(-3, (0, 0, 1))], [(2, (0, 0, 2))]
        self.assertTrue(jobs._log_form_vanishes([f1, f2], [2, -1], 3))
        self.assertFalse(jobs._log_form_vanishes([f1, f2], [1, -1], 3))
        job = jobs.round_jobs("small", 1439771584, 70)[2]  # drew that spec first
        report, status = cli.run(list(job.argv))
        self.assertEqual(status, 0, report.get("error"))


class Tracing(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        signal.signal(signal.SIGALRM, run._on_alarm)
        cls.untraced = run.run_rounds(cli, checks, "small", 1, rounds=2)

    def replay(self):
        tracer = spans.Tracer()
        return tracer, run.traced_replay(cli, checks, tracer, self.untraced)

    def test_traced_and_untraced_reports_are_identical(self):
        self.assertEqual([r.problem for r in self.untraced], [None] * len(self.untraced))
        _, traced = self.replay()
        self.assertEqual([r.problem for r in traced], [None] * len(traced))

    def test_module_attributes_are_restored(self):
        before = _bindings()
        tracer = spans.Tracer()
        tracer.install()
        try:
            patched = _bindings()
            for module, name in [
                ("deformation", "operator_matrix"), ("projective", "operator_matrix"),
                ("cli", "realize"), ("deformation", "realize"), ("projective", "realize"),
                ("spaces", "span_of_forms"), ("deformation", "span_of_forms"),
                ("spaces", "vectors_to_subspace"), ("deformation", "vectors_to_subspace"),
                ("projective", "vectors_to_subspace"),
            ]:
                key = (f"foldef.{module}", name)
                self.assertIsNot(patched[key], before[key], key)
            self.assertIsNot(patched[("SubspaceBasis", "__eq__")], before[("SubspaceBasis", "__eq__")])
        finally:
            tracer.uninstall()
        after = _bindings()
        self.assertEqual(before.keys(), after.keys())
        for key, value in before.items():
            self.assertIs(after[key], value, key)

    def test_per_layer_counts_repeat_exactly(self):
        first, _ = self.replay()
        second, _ = self.replay()
        for name in ("rref_calls", "rref_cells", "max_entry_bits", "assemble_calls", "matrix_nnz",
                     "matrix_blocks", "genericity_trials"):
            self.assertGreater(first.counts[name], 0, name)
        self.assertEqual(first.counts, second.counts)

    def test_self_times_account_for_job_time(self):
        tracer, traced = self.replay()
        job_s = sum(r.seconds for r in traced)
        self.assertAlmostEqual(sum(tracer.self_times().values()) / job_s, 1.0, delta=0.02)


class Checks(unittest.TestCase):
    def setUp(self):
        signal.signal(signal.SIGALRM, run._on_alarm)

    def test_job_over_the_cap_fails_and_returns(self):
        job = jobs.round_jobs("structured", 1, 0)[1]  # verify coro1, about a second
        saved = run.CAP_S["structured"]
        run.CAP_S["structured"] = 0.05
        try:
            elapsed, report, _, _, error = run.run_job(cli, job, time.perf_counter)
        finally:
            run.CAP_S["structured"] = saved
        self.assertIsNone(report)
        self.assertIn("cap", error)
        self.assertLess(elapsed, 0.5)

    def test_wrong_kernels_are_caught(self):
        job = next(j for j in jobs.round_jobs("small", 1, 0) if j.kind == "deform")
        report, status = cli.run(list(job.argv))
        self.assertEqual(checks.problems(job, report, status, cli.render_report(report)), [])
        self.assertGreater(report["dimension"], 0)
        short = dict(report, basis=report["basis"][:-1], dimension=report["dimension"] - 1)
        self.assertTrue(checks.problems(job, short, status, cli.render_report(short)))
        wrong = dict(report, basis=["x*dy"] + report["basis"][1:])
        self.assertTrue(checks.problems(job, wrong, status, cli.render_report(wrong)))

    def test_reference_digests_are_compared(self):
        reference = run.load_reference("small", run.DEFAULT_SEED)
        results = run.run_rounds(cli, checks, "small", run.DEFAULT_SEED, rounds=2, reference=reference)
        self.assertEqual([r.problem for r in results], [None] * len(results))
        wrong = [["0" * 12] * len(line) for line in reference[:2]]
        results = run.run_rounds(cli, checks, "small", run.DEFAULT_SEED, rounds=1, reference=wrong)
        self.assertTrue(all(r.problem == "report differs from the recorded reference" for r in results))

    def test_calibration_takes_its_share_of_job_time(self):
        speed = run.Speed()
        for _ in range(20):
            speed.after_job(0.025)
        self.assertGreaterEqual(speed.seconds, run.CAL_SHARE * 0.5)
        self.assertLess(speed.seconds, run.CAL_SHARE * 0.5 + 0.05)
        self.assertGreater(speed.scale, 0)

    def test_rank_mod_p(self):
        self.assertEqual(checks.rank_mod_p([[1, 2], [2, 4], [0, 0]]), 1)
        self.assertEqual(checks.rank_mod_p([[1, 0, 1], [0, 1, 1], [1, 1, 2], [1, -1, 0]]), 2)


if __name__ == "__main__":
    unittest.main()
