"""foldef benchmark.

    python3 bench/run.py --workload structured|dense|small --seed N --seconds S --trace 0|1

One process, one thread, one client in a closed loop: each job is a command
line passed to ``foldef.cli.run`` and ``render_report``, and the next job
starts when the previous one has returned and been checked.  Jobs come in
rounds of fixed shapes (``jobs.py``); a run holds the whole number of rounds
whose job time, at the mean round time, is nearest ``--seconds`` (at least
one).

The machine this benchmark was built on is shared, and its speed drifts by
up to 1.8x over minutes.  So a fixed calibration loop (``calibration``) runs
between jobs, taking about ``CAL_SHARE`` of the job time, and every reported
time is scaled to the reference speed at which one calibration call takes
``CAL_REF_S``: reported = measured * CAL_REF_S / (mean calibration call of
the run).  On the baseline machine the scaled rate of a fixed job mix varied
by 1-2% between 30-s windows where the measured rate varied by 16%.  The
human-readable lines print the measured values and the scale too.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` first runs
rounds untraced for half of ``--seconds``, then replays the same rounds with
the timing wrappers of ``spans.py`` installed, checks that both passes give
identical reports, writes the spans to ``.bench_out/`` and prints the
per-layer metrics.  The last line of standard output is one JSON object.
Exit status: 0 when the run completed (``correct`` tells whether every
output was right), 2 when the program is missing or the arguments are bad.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

import jobs  # noqa: E402  (stdlib only; bench/ is on sys.path as the script's directory)

DEFAULT_SEED = 0
SETUP_REPS = 9
# Per-job time cap, about 10x the slowest job shape of each workload on the
# baseline machine (see WORKLOADS.md).
CAP_S = {"structured": 20.0, "dense": 40.0, "small": 5.0}
# Tail percentile: the highest one with at least ten samples beyond it in
# the shortest --seconds 35 run seen at the seed commit (24 jobs for
# structured, 48 for dense, about 1500 for small).  It is fixed so that runs
# of faster or slower code report the same percentile.
TAIL = {"structured": 58, "dense": 79, "small": 99}
# A run stops early, between jobs, once this much wall time has passed since
# it started; with the caps above it always exits within 180 s.
DEADLINE_S = 120.0
# Calibration: share of job time spent in the loop, and the mean time of one
# call at the reference speed (about its time on the baseline machine).
CAL_SHARE = 0.03
CAL_REF_S = 0.001
CAL_FACTOR = {(1, 0, 0): 3, (0, 1, 0): -2, (0, 0, 1): 5, (1, 1, 0): 7}


def calibration() -> None:
    """Fixed stdlib work of foldef's kind: an exact rational sum and dict polynomial products."""
    total = Fraction(0)
    for k in range(1, 200):
        total += Fraction(1, k)
    poly = {(0, 0, 0): 1}
    for _ in range(5):
        product = {}
        for e, c in poly.items():
            for d, g in CAL_FACTOR.items():
                key = (e[0] + d[0], e[1] + d[1], e[2] + d[2])
                product[key] = product.get(key, 0) + c * g
        poly = product


class Speed:
    """Machine speed over a pass, from calibration calls spread between its jobs."""

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.debt = 0.0

    def after_job(self, job_seconds: float) -> None:
        """Run calibration calls until they have taken CAL_SHARE of the job time so far."""
        self.debt += CAL_SHARE * job_seconds
        while self.debt > 0:
            start = time.perf_counter()
            calibration()
            elapsed = time.perf_counter() - start
            self.calls += 1
            self.seconds += elapsed
            self.debt -= elapsed

    @property
    def scale(self) -> float:
        """Reference seconds per measured second."""
        return CAL_REF_S * self.calls / self.seconds


class JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobTimeout


@dataclass
class Result:
    job: jobs.Job
    seconds: float  # job time on the clock the run uses
    digest: str | None  # status and report digest, None when the job failed
    problem: str | None  # why the job failed, None when it passed
    wall: float = 0.0  # real time, traced replay only


def set_up(workload: str, seed: int):
    """Import foldef afresh, make the first round and warm up; time it."""
    times = []
    for _ in range(SETUP_REPS):
        for name in [n for n in sys.modules if n == "foldef" or n.startswith("foldef.")]:
            del sys.modules[name]
        start = time.perf_counter()
        cli = importlib.import_module("foldef.cli")
        jobs.round_jobs(workload, seed, 0)
        for argv in jobs.WARMUP:
            report, status = cli.run(list(argv))
            cli.render_report(report)
            if status != 0:
                raise RuntimeError(f"warm-up job failed: {' '.join(argv)}")
        times.append(time.perf_counter() - start)
    return cli, times


def load_reference(workload: str, seed: int):
    if seed != DEFAULT_SEED:
        return None
    with open(BENCH / "reference" / f"{workload}.json", encoding="utf-8") as handle:
        data = json.load(handle)
    return [line.split() for line in data["rounds"]]


def run_job(cli, job, clock, tracer=None):
    """Run one job under the per-job cap; (seconds, report, status, text, error)."""
    if tracer is not None:
        tracer.start_job(f"{job.round}.{job.index}")
    start = clock()
    signal.setitimer(signal.ITIMER_REAL, CAP_S[job.workload])
    try:
        report, status = cli.run(list(job.argv))
        text = cli.render_report(report)
    except JobTimeout:
        return clock() - start, None, None, None, f"over the {CAP_S[job.workload]} s cap"
    except (Exception, SystemExit) as exc:  # the loop must go on; the job counts as failed
        return clock() - start, None, None, None, f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return clock() - start, report, status, text, None


def run_rounds(cli, checks, workload, seed, seconds=None, rounds=None, reference=None, deadline=float("inf"),
               speed=None):
    """Untraced closed loop over whole rounds; checks every output."""
    results, k, busy = [], 0, 0.0
    while True:
        for job in jobs.round_jobs(workload, seed, k):
            elapsed, report, status, text, error = run_job(cli, job, time.perf_counter)
            busy += elapsed
            if speed is not None:
                speed.after_job(elapsed)
            digest = None
            if error is None:
                digest = checks.digest(report, status)
                found = checks.problems(job, report, status, text)
                error = found[0] if found else None
                if error is None and reference is not None and k < len(reference):
                    if reference[k][job.index] != digest:
                        error = "report differs from the recorded reference"
            results.append(Result(job, elapsed, digest, error))
            if time.perf_counter() > deadline:
                return results
        k += 1
        if rounds is not None:
            if k >= rounds:
                return results
        elif busy + busy / k / 2 > seconds:
            # another round of mean length would end further past the target
            # than the run now falls short of it
            return results


def quantile(values, level: float) -> float:
    """Linear-interpolation quantile, level in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * level / 100
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def end_to_end(workload, results, setup_times, scale):
    """(name, value, unit, note) rows; failed_ratio is printed but not in BENCHMARK.json.

    Times are measured times times ``scale`` (see the module docstring); the
    notes give the measured values.
    """
    n = len(results)
    failed = sum(1 for r in results if r.problem)
    busy = sum(r.seconds for r in results)
    # a failed job misses any latency limit: it counts as taking the full cap
    latencies = [max(r.seconds, CAP_S[workload]) if r.problem else r.seconds for r in results]
    level = TAIL[workload]
    tail = quantile(latencies, level)
    p50 = statistics.median(latencies)
    setup = statistics.median(setup_times)
    return [
        ("jobs_per_s", (n - failed) / (busy * scale), "1/s",
         f"{n - failed} verified jobs in {busy:.3f} s of job time (measured {(n - failed) / busy:.4g}/s)"),
        ("job_s.p50", p50 * scale, "s", f"n={n} (measured {p50:.4g} s)"),
        ("job_s.tail", tail * scale, "s",
         f"p{level}, n={n}, {sum(1 for t in latencies if t > tail)} beyond (measured {tail:.4g} s)"),
        ("setup_s", setup * scale, "s", f"median of {len(setup_times)} set-ups (measured {setup:.4g} s)"),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", "ru_maxrss of this process"),
        ("failed_ratio", failed / n, "1", f"{failed} of {n} jobs"),
    ]


def per_layer(tracer, traced, untraced, scale, untraced_scale):
    """(name, value, unit, note) rows from the traced replay of the untraced jobs.

    Times are scaled by the traced pass's ``scale``; the overhead ratio
    scales each pass by its own.
    """
    n = len(traced)
    job_s = sum(r.seconds for r in traced)
    times = tracer.self_times()
    c = tracer.counts
    matrices = c["assemble_calls"]
    rows = [(f"{layer}_s", t * scale / n, "s/job", "self time") for layer, t in times.items()]
    rows += [
        ("linalg.rref_calls", c["rref_calls"] / n, "count/job", ""),
        ("linalg.rref_cells", c["rref_cells"] / n, "count/job", "rows x cols fed to rref"),
        ("linalg.max_entry_bits", c["max_entry_bits"], "bits", "largest in any rref output"),
        ("linalg.repeat_ratio", c["rref_repeats"] / c["rref_calls"] if c["rref_calls"] else 0.0, "1",
         "rref calls on a matrix eliminated before"),
        ("deformation.assemble_calls", matrices / n, "count/job", ""),
        ("deformation.matrix_cells", c["matrix_cells"] / n, "count/job", ""),
        ("deformation.matrix_nnz", c["matrix_nnz"] / n, "count/job", ""),
        ("deformation.matrix_blocks", c["matrix_blocks"] / matrices if matrices else 0.0, "count/matrix", ""),
        ("foliations.genericity_trials", c["genericity_trials"] / n, "count/job", ""),
        ("linalg.eliminate_share", times["linalg.eliminate"] / job_s, "1", "of traced job time"),
        ("trace.job_s", job_s * scale / n, "s/job",
         f"n={n}; layer self times sum to {sum(times.values()) / job_s:.4f} of it"),
        ("trace.overhead_ratio",
         sum(r.seconds for r in untraced[:n]) * untraced_scale / (sum(r.wall for r in traced) * scale), "1",
         "untraced / traced time of the same jobs"),
    ]
    return rows


def traced_replay(cli, checks, tracer, untraced, deadline=float("inf"), speed=None):
    """Replay the untraced rounds with the wrappers installed."""
    results = []
    tracer.install()
    try:
        for before in untraced:
            job = before.job
            wall_start = time.perf_counter()
            elapsed, report, status, text, error = run_job(cli, job, tracer.clock, tracer)
            wall = time.perf_counter() - wall_start
            if speed is not None:
                speed.after_job(wall)
            if error is None and checks.digest(report, status) != before.digest:
                error = "traced report differs from the untraced report"
            results.append(Result(job, elapsed, None, error, wall))
            if time.perf_counter() > deadline:
                break
    finally:
        tracer.uninstall()
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="foldef benchmark")
    parser.add_argument("--workload", choices=jobs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    deadline = started + DEADLINE_S
    if not (SRC / "foldef" / "__init__.py").is_file():
        print(f"foldef sources not found under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _on_alarm)

    cli, setup_times = set_up(args.workload, args.seed)
    # imported after set-up, which re-imports foldef
    import checks
    from spans import Tracer

    reference = load_reference(args.workload, args.seed)
    seconds = args.seconds / 2 if args.trace else args.seconds
    speed = Speed()
    results = run_rounds(cli, checks, args.workload, args.seed, seconds=seconds, reference=reference,
                         deadline=deadline, speed=speed)
    print(f"workload {args.workload}  seed {args.seed}  rounds {results[-1].job.round + 1}  jobs {len(results)}")
    by_kind = {}
    for r in results:
        by_kind.setdefault(r.job.kind, []).append(r.seconds)
    for kind, times in by_kind.items():
        print(f"  {kind:20s} n={len(times):<5d} median {statistics.median(times):.4f} s  max {max(times):.4f} s")
    if args.trace:
        tracer = Tracer()
        traced_speed = Speed()
        traced = traced_replay(cli, checks, tracer, results, deadline, traced_speed)
        out = ROOT / ".bench_out" / f"spans-{args.workload}-{args.seed}.json"
        tracer.write(out)
        print(f"traced {len(traced)} jobs; spans written to {out.relative_to(ROOT)}")
        rows = per_layer(tracer, traced, results, traced_speed.scale, speed.scale)
        results = results + traced
    else:
        rows = end_to_end(args.workload, results, setup_times, speed.scale)
    failed = [r for r in results if r.problem]
    for r in failed:
        print(f"FAILED {r.job.round}.{r.job.index} {r.job.kind}: {r.problem}")
    metrics = {}
    for name, value, unit, note in rows:
        print(f"{name:32s} {value:14.6g} {unit:12s} {note}")
        if name != "failed_ratio":
            metrics[name] = {"value": value, "unit": unit}
    print(f"scale {speed.scale:.4f} (reference / measured seconds; {speed.calls} calibration calls "
          f"of mean {speed.seconds / speed.calls * 1000:.3f} ms)")
    print(f"wall {time.perf_counter() - started:.1f} s")
    print(json.dumps({"correct": not failed, "attempted": len(results), "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
