import json
import re
import time

import pytest

from foldef.cli import (
    EXIT_INPUT_ERROR,
    EXIT_OK,
    EXIT_VERDICT_FAILED,
    main,
    render_report,
    run,
)

LOG_ARGS = ["--vars", "x,y,z", "--logarithmic", "x", "y", "z", "--eigenvalues", "1", "2", "5"]
RAT_ARGS = ["--vars", "x,y,z", "--rational", "x", "y", "--eigenvalues", "1", "2"]


def _strip_timing(text: str) -> str:
    return re.sub(r'\s*"timing_ms": [0-9.]+,?', "", text)


def test_verify_logarithmic():
    report, status = run(["verify", "logarithmic", *LOG_ARGS])
    assert status == EXIT_OK
    assert report["verdict"] == "direct_sum_equal"
    assert report["dim_kernel"] == 8
    assert report["dim_param"] == 6 and report["dim_eigen"] == 2


def test_verify_rational():
    report, status = run(["verify", "rational", *RAT_ARGS])
    assert status == EXIT_OK
    assert report["dim_kernel"] == 5
    assert report["verdict"] == "direct_sum_equal"


def test_verify_exact():
    report, status = run(["verify", "exact", "--vars", "x,y,z", "--exact", "x^3 + y^3 + z^3"])
    assert status == EXIT_OK
    assert report["dim_kernel"] == 9


def test_verify_coro1():
    report, status = run(["verify", "coro1", *RAT_ARGS])
    assert status == EXIT_OK
    assert report["kernels_equal"] is True


def test_verify_affine_def():
    report, status = run(["verify", "affine-def", *RAT_ARGS, "--eta", "x*dx"])
    assert status == EXIT_OK
    assert report["holds"] is True


def test_verify_dicritical_with_chain():
    report, status = run(
        [
            "verify",
            "dicritical",
            "--vars",
            "x,y,z",
            "--form",
            "x*dy - y*dx",
            "--eta",
            "y*dx + x*dy",
            "--factors",
            "x",
            "y",
            "--mults",
            "1",
            "1",
        ]
    )
    assert status == EXIT_OK
    assert report["kind"] == "integrating_factor"
    assert report["integrating_factor"] == "2*x*y"
    assert report["omega_decomposition"]["eigenvalues"] == ["-1/2", "1/2"]
    assert report["eta_decomposition"]["eigenvalues"] == ["1/2", "1/2"]
    assert report["omega_decomposition"]["g"] == "0"


def test_check_generic():
    report, status = run(["check", *LOG_ARGS, "--seed", "11", "--trials", "8"])
    assert status == EXIT_OK
    assert report["verdict"] == "generic"
    assert report["seed"] == 11


def test_check_failure_exit_code():
    report, status = run(
        ["check", "--vars", "x,y,z", "--logarithmic", "x", "y", "z",
         "--eigenvalues", "1", "1", "5", "--seed", "3"]
    )
    assert status == EXIT_VERDICT_FAILED
    assert report["eigenvalues_ok"] is False


def test_deform_exact_quotient():
    report, status = run(
        ["deform", "--vars", "x,y,z", "--exact", "x^3 + y^3 + z^3", "--degree", "3", "--quotient"]
    )
    assert status == EXIT_OK
    assert report["dimension"] == 9
    assert len(report["basis"]) == 9


def test_deform_defaults_to_omega_degree():
    report, status = run(["deform", *RAT_ARGS])
    assert status == EXIT_OK
    assert report["degree"] == 2 and report["quotient_by_omega"] is True
    assert report["dimension"] == 5


def test_deform_form_input():
    report, status = run(["deform", "--vars", "x,y,z", "--form", "x*dy - 2*y*dx"])
    assert status == EXIT_OK
    assert report["dimension"] == 5


def test_relcohom_matches_deform_at_same_degree():
    deform_report, _ = run(["deform", *LOG_ARGS, "--no-quotient"])
    rel_report, status = run(["relcohom", *LOG_ARGS, "--no-quotient"])
    assert status == EXIT_OK
    assert rel_report["pole_divisor"] == "x*y*z"
    assert rel_report["basis"] == deform_report["basis"]


def test_deform_projective_flag():
    form = "(3*x^2*w)*dx + (3*y^2*w)*dy + (3*z^2*w)*dz + (-3*x^3 - 3*y^3 - 3*z^3)*dw"
    report, status = run(
        ["deform", "--vars", "x,y,z,w", "--form", form, "--degree", "4", "--projective"]
    )
    assert status == EXIT_OK
    assert report["dimension"] == 21
    report, status = run(
        ["deform", "--vars", "x,y,z,w", "--form", form, "--degree", "4",
         "--projective", "--no-quotient"]
    )
    assert status == EXIT_INPUT_ERROR


def test_relcohom_rejects_exact_spec():
    report, status = run(["relcohom", "--vars", "x,y,z", "--exact", "x^3"])
    assert status == EXIT_INPUT_ERROR
    assert "error" in report


def test_projectivize_rational():
    report, status = run(["projectivize", *RAT_ARGS])
    assert status == EXIT_OK
    assert report["result"] == "(-2*y*w)*dx + (x*w)*dy + (x*y)*dw"
    assert report["descends"] is True
    assert report["logarithmic_parameters"]["eigenvalues"] == ["-2", "1", "1"]


def test_decompose():
    report, status = run(
        ["decompose", "--vars", "x,y,z", "--form", "x*dy - y*dx", "--factors", "x", "y"]
    )
    assert status == EXIT_OK
    assert report["eigenvalues"] == ["-1", "1"]
    assert report["g"] == "0"


def test_decompose_inconsistent_exit_code():
    report, status = run(
        ["decompose", "--vars", "x,y,z", "--form", "(2*y*z)*dx + (3*x*z)*dy + (5*x*y)*dz",
         "--factors", "x*y", "z"]
    )
    assert status == EXIT_VERDICT_FAILED
    assert report["residual_ok"] is False


def test_parse_error_exit_code():
    report, status = run(["deform", "--vars", "x,y,z", "--form", "x*dy + q*dx"])
    assert status == EXIT_INPUT_ERROR
    assert "undeclared variable" in report["error"]


def test_spec_selection_validated():
    report, status = run(["deform", "--vars", "x,y,z"])
    assert status == EXIT_INPUT_ERROR
    report, status = run(
        ["deform", "--vars", "x,y,z", "--exact", "x^2", "--form", "x*dy"]
    )
    assert status == EXIT_INPUT_ERROR


def test_empty_variable_list_rejected():
    report, status = run(["deform", "--vars", ",", "--exact", "x^2"])
    assert status == EXIT_INPUT_ERROR


def test_check_requires_structured_spec():
    report, status = run(["check", "--vars", "x,y,z", "--exact", "x^3", "--seed", "1"])
    assert status == EXIT_INPUT_ERROR


def test_module_entry_point():
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "foldef", "verify", "coro1", *RAT_ARGS],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == EXIT_OK
    assert json.loads(proc.stdout)["kernels_equal"] is True


def test_eigenvalue_count_validated():
    report, status = run(
        ["verify", "logarithmic", "--vars", "x,y,z", "--logarithmic", "x", "y", "z",
         "--eigenvalues", "1", "2"]
    )
    assert status == EXIT_INPUT_ERROR


def test_gaussian_eigenvalues_accepted():
    report, status = run(
        ["verify", "rational", "--vars", "x,y,z", "--rational", "x", "y",
         "--eigenvalues", "1+i", "2"]
    )
    assert status == EXIT_OK
    assert report["verdict"] == "direct_sum_equal"


def test_reports_deterministic():
    commands = [
        ["verify", "logarithmic", *LOG_ARGS],
        ["verify", "rational", *RAT_ARGS],
        ["check", *LOG_ARGS, "--seed", "5", "--trials", "6"],
        ["deform", *RAT_ARGS],
        ["decompose", "--vars", "x,y,z", "--form", "x*dy - y*dx", "--factors", "x", "y"],
    ]
    for argv in commands:
        first, _ = run(argv)
        second, _ = run(argv)
        assert _strip_timing(render_report(first)) == _strip_timing(render_report(second))


def test_main_prints_and_writes(tmp_path, capsys):
    status = main(["verify", "coro1", *RAT_ARGS])
    assert status == EXIT_OK
    printed = capsys.readouterr().out
    assert json.loads(printed)["kernels_equal"] is True
    out_file = tmp_path / "report.json"
    status = main(["verify", "coro1", *RAT_ARGS, "--output", str(out_file)])
    assert status == EXIT_OK
    assert capsys.readouterr().out == ""
    saved = json.loads(out_file.read_text())
    assert saved["kernels_equal"] is True


# (F1, F2, R, S, -S): --rational F1 F2 --eigenvalues R S is the logarithmic
# spec with parameters (F1, F2) and eigenvalues (-S, R)
RATIONAL_AS_LOG = [
    ("x", "y", "1", "2", "-2"),
    ("x", "y^2 + x*z", "2", "1", "-1"),
    ("x", "x*y", "1", "1", "-1"),
    ("x*y", "z^2", "1+i", "3", "-3"),
    ("x", "y", "3", "2-i", "(-2+i)"),
]
EQUIVALENT_COMMANDS = [["deform"], ["relcohom"], ["check", "--seed", "7"], ["projectivize"]]


@pytest.mark.parametrize("command", EQUIVALENT_COMMANDS, ids=lambda c: c[0])
@pytest.mark.parametrize("f1,f2,r,s,neg_s", RATIONAL_AS_LOG)
def test_rational_report_equals_logarithmic_report(command, f1, f2, r, s, neg_s):
    rational, rat_status = run(
        [*command, "--vars", "x,y,z", "--rational", f1, f2, "--eigenvalues", r, s]
    )
    logarithmic, log_status = run(
        [*command, "--vars", "x,y,z", "--logarithmic", f1, f2, "--eigenvalues", neg_s, r]
    )
    assert "error" not in rational
    assert rat_status == log_status
    assert _strip_timing(render_report(rational)) == _strip_timing(render_report(logarithmic))


def test_verify_kind_must_match_exactly():
    report, status = run(["verify", "logarithmic", *RAT_ARGS])
    assert status == EXIT_INPUT_ERROR
    assert report["error"] == "verify logarithmic needs a matching --logarithmic spec"
    report, status = run(
        ["verify", "rational", "--vars", "x,y,z", "--logarithmic", "x", "y", "--eigenvalues", "1", "2"]
    )
    assert status == EXIT_INPUT_ERROR
    assert report["error"] == "verify rational needs a matching --rational spec"


def test_check_large_cleared_coefficients_bounded():
    # the rational-root search on random sections meets integer coefficients
    # with many digits; a linear divisor scan over them did not finish in 20 s
    budget_seconds = 5.0
    start = time.perf_counter()
    report, status = run(
        ["check", "--vars", "x,y,z", "--logarithmic", "x^3 + 1003*y^3 - z^3", "y", "z",
         "--eigenvalues", "1", "2", "5", "--seed", "7"]
    )
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, f"check exceeded {budget_seconds}s: {elapsed:.2f}s"
    assert status == EXIT_VERDICT_FAILED
    assert report["verdict"] == "inconclusive"
    assert report["trials_used"] == 19


def test_check_million_coefficient_bounded():
    # the divisor list of the leading coefficient is built once; rebuilding
    # it for every numerator candidate made this check take about 9 s
    budget_seconds = 5.0
    start = time.perf_counter()
    report, status = run(
        ["check", "--vars", "x,y,z", "--logarithmic", "x^3 + 1000003*y^3 - z^3", "y", "z",
         "--eigenvalues", "1", "2", "5", "--seed", "7"]
    )
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, f"check exceeded {budget_seconds}s: {elapsed:.2f}s"
    assert status == EXIT_VERDICT_FAILED
    assert report["verdict"] == "inconclusive"
    assert report["trials_used"] == 19


@pytest.mark.parametrize("value", ["-2+i", "-1/2", "-i"])
def test_negative_eigenvalue_without_parentheses(value, capsys):
    command = ["check", "--vars", "x,y,z", "--logarithmic", "x", "y", "z", "--eigenvalues"]
    bare, bare_status = run([*command, value, "3", "1", "--seed", "3"])
    wrapped, wrapped_status = run([*command, f"({value})", "3", "1", "--seed", "3"])
    assert "error" not in bare
    assert bare_status == wrapped_status
    assert _strip_timing(render_report(bare)) == _strip_timing(render_report(wrapped))
    assert main([*command, value, "3", "1", "--seed", "3"]) == wrapped_status
    assert _strip_timing(capsys.readouterr().out) == _strip_timing(render_report(wrapped)) + "\n"
