"""Command line front end.

Subcommands (one per verification workflow):

    check         genericity report for a rational/logarithmic spec
    deform        kernel of the deformation operator at a chosen degree
    relcohom      kernel of the relative-cohomology operator at a chosen degree
    projectivize  lift a form / spec to n+1 variables and report descent data
    verify        theorem checks: rational | logarithmic | exact | coro1 |
                  affine-def | dicritical
    decompose     integration-lemma decomposition of omega / prod(f_i^n_i)

Reports are deterministic JSON documents (insertion-ordered keys; the only
run-dependent field is timing_ms).  Exit status: 0 = verdict holds, 1 =
mathematical verdict failure, 2 = input error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .deformation import (
    DeformOperator,
    RelCohomOperator,
    dicritical_classify,
    kernel_space,
    verify_coro1,
    verify_decomposition,
)
from .expressions import (
    ExpressionError,
    parse_form,
    parse_poly,
    parse_scalar,
    render_form,
    render_poly,
    render_scalar,
)
from .foliations import (
    AffineLogarithmic,
    AffineRational,
    Exact,
    Raw,
    degree_of,
    genericity_check,
    integrating_factor,
    integration_lemma_decompose,
    realize,
)
from .projective import (
    descends,
    projective_deformation_space,
    projectivize,
    projectivized_log_parameters,
    verify_affine_def_lemma,
)

EXIT_OK = 0
EXIT_VERDICT_FAILED = 1
EXIT_INPUT_ERROR = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="foldef",
        description="exact deformation spaces of homogeneous polynomial one-forms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, *, spec=True, form=True):
        p.add_argument("--vars", default="x,y,z", help="comma-separated variable names")
        if spec:
            p.add_argument("--rational", nargs=2, metavar=("F1", "F2"), help="rational spec parameters")
            p.add_argument("--logarithmic", nargs="+", metavar="F", help="logarithmic spec parameters")
            p.add_argument("--exact", metavar="P", help="potential of an exact spec")
            p.add_argument(
                "--eigenvalues",
                nargs="+",
                metavar="C",
                help="eigenvalues (r s for rational; one per logarithmic parameter)",
            )
        if form:
            p.add_argument("--form", metavar="EXPR", help="explicit one-form")
        p.add_argument("--output", metavar="PATH", help="write the report to a file instead of stdout")

    p_check = sub.add_parser("check", help="genericity report for a spec")
    add_common(p_check, form=False)
    p_check.add_argument("--seed", type=int, required=True, help="seed for the sampled checks")
    p_check.add_argument("--trials", type=int, default=8, help="random sections per stratum")

    p_deform = sub.add_parser("deform", help="deformation kernel at a degree")
    add_common(p_deform)
    p_deform.add_argument("--degree", type=int, help="degree of the perturbations (default: deg omega)")
    p_deform.add_argument(
        "--quotient",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="quotient by the line spanned by omega (default: when degrees match)",
    )
    p_deform.add_argument(
        "--projective",
        action="store_true",
        help="restrict to descending forms (i_R(eta) = 0); omega must descend",
    )

    p_rel = sub.add_parser("relcohom", help="relative-cohomology kernel at a degree")
    add_common(p_rel, form=False)
    p_rel.add_argument("--degree", type=int, help="degree of the solutions (default: deg omega)")
    p_rel.add_argument(
        "--quotient",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="quotient by the line spanned by omega (default: when degrees match)",
    )

    p_proj = sub.add_parser("projectivize", help="lift to n+1 variables")
    add_common(p_proj)

    p_verify = sub.add_parser("verify", help="mechanical theorem checks")
    p_verify.add_argument(
        "theorem",
        choices=["rational", "logarithmic", "exact", "coro1", "affine-def", "dicritical"],
    )
    add_common(p_verify)
    p_verify.add_argument("--eta", metavar="EXPR", help="perturbation one-form (affine-def, dicritical)")
    p_verify.add_argument("--factors", nargs="+", metavar="F", help="factorization of i_R(eta) (dicritical)")
    p_verify.add_argument("--mults", nargs="+", type=int, metavar="N", help="multiplicities for --factors")
    p_verify.add_argument("--seed", type=int, help="run the sampled genericity check too")
    p_verify.add_argument("--trials", type=int, default=8)

    p_dec = sub.add_parser("decompose", help="integration-lemma decomposition")
    add_common(p_dec, spec=False)
    p_dec.add_argument("--factors", nargs="+", required=True, metavar="F")
    p_dec.add_argument("--mults", nargs="+", type=int, metavar="N")

    return parser


def _variables(args) -> list[str]:
    names = [v.strip() for v in args.vars.split(",") if v.strip()]
    if not names:
        raise ExpressionError("no variables declared", 0)
    if len(set(names)) != len(names):
        raise ValueError("duplicate variable names")
    return names


def _spec_from_args(args, variables):
    chosen = [
        name
        for name, value in (
            ("rational", getattr(args, "rational", None)),
            ("logarithmic", getattr(args, "logarithmic", None)),
            ("exact", getattr(args, "exact", None)),
            ("form", getattr(args, "form", None)),
        )
        if value
    ]
    if len(chosen) != 1:
        raise ValueError(
            "exactly one of --rational / --logarithmic / --exact / --form is required"
        )
    kind = chosen[0]
    if kind == "rational":
        eigen = getattr(args, "eigenvalues", None)
        if not eigen or len(eigen) != 2:
            raise ValueError("--rational needs --eigenvalues R S")
        f1 = parse_poly(args.rational[0], variables)
        f2 = parse_poly(args.rational[1], variables)
        return AffineRational(f1, f2, parse_scalar(eigen[0]), parse_scalar(eigen[1]))
    if kind == "logarithmic":
        eigen = getattr(args, "eigenvalues", None)
        if not eigen or len(eigen) != len(args.logarithmic):
            raise ValueError("--logarithmic needs one --eigenvalues entry per parameter")
        factors = tuple(parse_poly(text, variables) for text in args.logarithmic)
        return AffineLogarithmic(factors, tuple(parse_scalar(v) for v in eigen))
    if kind == "exact":
        return Exact(parse_poly(args.exact, variables))
    return Raw(parse_form(args.form, variables))


def _spec_echo(spec, variables) -> dict:
    if isinstance(spec, AffineRational):
        return {
            "kind": "rational",
            "parameters": [render_poly(spec.f1, variables), render_poly(spec.f2, variables)],
            "eigenvalues": [render_scalar(spec.r), render_scalar(spec.s)],
        }
    if isinstance(spec, AffineLogarithmic):
        return {
            "kind": "logarithmic",
            "parameters": [render_poly(f, variables) for f in spec.factors],
            "eigenvalues": [render_scalar(v) for v in spec.eigenvalues],
        }
    if isinstance(spec, Exact):
        return {"kind": "exact", "potential": render_poly(spec.potential, variables)}
    return {"kind": "form", "omega": render_form(spec.omega, variables)}


def _basis_strings(space, variables) -> list[str]:
    return [render_form(f, variables) for f in space.basis_forms()]


def _run_check(args, variables) -> tuple[dict, int]:
    spec = _spec_from_args(args, variables)
    report = genericity_check(spec, trials=args.trials, seed=args.seed)
    payload = {
        "eigenvalues_ok": report.eigenvalues_ok,
        "normal_crossings_ok": report.normal_crossings_ok,
        "mu": render_scalar(report.mu),
        "mu_nonzero": report.mu_nonzero,
        "trials_used": report.trials_used,
        "verdict": report.verdict,
        "notes": list(report.notes),
        "seed": args.seed,
    }
    return payload, EXIT_OK if report.verdict == "generic" else EXIT_VERDICT_FAILED


def _kernel_payload(space, variables, quotient: bool) -> dict:
    return {
        "degree": space.degree,
        "quotient_by_omega": quotient,
        "dimension": space.dim,
        "basis": _basis_strings(space, variables),
    }


def _run_deform(args, variables) -> tuple[dict, int]:
    spec = _spec_from_args(args, variables)
    omega = realize(spec)
    degree = args.degree if args.degree is not None else degree_of(spec)
    if args.projective:
        if args.quotient is False:
            raise ValueError("the projective space is always reported modulo omega")
        space = projective_deformation_space(omega, degree)
        payload = {
            "operator": "deform (descent-constrained)",
            "omega": render_form(omega, variables),
            **_kernel_payload(space, variables, space.modulo is not None),
        }
        return payload, EXIT_OK
    quotient = args.quotient
    if quotient is None:
        quotient = degree == degree_of(spec)
    space = kernel_space(DeformOperator(omega), degree, quotient_by_omega=quotient)
    payload = {
        "operator": "deform",
        "omega": render_form(omega, variables),
        **_kernel_payload(space, variables, quotient),
    }
    return payload, EXIT_OK


def _run_relcohom(args, variables) -> tuple[dict, int]:
    spec = _spec_from_args(args, variables)
    omega = realize(spec)
    factor, verified = integrating_factor(spec)
    degree = args.degree if args.degree is not None else degree_of(spec)
    quotient = args.quotient
    if quotient is None:
        quotient = degree == degree_of(spec)
    space = kernel_space(RelCohomOperator(omega, factor), degree, quotient_by_omega=quotient)
    payload = {
        "operator": "relcohom",
        "omega": render_form(omega, variables),
        "pole_divisor": render_poly(factor, variables),
        "integrating_factor_verified": verified,
        **_kernel_payload(space, variables, quotient),
    }
    return payload, EXIT_OK


def _run_projectivize(args, variables) -> tuple[dict, int]:
    spec = _spec_from_args(args, variables)
    omega = realize(spec)
    if omega.total_degree() is None:
        raise ValueError("input form must be homogeneous")
    lifted = projectivize(omega)
    from .expressions import default_variables

    extended = variables + [name for name in default_variables(len(variables) + 1) if name not in variables]
    extended = extended[: len(variables) + 1]
    if len(extended) < len(variables) + 1:
        extended = variables + ["z_inf"]
    payload = {
        "input": render_form(omega, variables),
        "input_degree": omega.total_degree(),
        "projective_variable": extended[-1],
        "result": render_form(lifted, extended),
        "result_degree": lifted.total_degree(),
        "descends": descends(lifted),
    }
    if isinstance(spec, AffineLogarithmic):
        params = projectivized_log_parameters(spec)
        payload["logarithmic_parameters"] = {
            "factors": [render_poly(f, extended) for f in params.factors],
            "eigenvalues": [render_scalar(v) for v in params.eigenvalues],
            "degenerate_mu": params.degenerate,
        }
    return payload, EXIT_OK


def _run_verify(args, variables) -> tuple[dict, int]:
    theorem = args.theorem
    if theorem in ("rational", "logarithmic", "exact"):
        spec = _spec_from_args(args, variables)
        expected = {
            "rational": AffineRational,
            "logarithmic": AffineLogarithmic,
            "exact": Exact,
        }[theorem]
        if type(spec) is not expected:
            raise ValueError(f"verify {theorem} needs a matching --{theorem} spec")
        report = verify_decomposition(spec)
        payload = {
            "theorem": theorem,
            "spec": _spec_echo(spec, variables),
            "degree": report.degree,
            "dim_kernel": report.dim_kernel,
            "dim_param": report.dim_param,
            "dim_eigen": report.dim_eigen,
            "dim_span": report.dim_sum,
            "verdict": report.decomposition_verdict,
            "hypotheses_met": report.hypotheses_met,
            "hypotheses_notes": list(report.hypotheses_notes),
            "witnesses": [render_form(w, variables) for w in report.witnesses],
            "kernel_basis": _basis_strings(report.kernel, variables),
        }
        if args.seed is not None and theorem != "exact":
            gen = genericity_check(spec, trials=args.trials, seed=args.seed)
            payload["genericity"] = {"verdict": gen.verdict, "trials_used": gen.trials_used}
            payload["seed"] = args.seed
        ok = report.decomposition_verdict == "direct_sum_equal"
        return payload, EXIT_OK if ok else EXIT_VERDICT_FAILED
    if theorem == "coro1":
        spec = _spec_from_args(args, variables)
        if not isinstance(spec, AffineLogarithmic):
            raise ValueError("verify coro1 needs a rational or logarithmic spec")
        equal = verify_coro1(spec)
        payload = {
            "theorem": "coro1",
            "spec": _spec_echo(spec, variables),
            "kernels_equal": equal,
        }
        return payload, EXIT_OK if equal else EXIT_VERDICT_FAILED
    if theorem == "affine-def":
        spec = _spec_from_args(args, variables)
        omega = realize(spec)
        if not args.eta:
            raise ValueError("verify affine-def needs --eta")
        eta = parse_form(args.eta, variables)
        holds = verify_affine_def_lemma(omega, eta)
        payload = {
            "theorem": "affine-def",
            "omega": render_form(omega, variables),
            "eta": render_form(eta, variables),
            "holds": holds,
        }
        return payload, EXIT_OK if holds else EXIT_VERDICT_FAILED
    # dicritical
    spec = _spec_from_args(args, variables)
    omega = realize(spec)
    if not args.eta:
        raise ValueError("verify dicritical needs --eta")
    eta = parse_form(args.eta, variables)
    factors = [parse_poly(f, variables) for f in args.factors] if args.factors else None
    classification = dicritical_classify(omega, eta, factors=factors, multiplicities=args.mults)
    payload = {
        "theorem": "dicritical",
        "omega": render_form(omega, variables),
        "eta": render_form(eta, variables),
        "kind": classification.kind,
    }
    ok = True
    if classification.kind == "integrating_factor":
        payload["integrating_factor"] = render_poly(classification.factor, variables)
        payload["omega_over_factor_closed"] = classification.omega_over_factor_closed
        payload["eta_over_factor_closed"] = classification.eta_over_factor_closed
        ok = classification.omega_over_factor_closed and classification.eta_over_factor_closed
        for label, dec in (
            ("omega_decomposition", classification.omega_decomposition),
            ("eta_decomposition", classification.eta_decomposition),
        ):
            if dec is not None:
                payload[label] = {
                    "eigenvalues": [render_scalar(v) for v in dec.lambdas],
                    "g": render_poly(dec.g, variables),
                    "residual_ok": dec.residual_ok,
                }
                ok = ok and dec.residual_ok
    return payload, EXIT_OK if ok else EXIT_VERDICT_FAILED


def _run_decompose(args, variables) -> tuple[dict, int]:
    omega = parse_form(args.form, variables) if args.form else None
    if omega is None:
        raise ValueError("decompose needs --form")
    factors = [parse_poly(f, variables) for f in args.factors]
    mults = args.mults if args.mults else [1] * len(factors)
    result = integration_lemma_decompose(omega, factors, mults)
    payload = {
        "omega": render_form(omega, variables),
        "factors": [render_poly(f, variables) for f in factors],
        "multiplicities": list(mults),
        "residual_ok": result.residual_ok,
    }
    if result.residual_ok:
        payload["eigenvalues"] = [render_scalar(v) for v in result.lambdas]
        payload["g"] = render_poly(result.g, variables)
    return payload, EXIT_OK if result.residual_ok else EXIT_VERDICT_FAILED


_RUNNERS = {
    "check": _run_check,
    "deform": _run_deform,
    "relcohom": _run_relcohom,
    "projectivize": _run_projectivize,
    "verify": _run_verify,
    "decompose": _run_decompose,
}


def execute(args) -> tuple[dict, int]:
    started = time.perf_counter()
    report: dict = {"command": args.command}
    if args.command == "verify":
        report["theorem"] = args.theorem
    try:
        variables = _variables(args)
        report["variables"] = variables
        payload, status = _RUNNERS[args.command](args, variables)
        report.update(payload)
    except (ExpressionError, ValueError, TypeError, RuntimeError) as exc:
        report["error"] = str(exc)
        status = EXIT_INPUT_ERROR
    report["timing_ms"] = round((time.perf_counter() - started) * 1000, 3)
    return report, status


def _normalize_argv(argv: list[str]) -> list[str]:
    """Parenthesize the negative scalars after ``--eigenvalues``.

    argparse reads a token such as ``-2+i``, ``-1/2`` or ``-i`` as an option;
    ``(-2+i)`` parses to the same scalar.  The list ends at the first token
    that starts with ``-`` and is not a scalar, as argparse's does.
    """
    out = []
    eigenvalues = False
    for token in argv:
        if eigenvalues and token.startswith("-"):
            try:
                parse_scalar(token)
                token = f"({token})"
            except ExpressionError:
                eigenvalues = False
        out.append(token)
        if token == "--eigenvalues":
            eigenvalues = True
    return out


def run(argv: list[str]) -> tuple[dict, int]:
    """Parse and execute a command line; returns (report dict, exit status)."""
    args = build_parser().parse_args(_normalize_argv(argv))
    return execute(args)


def render_report(report: dict) -> str:
    return json.dumps(report, indent=2)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(_normalize_argv(sys.argv[1:] if argv is None else argv))
    report, status = execute(args)
    text = render_report(report)
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
