"""Output checks behind ``failed_ratio``.

Every job, for every seed, must exit with an allowed status, give a report
without an ``error`` field that renders to JSON and back unchanged, and pass
the checks for its kind.  Kernel reports are certified: every basis form is
annihilated by its operator (``deform_operator`` / ``relcohom_operator``),
the basis (with omega, when the report is taken modulo omega) is independent
mod p, and ``rank_p(matrix) + kernel dim == columns``.  Since
``rank_p <= rank_Q``, the last two checks prove that the reported basis spans
the whole kernel.  The default seed is also compared, job by job, with
report digests recorded from the seed commit (see ``reference/``).

This module imports ``foldef``; ``run.py`` imports it only after set-up,
which re-imports the package.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from itertools import count

from foldef import (
    AffineLogarithmic,
    AffineRational,
    DeformOperator,
    Exact,
    GaussianRational,
    Poly,
    RelCohomOperator,
    contract,
    descends,
    ext_d,
    one_form_coordinates,
    parse_form,
    parse_poly,
    parse_scalar,
    radial_field,
    realize,
)
from foldef.deformation import operator_matrix
from foldef.poly import monomials_of_degree
from foldef.spaces import form_to_vector

from jobs import OK, Job

P = 2**64 - 59  # prime, P % 4 == 1, so -1 has a square root mod P
I_P = next(r for g in count(2) if (r := pow(g, (P - 1) // 4, P)) * r % P == P - 1)


def _mod(value) -> int:
    if isinstance(value, GaussianRational):
        return (_mod(value.re) + _mod(value.im) * I_P) % P
    value = Fraction(value)
    return value.numerator * pow(value.denominator, -1, P) % P


def rank_mod_p(rows) -> int:
    """Rank over GF(P) (Gaussian rationals map i to a square root of -1)."""
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        r = {c: m for c, v in enumerate(row) if v != 0 and (m := _mod(v))}
        while r:
            c = min(r)
            pivot = pivots.get(c)
            if pivot is None:
                inv = pow(r[c], -1, P)
                pivots[c] = {k: v * inv % P for k, v in r.items()}
                break
            f = r[c]
            for k, v in pivot.items():
                value = (r.get(k, 0) - f * v) % P
                if value:
                    r[k] = value
                else:
                    r.pop(k, None)
    return len(pivots)


def digest(report: dict, status: int) -> str:
    """Digest of the exit status and the report without ``timing_ms``."""
    stripped = {k: v for k, v in report.items() if k != "timing_ms"}
    return hashlib.sha256(f"{status} {json.dumps(stripped)}".encode()).hexdigest()[:12]


def _descent_rows(n: int, degree: int, coords) -> list[list[int]]:
    """Coordinates of i_R(eta) over the degree-e monomials, as rows."""
    index = {mono: row for row, mono in enumerate(monomials_of_degree(n, degree))}
    rows = [[0] * len(coords) for _ in index]
    for col, (i, mono) in enumerate(coords):
        rows[index[mono[:i] + (mono[i] + 1,) + mono[i + 1 :]]][col] = 1
    return rows


def _kernel_problems(op, degree: int, basis, quotient: bool, projective: bool = False) -> list[str]:
    omega = op.omega
    n = omega.ambient_dim
    forms = list(basis) + ([omega] if quotient else [])
    if any(not op(eta).is_zero() for eta in forms):
        return ["a kernel basis form is not annihilated by its operator"]
    if projective and not all(descends(eta) for eta in forms):
        return ["a projective kernel basis form does not descend"]
    coords = one_form_coordinates(n, degree)
    if rank_mod_p([form_to_vector(f, coords) for f in forms]) != len(forms):
        return ["kernel basis is not independent"]
    matrix, _ = operator_matrix(op, n, degree)
    if projective:
        matrix = matrix + _descent_rows(n, degree, coords)
    rank = rank_mod_p(matrix)
    if rank + len(forms) != len(coords):
        return [f"rank {rank} + kernel dim {len(forms)} != columns {len(coords)}"]
    return []


def _spec_from_echo(echo: dict, names):
    if echo["kind"] == "exact":
        return Exact(parse_poly(echo["potential"], names))
    polys = [parse_poly(p, names) for p in echo["parameters"]]
    eigen = [parse_scalar(v) for v in echo["eigenvalues"]]
    if echo["kind"] == "rational":
        return AffineRational(*polys, *eigen)
    return AffineLogarithmic(tuple(polys), tuple(eigen))


def _kind_problems(job: Job, report: dict, status: int) -> list[str]:
    names = report["variables"]
    kind = job.kind
    if kind in ("deform", "relcohom", "deform-projective"):
        omega = parse_form(report["omega"], names)
        if kind == "relcohom":
            op = RelCohomOperator(omega, parse_poly(report["pole_divisor"], names))
        else:
            op = DeformOperator(omega)
        basis = [parse_form(b, names) for b in report["basis"]]
        if len(basis) != report["dimension"]:
            return ["dimension does not match the basis"]
        return _kernel_problems(op, report["degree"], basis, report["quotient_by_omega"], kind == "deform-projective")
    if kind.startswith("verify-") and "kernel_basis" in report:
        omega = realize(_spec_from_echo(report["spec"], names))
        basis = [parse_form(b, names) for b in report["kernel_basis"]]
        if len(basis) != report["dim_kernel"]:
            return ["dim_kernel does not match the basis"]
        if (status == 0) != (report["verdict"] == "direct_sum_equal"):
            return ["status does not match the verdict"]
        return _kernel_problems(DeformOperator(omega), report["degree"], basis, True)
    if kind == "projectivize":
        lifted = parse_form(report["result"], names + [report["projective_variable"]])
        return [] if descends(lifted) else ["projectivized form does not descend"]
    if kind == "decompose":
        omega = parse_form(report["omega"], names)
        factors = [parse_poly(f, names) for f in report["factors"]]
        product = Poly.constant(len(names), 1)
        for f in factors:
            product = product * f
        total = ext_d(parse_poly(report["g"], names)) * product
        for f, lam in zip(factors, report["eigenvalues"]):
            total = total + ext_d(f) * product.exact_div(f) * parse_scalar(lam)
        return [] if total == omega else ["decomposition does not reproduce omega"]
    if kind == "verify-dicritical":
        eta = parse_form(report["eta"], names)
        factor = contract(radial_field(len(names)), eta).component(())
        if report["kind"] != "integrating_factor" or parse_poly(report["integrating_factor"], names) != factor:
            return ["integrating factor is not i_R(eta)"]
        return []
    verdict_field = {"check": ("verdict", "generic"), "verify-coro1": ("kernels_equal", True),
                     "verify-affine-def": ("holds", True)}.get(kind)
    if verdict_field is not None and (status == 0) != (report[verdict_field[0]] == verdict_field[1]):
        return ["status does not match the verdict"]
    return []


def problems(job: Job, report: dict, status: int, text: str) -> list[str]:
    """Reasons the job's output is wrong; empty when it passes."""
    if "error" in report:
        return [f"error: {report['error']}"]
    if status not in ((0,) if job.expect == OK else (0, 1)):
        return [f"unexpected exit status {status}"]
    if json.loads(text) != report:
        return ["rendered report does not parse back to the report"]
    return _kind_problems(job, report, status)
