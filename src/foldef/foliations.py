"""Foliation constructors and validators.

The structured classes of integrable homogeneous one-forms handled here
are:

* affine logarithmic:  sum(lambda_k * F_k * df_k)  with  F_k = prod(f_j, j != k)
* affine rational:     r*f1*df2 - s*f2*df1, the two-factor logarithmic form
                       with factors (f1, f2) and eigenvalues (-s, r)
* exact:               dP

plus a Raw wrapper for arbitrary one-forms.  The module also provides the
integrating factor F = prod(f_i), the scalar mu with i_R(omega) = mu * F, a
seeded probabilistic normal-crossings / eigenvalue genericity check, and the
integration-lemma decomposition omega/F = sum(lambda_i df_i/f_i) + d(g/G).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from random import Random
from typing import Sequence

from . import linalg
from .forms import Form, ext_d
from .poly import Monomial, Poly, monomials_of_degree
from .scalars import Scalar, as_scalar, scalar_sqrt


def _require_homogeneous_parameter(p: Poly, what: str) -> int:
    d = p.homogeneous_degree()
    if not isinstance(d, int):
        raise ValueError(f"{what} must be homogeneous and nonzero")
    if d < 1:
        raise ValueError(f"{what} must have degree >= 1 (constants collapse the divisor)")
    return d


@dataclass(frozen=True)
class AffineLogarithmic:
    """sum(lambda_k * prod(f_j, j != k) * df_k); s = 2 is the rational case."""

    factors: tuple[Poly, ...]
    eigenvalues: tuple[Scalar, ...]

    def __post_init__(self):
        factors = tuple(self.factors)
        eigenvalues = tuple(as_scalar(v) for v in self.eigenvalues)
        if len(factors) < 2:
            raise ValueError("need at least two polynomial parameters")
        if len(factors) != len(eigenvalues):
            raise ValueError("one eigenvalue per polynomial parameter")
        for k, f in enumerate(factors):
            _require_homogeneous_parameter(f, f"factor {k}")
        if len({f.ambient_dim for f in factors}) != 1:
            raise ValueError("factors must share the ambient dimension")
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "eigenvalues", eigenvalues)

    @property
    def ambient_dim(self) -> int:
        return self.factors[0].ambient_dim

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(f.homogeneous_degree() for f in self.factors)

    @property
    def is_rational_case(self) -> bool:
        return len(self.factors) == 2


class AffineRational(AffineLogarithmic):
    """r*f1*df2 - s*f2*df1: the logarithmic spec ((f1, f2), (-s, r))."""

    def __init__(self, f1: Poly, f2: Poly, r: Scalar, s: Scalar):
        _require_homogeneous_parameter(f1, "f1")
        _require_homogeneous_parameter(f2, "f2")
        super().__init__((f1, f2), (-as_scalar(s), as_scalar(r)))

    @property
    def f1(self) -> Poly:
        return self.factors[0]

    @property
    def f2(self) -> Poly:
        return self.factors[1]

    @property
    def r(self) -> Scalar:
        return self.eigenvalues[1]

    @property
    def s(self) -> Scalar:
        return -self.eigenvalues[0]

    def as_logarithmic(self) -> AffineLogarithmic:
        """The same one-form as a plain two-factor logarithmic spec."""
        return AffineLogarithmic(self.factors, self.eigenvalues)


@dataclass(frozen=True)
class Exact:
    """dP for a homogeneous polynomial P of degree >= 1."""

    potential: Poly

    def __post_init__(self):
        _require_homogeneous_parameter(self.potential, "potential")

    @property
    def ambient_dim(self) -> int:
        return self.potential.ambient_dim


@dataclass(frozen=True)
class Raw:
    """An explicitly given one-form."""

    omega: Form

    def __post_init__(self):
        if self.omega.arity != 1:
            raise ValueError("Raw wraps a one-form")

    @property
    def ambient_dim(self) -> int:
        return self.omega.ambient_dim


FoliationSpec = AffineLogarithmic | Exact | Raw


def _log_terms(factors: Sequence[Poly]) -> list[Form]:
    """The terms prod(f_j, j != k) * df_k of a logarithmic form, one per factor."""
    terms = []
    for k, f in enumerate(factors):
        cofactor = Poly.constant(f.ambient_dim, 1)
        for j, other in enumerate(factors):
            if j != k:
                cofactor = cofactor * other
        terms.append(ext_d(f) * cofactor)
    return terms


def _log_form(factors: Sequence[Poly], eigenvalues: Sequence[Scalar]) -> Form:
    """sum(lambda_k * prod(f_j, j != k) * df_k)."""
    total = Form.zero(factors[0].ambient_dim, 1)
    for term, lam in zip(_log_terms(factors), eigenvalues):
        total = total + term * lam
    return total


def realize(spec: FoliationSpec) -> Form:
    """The homogeneous one-form with the given parameters."""
    if isinstance(spec, AffineLogarithmic):
        return _log_form(spec.factors, spec.eigenvalues)
    if isinstance(spec, Exact):
        return ext_d(spec.potential)
    if isinstance(spec, Raw):
        return spec.omega
    raise TypeError(f"not a foliation spec: {spec!r}")


def degree_of(spec: FoliationSpec) -> int:
    """Total degree of the realized one-form."""
    if isinstance(spec, AffineLogarithmic):
        return sum(spec.degrees)
    if isinstance(spec, Exact):
        return spec.potential.homogeneous_degree()
    if isinstance(spec, Raw):
        d = spec.omega.total_degree()
        if d is None:
            raise ValueError("raw one-form is not homogeneous")
        return d
    raise TypeError(f"not a foliation spec: {spec!r}")


def is_integrable(omega: Form) -> bool:
    """Whether omega ^ d(omega) vanishes identically."""
    return omega.wedge(omega.d()).is_zero()


def integrating_factor(spec: FoliationSpec) -> tuple[Poly, bool]:
    """(F, verified) with F the product of the polynomial parameters.

    ``verified`` reports whether F*d(omega) == dF ^ omega holds identically
    (it must, for valid rational/logarithmic specs).
    """
    if not isinstance(spec, AffineLogarithmic):
        raise TypeError("integrating factors are defined for rational/logarithmic specs")
    product = Poly.constant(spec.ambient_dim, 1)
    for f in spec.factors:
        product = product * f
    omega = realize(spec)
    verified = (omega.d() * product) == ext_d(product).wedge(omega)
    return product, verified


def mu_of(spec: FoliationSpec) -> Scalar:
    """The scalar mu with i_R(omega) = mu * F, i.e. sum(lambda_k * deg f_k).

    Euler's identity i_R(df_k) = deg(f_k) * f_k turns each term of
    i_R(omega) into lambda_k * deg(f_k) * F.
    """
    if not isinstance(spec, AffineLogarithmic):
        raise TypeError("mu is defined for rational/logarithmic specs")
    return sum((lam * d for lam, d in zip(spec.eigenvalues, spec.degrees)), Fraction(0))


def eigenvalue_list(spec: AffineLogarithmic) -> tuple[Scalar, ...]:
    """Eigenvalues in the logarithmic normalization ((-s, r) for rational specs)."""
    return spec.eigenvalues


# ---------------------------------------------------------------------------
# genericity: exact eigenvalue conditions + sampled normal-crossings check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GenericityReport:
    normal_crossings_ok: bool
    eigenvalues_ok: bool
    mu: Scalar
    mu_nonzero: bool
    trials_used: int
    verdict: str  # "generic" | "not_generic" | "inconclusive"
    notes: tuple[str, ...] = ()


def _eigenvalues_generic(spec: AffineLogarithmic) -> bool:
    values = spec.eigenvalues
    if any(v == 0 for v in values):
        return False
    return all(a != b for a, b in combinations(values, 2))


def _random_scalar(rng: Random) -> Fraction:
    return Fraction(rng.randint(-9, 9))


def _univariate_coefficients(p: Poly) -> list[Scalar] | None:
    """Coefficients [c0, c1, ...] if p involves only the first variable."""
    coeffs: dict[int, Scalar] = {}
    for mono, value in p.terms.items():
        if any(e != 0 for e in mono[1:]):
            return None
        coeffs[mono[0]] = value
    if not coeffs:
        return [Fraction(0)]
    top = max(coeffs)
    return [coeffs.get(k, Fraction(0)) for k in range(top + 1)]


def _univariate_roots(coeffs: list[Scalar]) -> list[Scalar] | None:
    """All roots in Q(i) for degree <= 2; rational roots for higher degree.

    Returns None when the search cannot certify anything (e.g. irrational
    roots of a high-degree factor); the caller treats that as "no data".
    """
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        return None  # identically zero: the sample carries no information
    if len(coeffs) == 1:
        return []
    if len(coeffs) == 2:
        return [-coeffs[0] / coeffs[1]]
    if len(coeffs) == 3:
        c, b, a = coeffs
        disc = b * b - 4 * a * c
        root = scalar_sqrt(disc)
        if root is None:
            return None
        first = (-b + root) / (2 * a)
        second = (-b - root) / (2 * a)
        return [first] if first == second else [first, second]
    # rational-root search over the integer-cleared coefficients
    fractions = []
    for v in coeffs:
        if not isinstance(v, Fraction):
            return None
        fractions.append(v)
    lcm = 1
    for v in fractions:
        lcm = lcm * v.denominator // math.gcd(lcm, v.denominator)
    ints = [int(v * lcm) for v in fractions]
    roots: list[Scalar] = []
    if ints[0] == 0:
        roots.append(Fraction(0))
        while ints[0] == 0:
            ints = ints[1:]
    def divisors(value: int) -> list[int]:
        value = abs(value)
        small = [d for d in range(1, math.isqrt(value) + 1) if value % d == 0]
        large = [value // d for d in reversed(small) if d * d != value]
        return small + large
    denominators = divisors(ints[-1])
    for num in divisors(ints[0]):
        for den in denominators:
            for sign in (1, -1):
                candidate = Fraction(sign * num, den)
                if sum(c * candidate**k for k, c in enumerate(ints)) == 0 and candidate not in roots:
                    roots.append(candidate)
    return roots  # possibly missing irrational roots; fine for sampling


def _remap_poly(p: Poly, keep: list[int]) -> Poly:
    """Restrict to the variables listed in ``keep`` (others must not occur)."""
    out: dict[Monomial, Scalar] = {}
    for mono, coeff in p.terms.items():
        key = tuple(mono[i] for i in keep)
        if sum(key) != sum(mono):
            raise ValueError("dropped variable still occurs")
        out[key] = coeff
    return Poly(max(len(keep), 1), out)


def _substitute_poly(p: Poly, index: int, replacement: Poly) -> Poly:
    """Substitute a polynomial (same ambient space) for variable ``index``."""
    result = Poly.zero(p.ambient_dim)
    for mono, coeff in p.terms.items():
        term = Poly.monomial(p.ambient_dim, mono[:index] + (0,) + mono[index + 1 :], coeff)
        result = result + term * replacement ** mono[index]
    return result


def _solve_square_system(equations: list[Poly], nvars: int, rng: Random) -> list[tuple[Scalar, ...]] | None:
    """Common zeros of polynomials in ``nvars`` variables, by linear elimination.

    Strategy: repeatedly solve an affine-linear equation for one variable and
    substitute; underdetermined directions are frozen at random values (they
    parameterize a continuum of zeros, and any sample point will do); the last
    variable is handled by exact univariate root finding.  Returns None when
    no elimination step applies (the sample is then inconclusive).
    """
    eqs = [e for e in equations if not e.is_zero()]
    if any(e.total_degree() == 0 for e in eqs):
        return []
    if nvars == 0:
        return [()]
    if not eqs or len(eqs) < nvars:
        # a continuum of zeros: freeze the last variable at a random value
        frozen = _random_scalar(rng)
        keep = list(range(nvars - 1))
        reduced = [_remap_poly(e.substitute(nvars - 1, frozen), keep) for e in eqs] if nvars > 1 else []
        if nvars == 1:
            return [(frozen,)] if not eqs else None
        tails = _solve_square_system(reduced, nvars - 1, rng)
        if tails is None:
            return None
        return [tail + (frozen,) for tail in tails]
    if nvars == 1:
        root_sets = []
        for e in eqs:
            coeffs = _univariate_coefficients(e)
            roots = _univariate_roots(coeffs)
            if roots is None:
                return None
            root_sets.append(roots)
        common = [r for r in root_sets[0] if all(r in rs for rs in root_sets[1:])]
        return [(r,) for r in common]
    # find an affine-linear equation with a usable pivot variable
    for pos, eq in enumerate(eqs):
        if eq.total_degree() > 1:
            continue
        for var in range(nvars):
            unit = tuple(1 if k == var else 0 for k in range(nvars))
            pivot = eq.coefficient(unit)
            if pivot == 0:
                continue
            rest = eq - Poly.monomial(nvars, unit, pivot)
            replacement = rest * (Fraction(-1) / pivot)
            keep = [k for k in range(nvars) if k != var]
            reduced = []
            for other_pos, other in enumerate(eqs):
                if other_pos == pos:
                    continue
                reduced.append(_remap_poly(_substitute_poly(other, var, replacement), keep))
            tails = _solve_square_system(reduced, nvars - 1, rng)
            if tails is None:
                return None
            solutions = []
            for tail in tails:
                point: list[Scalar] = [Fraction(0)] * nvars
                for k, value in zip(keep, tail):
                    point[k] = value
                point[var] = replacement.evaluate(point)
                solutions.append(tuple(point))
            return solutions
    return None


def _sample_subset_points(
    polys: Sequence[Poly],
    n: int,
    rng: Random,
    trials: int,
) -> tuple[list[tuple[Scalar, ...]], int, bool]:
    """Nonzero common zeros of the subset, found via random affine sections.

    Returns (points, trials consumed, certified_empty).  certified_empty is
    set when an exact full-dimensional solve shows the only common zero is the
    origin, which projectively means the stratum is empty.
    """
    k = len(polys)
    used = 0
    points: list[tuple[Scalar, ...]] = []
    if k == n:
        used += 1
        solutions = _solve_square_system(list(polys), n, rng)
        if solutions is None:
            return [], used, False
        nonzero = [p for p in solutions if any(v != 0 for v in p)]
        if not nonzero and all(f.evaluate([Fraction(0)] * n) == 0 for f in polys):
            # linear-style certificate only: the solve found just the origin,
            # but a positive-dimensional zero cone would have been missed
            # unless every equation is linear
            if all(f.total_degree() == 1 for f in polys):
                return [], used, True
            return [], used, False
        return nonzero, used, False
    for _ in range(trials):
        used += 1
        offset = [_random_scalar(rng) for _ in range(n)]
        directions = [[_random_scalar(rng) for _ in range(n)] for _ in range(k)]
        # affine map t -> offset + sum(t_j * directions[j]) as n polys in k vars
        plane = []
        for coord in range(n):
            terms: dict[Monomial, Scalar] = {}
            if offset[coord] != 0:
                terms[(0,) * k] = offset[coord]
            for j in range(k):
                if directions[j][coord] != 0:
                    unit = tuple(1 if t == j else 0 for t in range(k))
                    terms[unit] = directions[j][coord]
            plane.append(Poly(k, terms))
        restricted = []
        for f in polys:
            value = Poly.zero(k)
            for mono, coeff in f.terms.items():
                term = Poly.constant(k, coeff)
                for coord, exp in enumerate(mono):
                    for _ in range(exp):
                        term = term * plane[coord]
                value = value + term
            restricted.append(value)
        solutions = _solve_square_system(restricted, k, rng)
        if not solutions:
            continue
        for t_values in solutions:
            point = tuple(
                offset[coord] + sum((directions[j][coord] * t_values[j] for j in range(k)), Fraction(0))
                for coord in range(n)
            )
            if any(v != 0 for v in point) and point not in points:
                points.append(point)
        if points:
            return points, used, False
    return points, used, False


def genericity_check(spec: FoliationSpec, trials: int, seed: int) -> GenericityReport:
    """Check the eigenvalue condition exactly and normal crossings by sampling.

    For every subset of the polynomial parameters, points of the common zero
    locus are hunted on random affine sections; at each point found, the
    Jacobian of the subset must have full rank.  Subsets where sampling finds
    no zeros (and exact emptiness cannot be certified) leave the verdict
    inconclusive rather than generic.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not isinstance(spec, AffineLogarithmic):
        raise TypeError("genericity is defined for rational/logarithmic specs")
    factors = spec.factors
    n = spec.ambient_dim
    eigen_ok = _eigenvalues_generic(spec)
    mu = mu_of(spec)
    rng = Random(seed)
    trials_used = 0
    failures: list[str] = []
    missing: list[str] = []
    for size in range(1, min(len(factors), n) + 1):
        for subset in combinations(range(len(factors)), size):
            polys = [factors[i] for i in subset]
            points, used, certified_empty = _sample_subset_points(polys, n, rng, trials)
            trials_used += used
            label = "{" + ",".join(str(i + 1) for i in subset) + "}"
            if certified_empty:
                continue
            if not points:
                missing.append(f"no sample points on stratum {label}")
                continue
            for point in points:
                jacobian = [[f.diff(j).evaluate(point) for j in range(n)] for f in polys]
                if linalg.rank(jacobian) < size:
                    failures.append(f"rank drop at a point of stratum {label}")
                    break
    nc_ok = not failures and not missing
    if not eigen_ok or failures:
        verdict = "not_generic"
    elif missing:
        verdict = "inconclusive"
    else:
        verdict = "generic"
    return GenericityReport(
        normal_crossings_ok=nc_ok,
        eigenvalues_ok=eigen_ok,
        mu=mu,
        mu_nonzero=mu != 0,
        trials_used=trials_used,
        verdict=verdict,
        notes=tuple(failures + missing),
    )


# ---------------------------------------------------------------------------
# integration lemma decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntegrationDecomposition:
    """omega = sum(lambda_i * (F/f_i) * df_i) + f*dg - g*sum((n_i - 1)*(f/f_i)*df_i)."""

    lambdas: tuple[Scalar, ...] | None
    g: Poly | None
    residual_ok: bool


def integration_lemma_decompose(
    omega: Form,
    factors: Sequence[Poly],
    multiplicities: Sequence[int],
) -> IntegrationDecomposition:
    """Solve for the eigenvalues and the exact part of omega / prod(f_i^n_i).

    Requires F = prod(f_i^n_i) to be an integrating factor of omega; reports
    exact solvability instead of guessing when the linear system is
    inconsistent.
    """
    from .spaces import one_form_coordinates, form_to_vector

    if omega.arity != 1:
        raise ValueError("expected a one-form")
    n = omega.ambient_dim
    e = omega.total_degree()
    if e is None:
        raise ValueError("omega must be homogeneous")
    factors = list(factors)
    multiplicities = list(multiplicities)
    if len(factors) != len(multiplicities) or not factors:
        raise ValueError("need one positive multiplicity per factor")
    if any(m < 1 for m in multiplicities):
        raise ValueError("multiplicities must be positive")
    degrees = [_require_homogeneous_parameter(f, "factor") for f in factors]
    for a, b in combinations(range(len(factors)), 2):
        ratio = factors[a].exact_div(factors[b])
        if ratio is not None and isinstance(ratio.homogeneous_degree(), int) and ratio.homogeneous_degree() == 0:
            raise ValueError("factors must be pairwise non-proportional")
    big_f = Poly.constant(n, 1)
    reduced_f = Poly.constant(n, 1)
    for f, m in zip(factors, multiplicities):
        big_f = big_f * f**m
        reduced_f = reduced_f * f
    if omega.d() * big_f != ext_d(big_f).wedge(omega):
        raise ValueError("prod(f_i^n_i) is not an integrating factor of omega")
    deg_f = big_f.homogeneous_degree()
    deg_g = e - deg_f + sum((m - 1) * d for m, d in zip(multiplicities, degrees))
    coords = one_form_coordinates(n, e)
    columns: list[tuple[Scalar, ...]] = []
    lambda_columns = 0
    if deg_f == e:
        lambda_columns = len(factors)
        for f in factors:
            cofactor = big_f.exact_div(f)
            columns.append(form_to_vector(ext_d(f) * cofactor, coords))
    g_monomials = monomials_of_degree(n, deg_g) if deg_g >= 0 else []
    for mono in g_monomials:
        g_term = Poly.monomial(n, mono)
        contribution = ext_d(g_term) * reduced_f
        for f, m, d in zip(factors, multiplicities, degrees):
            if m > 1:
                contribution = contribution - ext_d(f) * (g_term * reduced_f.exact_div(f)) * Fraction(m - 1)
        columns.append(form_to_vector(contribution, coords))
    target = form_to_vector(omega, coords)
    matrix = [[col[row] for col in columns] for row in range(len(coords))]
    solution = linalg.solve(matrix, target, len(columns))
    if solution is None:
        return IntegrationDecomposition(None, None, residual_ok=False)
    lambdas = tuple(solution[:lambda_columns]) if lambda_columns else tuple(
        Fraction(0) for _ in factors
    )
    g_terms = {
        mono: value
        for mono, value in zip(g_monomials, solution[lambda_columns:])
        if value != 0
    }
    return IntegrationDecomposition(lambdas, Poly(n, g_terms), residual_ok=True)
