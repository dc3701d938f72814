"""First-order deformation spaces as exact kernels.

A first-order perturbation omega + eps*eta (eps^2 = 0) of an integrable
one-form stays integrable exactly when omega ^ d(eta) + d(omega) ^ eta = 0.
This module assembles that operator (and the relative-cohomology operator
(F*d(eta) - dF ^ eta) ^ omega) as an exact matrix over the monomial basis of
homogeneous one-forms, computes kernels by sparse exact elimination, builds
the parameter / eigenvalue perturbation subspaces, and compares the two in
canonical echelon form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from . import linalg
from .foliations import (
    AffineLogarithmic,
    AffineRational,
    Exact,
    FoliationSpec,
    IntegrationDecomposition,
    _eigenvalues_generic,
    _log_form,
    _log_terms,
    degree_of,
    integrating_factor,
    integration_lemma_decompose,
    is_integrable,
    mu_of,
    realize,
)
from .forms import Form, contract, ext_d, radial_field
from .poly import Poly, monomials_of_degree
from .scalars import Scalar, as_scalar
from .spaces import (
    SubspaceBasis,
    one_form_coordinates,
    span_of_forms,
    vectors_to_subspace,
)


def deform_operator(omega: Form, eta: Form) -> Form:
    """omega ^ d(eta) + d(omega) ^ eta, exactly."""
    if omega.ambient_dim != eta.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return omega.wedge(eta.d()) + omega.d().wedge(eta)


def relcohom_operator(omega: Form, factor: Poly, eta: Form) -> Form:
    """(F*d(eta) - dF ^ eta) ^ omega, the cleared form of d(eta/F) ^ omega = 0."""
    if omega.ambient_dim != eta.ambient_dim or omega.ambient_dim != factor.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return (eta.d() * factor - ext_d(factor).wedge(eta)).wedge(omega)


@dataclass(frozen=True)
class DeformOperator:
    """eta -> omega ^ d(eta) + d(omega) ^ eta."""

    omega: Form

    def __call__(self, eta: Form) -> Form:
        return deform_operator(self.omega, eta)

    def output_degree(self, input_degree: int) -> int:
        return self.omega.total_degree() + input_degree


@dataclass(frozen=True)
class RelCohomOperator:
    """eta -> (F*d(eta) - dF ^ eta) ^ omega."""

    omega: Form
    factor: Poly

    def __post_init__(self):
        if not isinstance(self.factor.homogeneous_degree(), int):
            raise ValueError("the pole divisor F must be homogeneous and nonzero")

    def __call__(self, eta: Form) -> Form:
        return relcohom_operator(self.omega, self.factor, eta)

    def output_degree(self, input_degree: int) -> int:
        return self.omega.total_degree() + self.factor.homogeneous_degree() + input_degree


def operator_matrix(op, n: int, degree: int) -> tuple[list[list[Scalar]], tuple]:
    """Matrix of the operator over the monomial bases (rows: 3-form coords)."""
    coords = one_form_coordinates(n, degree)
    out_degree = op.output_degree(degree)
    out_coords = [
        (key, mono)
        for key in combinations(range(n), 3)
        for mono in monomials_of_degree(n, out_degree - 3)
    ]
    index = {coord: row for row, coord in enumerate(out_coords)}
    matrix = [[Fraction(0)] * len(coords) for _ in out_coords]
    for col, (i, mono) in enumerate(coords):
        image = op(Form(n, 1, {(i,): Poly.monomial(n, mono)}))
        for key, poly in image.components.items():
            for out_mono, value in poly.terms.items():
                matrix[index[(key, out_mono)]][col] = value
    return matrix, tuple(coords)


def kernel_space(op, degree: int, quotient_by_omega: bool = False) -> SubspaceBasis:
    """Exact kernel of the operator on homogeneous degree-e one-forms.

    With ``quotient_by_omega`` the result is the canonical complement of the
    line spanned by omega inside the kernel (coset representatives of the
    kernel modulo that line); this requires deg(omega) == e.
    """
    omega = op.omega
    n = omega.ambient_dim
    if degree < 1:
        raise ValueError("degree must be >= 1")
    if omega.total_degree() is None:
        raise ValueError("omega must be homogeneous")
    if not is_integrable(omega):
        raise ValueError("omega must be integrable")
    if quotient_by_omega and omega.total_degree() != degree:
        raise ValueError("quotient by omega requires deg(omega) == degree")
    matrix, _ = operator_matrix(op, n, degree)
    vectors = linalg.nullspace(matrix, len(one_form_coordinates(n, degree)))
    return vectors_to_subspace(vectors, n, degree, modulo=omega if quotient_by_omega else None)


def perturbation_generators(spec: AffineLogarithmic, slot: int, degree: int) -> list[Form]:
    """Generators obtained by replacing the slot's parameter by each monomial."""
    n = spec.ambient_dim
    out = []
    for mono in monomials_of_degree(n, degree):
        substituted = list(spec.factors)
        substituted[slot] = Poly.monomial(n, mono)
        out.append(_log_form(substituted, spec.eigenvalues))
    return out


def param_perturbation_space(
    spec: FoliationSpec,
    target_degrees: Sequence[int] | None = None,
    quotient_by_omega: bool = False,
) -> SubspaceBasis:
    """Span of all single-slot parameter perturbations, echelonized.

    ``target_degrees`` (one per slot) selects replacement degrees different
    from the original ones; all slots must then land in one common total
    degree, and degree-0 replacements are rejected (that extreme case lives in
    :func:`different_degree_solutions`).
    """
    if not isinstance(spec, AffineLogarithmic):
        raise TypeError("parameter perturbations are defined for rational/logarithmic specs")
    degrees = list(spec.degrees)
    e = degree_of(spec)
    if target_degrees is None:
        target = degrees
    else:
        target = list(target_degrees)
        if len(target) != len(degrees):
            raise ValueError("need one target degree per polynomial parameter")
    if any(d < 1 for d in target):
        raise ValueError(
            "degree-0 replacements are not parameter perturbations; "
            "see different_degree_solutions for the constant-replacement case"
        )
    totals = {e - d + t for d, t in zip(degrees, target)}
    if len(totals) != 1:
        raise ValueError("slot target degrees must land in a single total degree")
    total_degree = totals.pop()
    generators: list[Form] = []
    for slot, t in enumerate(target):
        generators.extend(perturbation_generators(spec, slot, t))
    modulo = None
    if quotient_by_omega:
        if total_degree != e:
            raise ValueError("quotient by omega requires unchanged degrees")
        modulo = realize(spec)
    return span_of_forms(generators, spec.ambient_dim, total_degree, modulo=modulo)


def eigen_perturbation_space(
    spec: FoliationSpec,
    quotient_by_omega: bool = False,
) -> SubspaceBasis:
    """Span of the eigenvalue perturbations {F_i df_i} (for a rational spec {f2 df1, f1 df2})."""
    if not isinstance(spec, AffineLogarithmic):
        raise TypeError("eigenvalue perturbations are defined for rational/logarithmic specs")
    modulo = realize(spec) if quotient_by_omega else None
    return span_of_forms(_log_terms(spec.factors), spec.ambient_dim, degree_of(spec), modulo=modulo)


@dataclass(frozen=True)
class DeformationReport:
    """Comparison of the deformation kernel with the perturbation span.

    All dimensions are dimensions of quotients modulo the line spanned by
    omega.  ``decomposition_verdict`` is ``direct_sum_equal`` exactly when the
    kernel equals the param+eigen span in canonical form and the span
    dimension is the sum of the two perturbation dimensions.
    """

    spec_summary: str
    degree: int
    dim_kernel: int
    dim_param: int
    dim_eigen: int
    dim_sum: int
    decomposition_verdict: str  # direct_sum_equal | proper_subspace | mismatch
    witnesses: tuple[Form, ...]
    hypotheses_met: bool
    hypotheses_notes: tuple[str, ...]
    kernel: SubspaceBasis
    span: SubspaceBasis
    param: SubspaceBasis | None
    eigen: SubspaceBasis | None


def _spec_summary(spec: FoliationSpec) -> str:
    from .expressions import render_form, render_poly, render_scalar

    if isinstance(spec, AffineRational):
        polys = ", ".join(render_poly(f) for f in (spec.f1, spec.f2))
        return f"rational ({polys}); eigenvalues ({render_scalar(spec.r)}, {render_scalar(spec.s)})"
    if isinstance(spec, AffineLogarithmic):
        polys = ", ".join(render_poly(f) for f in spec.factors)
        eigen = ", ".join(render_scalar(v) for v in spec.eigenvalues)
        return f"logarithmic ({polys}); eigenvalues ({eigen})"
    if isinstance(spec, Exact):
        return f"exact d({render_poly(spec.potential)})"
    return f"raw {render_form(realize(spec))}"


def _hypotheses(spec: AffineLogarithmic) -> tuple[bool, tuple[str, ...]]:
    notes = []
    if spec.ambient_dim < 3:
        notes.append("ambient dimension below 3")
    if not _eigenvalues_generic(spec):
        notes.append("eigenvalue condition fails")
    mu = mu_of(spec)
    if mu == 0:
        notes.append("mu = 0")
    if any(-mu == lam for lam in spec.eigenvalues):
        notes.append("-mu collides with an eigenvalue")
    return (not notes), tuple(notes)


def verify_decomposition(spec: FoliationSpec) -> DeformationReport:
    """Compare the same-degree deformation kernel with the perturbation span.

    For rational/logarithmic specs the span is param + eigen perturbations;
    for an exact spec dP it is the exact perturbations {dQ}.  Non-generic
    inputs are still processed, flagged as outside the theorem hypotheses.
    """
    omega = realize(spec)
    e = degree_of(spec)
    kernel = kernel_space(DeformOperator(omega), e, quotient_by_omega=True)
    if isinstance(spec, Exact):
        n = spec.ambient_dim
        generators = [
            ext_d(Poly.monomial(n, mono)) for mono in monomials_of_degree(n, e)
        ]
        span = span_of_forms(generators, n, e, modulo=omega)
        param, eigen = span, None
        dim_param, dim_eigen = span.dim, 0
        hypotheses_met, notes = True, ()
    elif isinstance(spec, AffineLogarithmic):
        param = param_perturbation_space(spec, quotient_by_omega=True)
        eigen = eigen_perturbation_space(spec, quotient_by_omega=True)
        span = span_of_forms(
            tuple(param.generators) + tuple(eigen.generators), spec.ambient_dim, e, modulo=omega
        )
        dim_param, dim_eigen = param.dim, eigen.dim
        hypotheses_met, notes = _hypotheses(spec)
        if not hypotheses_met:
            notes = ("outside theorem hypotheses",) + notes
    else:
        raise TypeError("decomposition verification needs a structured spec")
    witnesses: tuple[Form, ...] = ()
    if kernel == span and span.dim == dim_param + dim_eigen:
        verdict = "direct_sum_equal"
    else:
        span_inside = all(kernel.contains(f) for f in span.basis_forms())
        if span_inside and span.dim < kernel.dim:
            verdict = "proper_subspace"
            witnesses = tuple(f for f in kernel.basis_forms() if not span.contains(f))
        else:
            verdict = "mismatch"
    return DeformationReport(
        spec_summary=_spec_summary(spec),
        degree=e,
        dim_kernel=kernel.dim,
        dim_param=dim_param,
        dim_eigen=dim_eigen,
        dim_sum=span.dim,
        decomposition_verdict=verdict,
        witnesses=witnesses,
        hypotheses_met=hypotheses_met,
        hypotheses_notes=notes,
        kernel=kernel,
        span=span,
        param=param,
        eigen=eigen,
    )


def verify_coro1(spec: FoliationSpec) -> bool:
    """Same-degree equivalence of the deformation and relative-cohomology kernels."""
    if not isinstance(spec, AffineLogarithmic):
        raise TypeError("the equivalence is stated for rational/logarithmic specs")
    omega = realize(spec)
    factor, verified = integrating_factor(spec)
    if not verified:
        raise RuntimeError("integrating factor identity failed (internal error)")
    e = degree_of(spec)
    deform_kernel = kernel_space(DeformOperator(omega), e)
    relcohom_kernel = kernel_space(RelCohomOperator(omega, factor), e)
    return deform_kernel == relcohom_kernel


def different_degree_solutions(
    spec: FoliationSpec,
    kept_indices: Sequence[int],
) -> Form:
    """The constant-replacement solution of the relative-cohomology equation.

    Replacing the parameter outside ``kept_indices`` by the constant 1 yields
    eta = sum(lambda_j * prod(f_i, i in kept, i != j) * df_j) over the kept
    slots (for a rational spec, simply df_j for the kept slot j).  The result
    is checked against the relative-cohomology operator before it is returned.
    """
    if not isinstance(spec, AffineLogarithmic):
        raise TypeError("defined for rational/logarithmic specs")
    count = len(spec.factors)
    kept = sorted(set(kept_indices))
    if len(kept) != count - 1 or any(not 0 <= j < count for j in kept):
        raise ValueError("need a proper subset of slot indices of size s - 1")
    factors = [spec.factors[j] for j in kept]
    if isinstance(spec, AffineRational):
        eta = ext_d(factors[0])
    else:
        eta = _log_form(factors, [spec.eigenvalues[j] for j in kept])
    omega = realize(spec)
    factor, _ = integrating_factor(spec)
    if not relcohom_operator(omega, factor, eta).is_zero():
        raise RuntimeError(
            "constructed solution fails the relative-cohomology equation (internal error)"
        )
    return eta


@dataclass(frozen=True)
class DicriticalClassification:
    """Outcome for a deformation of a dicritical (i_R(omega) = 0) one-form.

    kind is "descends" when i_R(eta) = 0; otherwise "integrating_factor" with
    F = i_R(eta) and the two closedness verdicts for omega/F and eta/F.  When
    a factorization of F is supplied, the chained integration-lemma
    decompositions of omega/F and eta/F are attached.
    """

    kind: str
    factor: Poly | None = None
    omega_over_factor_closed: bool | None = None
    eta_over_factor_closed: bool | None = None
    omega_decomposition: IntegrationDecomposition | None = None
    eta_decomposition: IntegrationDecomposition | None = None


def dicritical_classify(
    omega: Form,
    eta: Form,
    factors: Sequence[Poly] | None = None,
    multiplicities: Sequence[int] | None = None,
) -> DicriticalClassification:
    """Classify eta per the dicritical alternative.

    Preconditions: i_R(omega) = 0, both forms homogeneous of equal degree,
    and deform_operator(omega, eta) = 0.  Either i_R(eta) = 0 too (the
    deformation descends to projective space) or F = i_R(eta) is an
    integrating factor of both omega and eta.
    """
    n = omega.ambient_dim
    field = radial_field(n)
    if not contract(field, omega).component(()).is_zero():
        raise ValueError("omega is not dicritical: i_R(omega) != 0")
    e = omega.total_degree()
    if e is None or not eta.is_homogeneous(e):
        raise ValueError("omega and eta must be homogeneous of the same degree")
    if not deform_operator(omega, eta).is_zero():
        raise ValueError("eta is not a first-order deformation of omega")
    contracted = contract(field, eta).component(())
    if contracted.is_zero():
        return DicriticalClassification(kind="descends")
    factor = contracted
    omega_closed = omega.d() * factor == ext_d(factor).wedge(omega)
    eta_closed = eta.d() * factor == ext_d(factor).wedge(eta)
    omega_dec = eta_dec = None
    if factors is not None:
        if multiplicities is None:
            multiplicities = [1] * len(factors)
        product = Poly.constant(n, 1)
        for f, m in zip(factors, multiplicities):
            product = product * f**m
        constant = factor.exact_div(product)
        if constant is None or constant.homogeneous_degree() != 0:
            raise ValueError("supplied factorization does not match i_R(eta) up to a constant")
        scale = constant.coefficient((0,) * n)
        omega_dec = _rescale_decomposition(
            integration_lemma_decompose(omega, factors, multiplicities), scale
        )
        eta_dec = _rescale_decomposition(
            integration_lemma_decompose(eta, factors, multiplicities), scale
        )
    return DicriticalClassification(
        kind="integrating_factor",
        factor=factor,
        omega_over_factor_closed=omega_closed,
        eta_over_factor_closed=eta_closed,
        omega_decomposition=omega_dec,
        eta_decomposition=eta_dec,
    )


def _rescale_decomposition(dec: IntegrationDecomposition, scale: Scalar) -> IntegrationDecomposition:
    """Convert a decomposition over prod(f_i^n_i) to one over scale * prod(f_i^n_i)."""
    if not dec.residual_ok:
        return dec
    inverse = Fraction(1) / as_scalar(scale)
    return IntegrationDecomposition(
        lambdas=tuple(v * inverse for v in dec.lambdas),
        g=dec.g * inverse,
        residual_ok=True,
    )