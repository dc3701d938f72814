"""Projectivization and descent of homogeneous one-forms.

An affine homogeneous one-form eta of total degree e in n variables lifts to
z*eta - i_R(eta)*dz in n+1 variables (the projective variable is always the
last coordinate), which is homogeneous of degree e+1 and contracts to zero
against the radial field, i.e. descends to projective space.  Setting the
last variable to 1 and dropping its differential inverts the lift.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from . import linalg
from .deformation import DeformOperator, deform_operator, operator_matrix
from .foliations import (
    AffineLogarithmic,
    FoliationSpec,
    degree_of,
    is_integrable,
    mu_of,
    realize,
)
from .forms import Form, contract, radial_field
from .poly import Poly, monomials_of_degree
from .scalars import Scalar
from .spaces import SubspaceBasis, one_form_coordinates, vectors_to_subspace


def descends(eta: Form) -> bool:
    """Whether i_R(eta) = 0 identically, i.e. eta defines a projective form."""
    if eta.arity != 1:
        raise ValueError("descent is defined for one-forms")
    return contract(radial_field(eta.ambient_dim), eta).component(()).is_zero()


def projectivize(eta: Form, total_degree: int | None = None) -> Form:
    """z*eta - i_R(eta)*dz in n+1 variables; homogeneous of degree e+1."""
    if eta.arity != 1:
        raise ValueError("projectivization is defined for one-forms")
    e = eta.total_degree()
    if e is None and not eta.is_zero():
        raise ValueError("eta must be homogeneous")
    if total_degree is not None and e is not None and e != total_degree:
        raise ValueError(f"eta has total degree {e}, not {total_degree}")
    n = eta.ambient_dim
    z = Poly.variable(n + 1, n)
    components: dict[tuple[int, ...], Poly] = {}
    for (i,), poly in eta.components.items():
        components[(i,)] = poly.lift(n + 1) * z
    radial_part = contract(radial_field(n), eta).component(())
    if not radial_part.is_zero():
        components[(n,)] = -radial_part.lift(n + 1)
    return Form(n + 1, 1, components)


def dehomogenize(eta_tilde: Form) -> Form:
    """Set the last variable to 1 and drop its differential.

    The inverse of projectivize on homogeneous forms; on other inputs the
    coefficient degrees of the result may mix (inspect coefficient_degrees()).
    """
    if eta_tilde.arity != 1:
        raise ValueError("dehomogenization is defined for one-forms")
    n = eta_tilde.ambient_dim
    if n < 2:
        raise ValueError("need at least two variables")
    components: dict[tuple[int, ...], Poly] = {}
    for (i,), poly in eta_tilde.components.items():
        if i == n - 1:
            continue
        components[(i,)] = poly.substitute(n - 1, 1).drop_last_variable()
    return Form(n - 1, 1, components)


def verify_affine_def_lemma(omega: Form, eta: Form) -> bool:
    """Projectivized deformations stay deformations, and the converse round-trips.

    Preconditions: omega integrable, both forms homogeneous of one common
    degree, and deform_operator(omega, eta) = 0.
    """
    e = omega.total_degree()
    if e is None:
        raise ValueError("omega must be homogeneous")
    if not eta.is_homogeneous(e):
        raise ValueError("eta must be homogeneous of the same degree as omega")
    if not is_integrable(omega):
        raise ValueError("omega must be integrable")
    if not deform_operator(omega, eta).is_zero():
        raise ValueError("eta is not a first-order deformation of omega")
    omega_lift = projectivize(omega, e)
    eta_lift = projectivize(eta, e)
    forward = deform_operator(omega_lift, eta_lift).is_zero()
    # converse: the projectivized pair solves the lifted equation, and
    # dehomogenizing it back yields a solution of the affine equation
    omega_back = dehomogenize(omega_lift)
    eta_back = dehomogenize(eta_lift)
    converse = (
        omega_back == omega
        and eta_back == eta
        and deform_operator(omega_back, eta_back).is_zero()
    )
    return forward and converse


@dataclass(frozen=True)
class ProjectivizedParameters:
    """Logarithmic data of z*omega - mu*F*dz: factors + z, eigenvalues + (-mu).

    ``degenerate`` flags mu = 0, where the appended eigenvalue is zero and the
    projectivized form falls outside the generic logarithmic class.
    """

    factors: tuple[Poly, ...]
    eigenvalues: tuple[Scalar, ...]
    degenerate: bool


def projectivized_log_parameters(spec: FoliationSpec) -> ProjectivizedParameters:
    """Parameters of the projectivization as a logarithmic form in n+1 variables."""
    if not isinstance(spec, AffineLogarithmic):
        raise TypeError("defined for rational/logarithmic specs")
    n = spec.ambient_dim
    mu = mu_of(spec)
    lifted = tuple(f.lift(n + 1) for f in spec.factors) + (Poly.variable(n + 1, n),)
    eigenvalues = spec.eigenvalues + (-mu,)
    expected = projectivize(realize(spec), degree_of(spec))
    if realize(AffineLogarithmic(lifted, eigenvalues)) != expected:
        raise RuntimeError("projectivized parameters do not realize z*omega - mu*F*dz")
    return ProjectivizedParameters(lifted, eigenvalues, degenerate=(mu == 0))


def projective_deformation_space(omega_tilde: Form, degree: int) -> SubspaceBasis:
    """Kernel of the deformation operator on descending degree-e one-forms.

    The domain is cut out by the exact linear condition i_R(eta) = 0 inside
    the homogeneous degree-e one-forms of the n+1 ambient variables; the
    result is taken modulo the line spanned by omega_tilde.
    """
    n = omega_tilde.ambient_dim
    if n < 4:
        raise ValueError("the projective statement needs ambient dimension >= 4 (P^n, n >= 3)")
    if omega_tilde.total_degree() is None:
        raise ValueError("omega must be homogeneous")
    if not is_integrable(omega_tilde):
        raise ValueError("omega must be integrable")
    if not descends(omega_tilde):
        raise ValueError("omega does not descend: i_R(omega) != 0")
    if degree < 1:
        raise ValueError("degree must be >= 1")
    coords = one_form_coordinates(n, degree)
    matrix, _ = operator_matrix(DeformOperator(omega_tilde), n, degree)
    # descent rows: coordinates of i_R(eta) over the degree-e monomials
    descent_monomials = monomials_of_degree(n, degree)
    index = {mono: row for row, mono in enumerate(descent_monomials)}
    descent_rows = [[Fraction(0)] * len(coords) for _ in descent_monomials]
    for col, (i, mono) in enumerate(coords):
        lifted = list(mono)
        lifted[i] += 1
        descent_rows[index[tuple(lifted)]][col] = Fraction(1)
    vectors = linalg.nullspace(matrix + descent_rows, len(coords))
    modulo = omega_tilde if omega_tilde.total_degree() == degree else None
    return vectors_to_subspace(vectors, n, degree, modulo=modulo)
