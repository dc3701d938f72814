from fractions import Fraction
from random import Random

import pytest

from foldef.foliations import (
    AffineLogarithmic,
    AffineRational,
    Exact,
    Raw,
    degree_of,
    eigenvalue_list,
    genericity_check,
    integrating_factor,
    integration_lemma_decompose,
    is_integrable,
    mu_of,
    realize,
)
from foldef.forms import contract, ext_d, radial_field
from foldef.poly import Poly
from foldef.expressions import parse_form

from gen import random_logarithmic_spec, random_rational_spec
from oracles import reference_mu

X, Y, Z = (Poly.variable(3, i) for i in range(3))
VARS = ["x", "y", "z"]


def test_realize_rational():
    spec = AffineRational(X, Y, 1, 2)
    assert realize(spec) == parse_form("x*dy - 2*y*dx", VARS)
    assert degree_of(spec) == 2


def test_realize_logarithmic():
    spec = AffineLogarithmic((X, Y, Z), (1, 2, 5))
    assert realize(spec) == parse_form("(y*z)*dx + (2*x*z)*dy + (5*x*y)*dz", VARS)
    assert degree_of(spec) == 3


def test_realize_exact():
    spec = Exact(X**3 + Y**3 + Z**3)
    assert realize(spec) == parse_form("(3*x^2)*dx + (3*y^2)*dy + (3*z^2)*dz", VARS)


def test_realize_raw():
    form = parse_form("x*dy", VARS)
    assert realize(Raw(form)) == form


def test_constant_parameters_rejected():
    with pytest.raises(ValueError):
        AffineRational(Poly.constant(3, 1), Y, 1, 2)
    with pytest.raises(ValueError):
        AffineLogarithmic((X, Poly.constant(3, 2)), (1, 2))
    with pytest.raises(ValueError):
        AffineLogarithmic((X,), (1,))
    with pytest.raises(ValueError):
        Exact(Poly.constant(3, 5))


def test_inhomogeneous_parameters_rejected():
    with pytest.raises(ValueError):
        AffineRational(X + Y**2, Y, 1, 2)


def test_two_factor_logarithmic_is_rational():
    spec = AffineRational(X, Y**2, Fraction(3), Fraction(-2))
    log = spec.as_logarithmic()
    assert log.is_rational_case
    assert realize(log) == realize(spec)
    rng = Random(13)
    for _ in range(20):
        rational = random_rational_spec(rng, 3)
        assert realize(rational.as_logarithmic()) == realize(rational)


def test_integrability():
    assert is_integrable(realize(AffineRational(X, Y, 1, 2)))
    assert is_integrable(realize(AffineLogarithmic((X, Y, Z), (1, 2, 5))))
    assert not is_integrable(parse_form("x*dy + y*dz + z*dx", VARS))


def test_integrating_factor_examples():
    factor, ok = integrating_factor(AffineRational(X, Y, 1, 2))
    assert factor == X * Y and ok
    factor, ok = integrating_factor(AffineLogarithmic((X, Y, Z), (1, 2, 5)))
    assert factor == X * Y * Z and ok
    factor, ok = integrating_factor(AffineRational(X, Y, 1, 1))
    assert factor == X * Y and ok


def test_integrating_factor_requires_structured_spec():
    with pytest.raises(TypeError):
        integrating_factor(Exact(X**3))
    with pytest.raises(TypeError):
        integrating_factor(Raw(parse_form("x*dy", VARS)))


def test_integrating_factor_randomized():
    rng = Random(47)
    for _ in range(60):
        spec = random_rational_spec(rng, 3) if rng.random() < 0.5 else random_logarithmic_spec(rng, 3)
        omega = realize(spec)
        assert is_integrable(omega)
        _, ok = integrating_factor(spec)
        assert ok


def test_mu_examples():
    assert mu_of(AffineLogarithmic((X, Y, Z), (1, 2, 5))) == 8
    assert mu_of(AffineRational(X, Y, 1, 1)) == 0
    assert mu_of(AffineRational(X, Y, 1, 2)) == -1


def test_mu_identity_randomized():
    rng = Random(53)
    field = radial_field(3)
    for _ in range(40):
        spec = random_rational_spec(rng, 3) if rng.random() < 0.5 else random_logarithmic_spec(rng, 3)
        omega = realize(spec)
        factor, _ = integrating_factor(spec)
        mu = mu_of(spec)
        assert contract(field, omega).component(()) == factor * mu


@pytest.mark.parametrize("gaussian", [False, True])
def test_mu_closed_form_matches_reference(gaussian):
    rng = Random(59 + gaussian)
    specs = [random_rational_spec(rng, 3, gaussian=gaussian) for _ in range(20)]
    for s in (2, 3, 4):
        specs += [random_logarithmic_spec(rng, 3, s=s, gaussian=gaussian) for _ in range(20)]
    for spec in specs:
        mu, expected = mu_of(spec), reference_mu(spec)
        assert mu == expected and type(mu) is type(expected)


def test_eigenvalue_list():
    assert eigenvalue_list(AffineRational(X, Y, 1, 2)) == (Fraction(-2), Fraction(1))
    assert eigenvalue_list(AffineLogarithmic((X, Y, Z), (1, 2, 5))) == (
        Fraction(1),
        Fraction(2),
        Fraction(5),
    )


def test_genericity_generic_instance():
    report = genericity_check(AffineLogarithmic((X, Y, Z), (1, 2, 5)), trials=8, seed=7)
    assert report.verdict == "generic"
    assert report.eigenvalues_ok and report.normal_crossings_ok
    assert report.mu == 8 and report.mu_nonzero


def test_genericity_repeated_eigenvalue():
    report = genericity_check(AffineLogarithmic((X, Y, Z), (1, 1, 5)), trials=8, seed=7)
    assert not report.eigenvalues_ok
    assert report.verdict == "not_generic"


def test_genericity_zero_eigenvalue():
    report = genericity_check(AffineLogarithmic((X, Y, Z), (0, 1, 5)), trials=8, seed=7)
    assert not report.eigenvalues_ok


def test_genericity_rational_eigenvalues():
    assert genericity_check(AffineRational(X, Y, 1, -1), trials=4, seed=1).eigenvalues_ok is False
    assert genericity_check(AffineRational(X, Y, 1, 2), trials=4, seed=1).eigenvalues_ok is True


def test_genericity_non_reduced_divisor():
    report = genericity_check(AffineRational(X, X * Y, 1, 2), trials=8, seed=7)
    assert not report.normal_crossings_ok
    assert report.verdict == "not_generic"


def test_genericity_tangent_pair():
    # {x = 0} and {y^2 + xz = 0} meet non-transversally along x = y = 0
    report = genericity_check(AffineRational(X, Y**2 + X * Z, 2, 1), trials=8, seed=7)
    assert not report.normal_crossings_ok
    assert report.verdict == "not_generic"


def test_genericity_trials_validated():
    with pytest.raises(ValueError):
        genericity_check(AffineRational(X, Y, 1, 2), trials=0, seed=1)


def test_genericity_deterministic_for_seed():
    a = genericity_check(AffineLogarithmic((X, Y, Z), (1, 2, 5)), trials=8, seed=42)
    b = genericity_check(AffineLogarithmic((X, Y, Z), (1, 2, 5)), trials=8, seed=42)
    assert a == b


def test_integration_lemma_dicritical_standard_form():
    omega = parse_form("x*dy - y*dx", VARS)
    result = integration_lemma_decompose(omega, [X, Y], [1, 1])
    assert result.residual_ok
    assert result.lambdas == (Fraction(-1), Fraction(1))
    assert result.g.is_zero()


def test_integration_lemma_exact_log():
    result = integration_lemma_decompose(ext_d(X * Y), [X, Y], [1, 1])
    assert result.residual_ok
    assert result.lambdas == (Fraction(1), Fraction(1))
    assert result.g.is_zero()


def test_integration_lemma_logarithmic_by_construction():
    omega = parse_form("(y*z)*dx + (2*x*z)*dy + (5*x*y)*dz", VARS)
    result = integration_lemma_decompose(omega, [X, Y, Z], [1, 1, 1])
    assert result.residual_ok
    assert result.lambdas == (Fraction(1), Fraction(2), Fraction(5))
    assert result.g.is_zero()


def test_integration_lemma_left_inverse_of_realize():
    rng = Random(59)
    for _ in range(15):
        spec = random_logarithmic_spec(rng, 3, s=3, max_degree=2)
        factors = spec.factors
        # need a reduced, pairwise non-proportional divisor for uniqueness
        try:
            result = integration_lemma_decompose(realize(spec), list(factors), [1, 1, 1])
        except ValueError:
            continue  # random factors happened to be proportional
        assert result.residual_ok
        assert result.lambdas == spec.eigenvalues
        assert result.g.is_zero()


def test_integration_lemma_with_multiplicity():
    # omega = (x^2*y) * d(g/x) for g = y*z: expect lambda = 0 and g recovered
    g = Y * Z
    f = X * Y
    omega = ext_d(g) * f - ext_d(X) * (g * Y)
    result = integration_lemma_decompose(omega, [X, Y], [2, 1])
    assert result.residual_ok
    assert result.lambdas == (Fraction(0), Fraction(0))
    assert result.g == g


def test_integration_lemma_rejects_non_integrating_factor():
    omega = parse_form("x*dy - 2*y*dx", VARS)
    with pytest.raises(ValueError):
        integration_lemma_decompose(omega, [X, Z], [1, 1])


def test_integration_lemma_rejects_proportional_factors():
    omega = parse_form("x*dy - y*dx", VARS)
    with pytest.raises(ValueError):
        integration_lemma_decompose(omega, [X, X * 2], [1, 1])


def test_integration_lemma_inconsistent_reported():
    # omega/(xyz) = 2 dx/x + 3 dy/y + 5 dz/z cannot be written over the
    # reducible factor xy: the x and y residues differ
    omega = parse_form("(2*y*z)*dx + (3*x*z)*dy + (5*x*y)*dz", VARS)
    result = integration_lemma_decompose(omega, [X * Y, Z], [1, 1])
    assert not result.residual_ok
    assert result.lambdas is None and result.g is None
