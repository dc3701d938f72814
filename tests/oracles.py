"""Independent brute-force linear algebra used to cross-check kernels.

Everything here is deliberately naive and separate from the library's
elimination pipeline: plain Gauss-Jordan over the field with first-nonzero
pivoting (no fraction-free steps, no canonical ordering shared with the
library), and a basis enumeration built from combinations_with_replacement
rather than the library's graded-lex generator.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement

from foldef.foliations import integrating_factor, realize
from foldef.forms import Form, contract, radial_field
from foldef.poly import Poly


def exponent_tuples(nvars: int, degree: int) -> list[tuple[int, ...]]:
    out = []
    seen = set()
    for combo in combinations_with_replacement(range(nvars), degree):
        exps = [0] * nvars
        for v in combo:
            exps[v] += 1
        t = tuple(exps)
        if t not in seen:
            seen.add(t)
            out.append(t)
    return out


def naive_rref(rows):
    """Gauss-Jordan with immediate normalization; returns (rows, pivot cols)."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pivot = m[r][c]
        m[r] = [v / pivot for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return [row for row in m if any(v != 0 for v in row)], pivots


def naive_rank(rows) -> int:
    return len(naive_rref(rows)[1])


def naive_nullspace(rows, ncols):
    reduced, pivots = naive_rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for k, c in enumerate(pivots):
            v[c] = -reduced[k][f]
        basis.append(v)
    return basis


def one_form_basis(n: int, total_degree: int):
    """Own coordinate order: monomial-major, then component index."""
    coords = []
    for mono in exponent_tuples(n, total_degree - 1):
        for i in range(n):
            coords.append((i, mono))
    return coords


def form_vector(form: Form, coords):
    return [form.component((i,)).coefficient(mono) for i, mono in coords]


def apply_matrix(apply_op, n: int, degree: int):
    """Rows of the operator matrix in this module's own coordinates."""
    coords = one_form_basis(n, degree)
    images = []
    out_keys = []
    seen = set()
    for i, mono in coords:
        image = apply_op(Form(n, 1, {(i,): Poly.monomial(n, mono)}))
        images.append(image)
        for key, poly in image.components.items():
            for out_mono in poly.terms:
                pair = (key, out_mono)
                if pair not in seen:
                    seen.add(pair)
                    out_keys.append(pair)
    out_keys.sort()
    matrix = []
    for key, out_mono in out_keys:
        matrix.append([img.component(key).coefficient(out_mono) for img in images])
    return matrix, coords


def brute_force_kernel(apply_op, n: int, degree: int, extra_rows=None):
    """Kernel forms of the operator, via naive elimination.

    ``extra_rows`` takes a callable mapping each basis coordinate (i, mono)
    into extra linear constraint rows (used for the descent condition).
    """
    matrix, coords = apply_matrix(apply_op, n, degree)
    if extra_rows is not None:
        matrix = matrix + extra_rows(coords)
    vectors = naive_nullspace(matrix, len(coords))
    forms = []
    for v in vectors:
        components = {}
        for (i, mono), value in zip(coords, v):
            if value != 0:
                components.setdefault((i,), {})[mono] = value
        forms.append(Form(n, 1, {k: Poly(n, t) for k, t in components.items()}))
    return forms


def spans_equal(forms_a, forms_b, n: int, total_degree: int) -> bool:
    """Span equality decided entirely by the naive elimination path."""
    coords = one_form_basis(n, total_degree)
    rows_a = [form_vector(f, coords) for f in forms_a]
    rows_b = [form_vector(f, coords) for f in forms_b]
    if not rows_a and not rows_b:
        return True
    rank_a = naive_rank(rows_a)
    rank_b = naive_rank(rows_b)
    return rank_a == rank_b == naive_rank(rows_a + rows_b)


def in_span(form: Form, forms, n: int, total_degree: int) -> bool:
    coords = one_form_basis(n, total_degree)
    rows = [form_vector(f, coords) for f in forms]
    return naive_rank(rows) == naive_rank(rows + [form_vector(form, coords)])


def reference_mu(spec):
    """mu as the scalar quotient i_R(omega) / F of the realized form."""
    n = spec.ambient_dim
    contracted = contract(radial_field(n), realize(spec)).component(())
    if contracted.is_zero():
        return Fraction(0)
    factor, _ = integrating_factor(spec)
    quotient = contracted.exact_div(factor)
    assert quotient is not None and quotient.homogeneous_degree() == 0
    return quotient.coefficient((0,) * n)
