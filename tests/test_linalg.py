from fractions import Fraction
from random import Random

import pytest

from foldef import linalg
from foldef.scalars import make_scalar

from oracles import naive_nullspace, naive_rank, naive_rref


def _random_matrix(rng, rows, cols, gaussian=False):
    out = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            value = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            if gaussian and rng.random() < 0.3:
                value = make_scalar(value, rng.randint(-2, 2))
            row.append(value)
        out.append(row)
    return out


def test_rref_matches_naive_oracle():
    rng = Random(101)
    for _ in range(60):
        m = _random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        ours, pivots = linalg.rref(m)
        theirs, their_pivots = naive_rref(m)
        assert [list(r) for r in ours] == theirs
        assert list(pivots) == their_pivots


def test_rref_matches_naive_oracle_gaussian_entries():
    rng = Random(103)
    for _ in range(40):
        m = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), gaussian=True)
        ours, _ = linalg.rref(m)
        theirs, _ = naive_rref(m)
        assert [list(r) for r in ours] == theirs


def test_rref_idempotent_and_canonical():
    rng = Random(107)
    for _ in range(40):
        m = _random_matrix(rng, 4, 5)
        once, _ = linalg.rref(m)
        twice, _ = linalg.rref([list(r) for r in once])
        assert once == twice
        # scaling rows does not change the canonical form
        scaled = [[v * Fraction(3, 7) for v in row] for row in m]
        assert linalg.rref(scaled)[0] == once


def test_nullspace_vectors_annihilate():
    rng = Random(109)
    for _ in range(50):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = _random_matrix(rng, rows, cols)
        basis = linalg.nullspace(m, cols)
        for v in basis:
            for row in m:
                assert sum((a * b for a, b in zip(row, v)), Fraction(0)) == 0
        assert len(basis) == cols - linalg.rank(m)
        # span agreement with the naive path
        naive = naive_nullspace(m, cols)
        assert naive_rank(naive) == len(basis)
        assert naive_rank(naive + [list(v) for v in basis]) == len(basis)


def test_solve():
    m = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
    assert linalg.solve(m, [Fraction(5), Fraction(11)], 2) == (Fraction(1), Fraction(2))
    inconsistent = [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]]
    assert linalg.solve(inconsistent, [Fraction(1), Fraction(3)], 2) is None
    underdetermined = [[Fraction(1), Fraction(1)]]
    solution = linalg.solve(underdetermined, [Fraction(2)], 2)
    assert solution == (Fraction(2), Fraction(0))  # free variable pinned to 0


def test_line_complement():
    rows, _ = linalg.rref([[1, 0, 1], [0, 1, 1]])
    complement = linalg.line_complement(rows, (Fraction(1), Fraction(1), Fraction(2)))
    assert len(complement) == 1
    # every complement vector has a zero in the line's pivot coordinate
    assert complement[0][0] == 0
    with pytest.raises(ValueError):
        linalg.line_complement(rows, (Fraction(0), Fraction(0), Fraction(0)))


def test_in_row_space():
    rows, pivots = linalg.rref([[1, 2, 3], [0, 1, 1]])
    assert linalg.in_row_space(rows, pivots, (Fraction(1), Fraction(3), Fraction(4)))
    assert not linalg.in_row_space(rows, pivots, (Fraction(0), Fraction(0), Fraction(1)))


def test_rref_low_rank_stress():
    # larger matrices built from few independent rows force many swap /
    # dependent-row paths through the fraction-free elimination
    rng = Random(211)
    for _ in range(15):
        cols = rng.randint(6, 12)
        seeds = _random_matrix(rng, rng.randint(2, 4), cols)
        rows = []
        for _ in range(rng.randint(8, 14)):
            combo = [Fraction(0)] * cols
            for seed_row in seeds:
                c = Fraction(rng.randint(-3, 3))
                combo = [a + c * b for a, b in zip(combo, seed_row)]
            rows.append(combo)
        ours, _ = linalg.rref(rows)
        theirs, _ = naive_rref(rows)
        assert [list(r) for r in ours] == theirs
        assert len(ours) <= len(seeds)
        basis = linalg.nullspace(rows, cols)
        assert len(basis) == cols - len(ours)
        for v in basis:
            for row in rows:
                assert sum((a * b for a, b in zip(row, v)), Fraction(0)) == 0


def test_int_input_gives_fractions():
    outputs = [
        *linalg.rref([[2, 4], [1, 3]])[0],
        *linalg.rref([[2, 4]])[0],
        *linalg.nullspace([[1, 2, 3]], 3),
        linalg.solve([[2, 1], [1, 3]], [3, 4], 2),
    ]
    assert linalg.nullspace([[1, 2, 3]], 3) == (
        (Fraction(1), Fraction(0), Fraction(-1, 3)),
        (Fraction(0), Fraction(1), Fraction(-2, 3)),
    )
    assert all(type(v) is Fraction for row in outputs for v in row)


def _sparse_matrix(rng, gaussian):
    """20-60 rows x 20-60 cols at 3-15% density, with dependent and duplicated rows."""
    rows, cols = rng.randint(20, 60), rng.randint(20, 60)
    density = rng.uniform(0.03, 0.15)
    independent = []
    for _ in range(rows // 2):
        row = [Fraction(0)] * cols
        for c in range(cols):
            if rng.random() < density:
                row[c] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                if gaussian and rng.random() < 0.3:
                    row[c] = make_scalar(row[c], rng.randint(-3, 3))
        independent.append(row)
    m = [list(row) for row in independent]
    while len(m) < rows:
        if rng.random() < 0.5:
            m.append(list(rng.choice(independent)))
        else:
            a, b = rng.sample(independent, 2)
            s, t = Fraction(rng.randint(-3, 3), rng.randint(1, 2)), Fraction(rng.randint(-3, 3))
            m.append([s * x + t * y for x, y in zip(a, b)])
    rng.shuffle(m)
    return m, cols


@pytest.mark.parametrize("gaussian", [False, True])
def test_sparse_rref_matches_naive_oracle(gaussian):
    rng = Random(113 if gaussian else 127)
    for _ in range(5):
        m, cols = _sparse_matrix(rng, gaussian)
        ours, pivots = linalg.rref(m)
        theirs, their_pivots = naive_rref(m)
        assert [list(r) for r in ours] == theirs
        assert list(pivots) == their_pivots
        basis = linalg.nullspace(m, cols)
        assert len(basis) == cols - len(their_pivots)
        for v in basis:
            for row in m:
                assert sum((a * v[c] for c, a in enumerate(row) if a), Fraction(0)) == 0


def test_rref_degenerate_shapes():
    assert linalg.rref([]) == ((), ())
    assert linalg.rref([[0, 0, 0], [Fraction(0)] * 3]) == ((), ())
    assert linalg.nullspace([[0, 0]], 2) == ((1, 0), (0, 1))
    # all-zero rows and columns between nonzero ones
    m = [[0, 0, 3, 0, 6], [0, 0, 0, 0, 0], [0, 0, 1, 0, 2], [0, 0, 0, 0, 5]]
    ours, pivots = linalg.rref(m)
    theirs, their_pivots = naive_rref([[Fraction(v) for v in row] for row in m])
    assert [list(r) for r in ours] == theirs
    assert list(pivots) == their_pivots == [2, 4]
