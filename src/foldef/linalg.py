"""Exact linear algebra over Q and Q(i).

Vectors are tuples of scalars.  Elimination is one incremental sparse
Gauss-Jordan pass: rows are held as dicts ``{col: scalar}`` of their nonzero
entries, each incoming row is reduced by the pivot rows found so far, and a
new pivot row is scaled to a leading 1 and cleared from the earlier pivot
rows, so the pivot rows stay in reduced row echelon form throughout.  The
operator matrices are mostly zeros, so the work follows the nonzeros rather
than the cells.  The reduced row echelon form, with leading entries 1, is the
canonical representation used for all subspace comparisons.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import compress
from typing import Sequence

from .scalars import Scalar, as_scalar

Vector = tuple[Scalar, ...]


def rref(rows: Sequence[Sequence[Scalar]]) -> tuple[tuple[Vector, ...], tuple[int, ...]]:
    """Canonical reduced row echelon form (zero rows dropped) and pivot columns."""
    ncols = len(rows[0]) if rows else 0
    pivot_rows: dict[int, dict[int, Scalar]] = {}  # pivot column -> reduced row
    # column -> pivot columns whose reduced row is nonzero in that column
    users: defaultdict[int, set[int]] = defaultdict(set)
    for dense in rows:
        # compress skips the zero cells without a Python-level loop over them
        row = {c: as_scalar(dense[c]) for c in compress(range(ncols), dense)}
        for p in row.keys() & pivot_rows.keys():
            factor = row[p]
            for c, v in pivot_rows[p].items():
                value = row.get(c, 0) - factor * v
                if value:
                    row[c] = value
                else:
                    del row[c]
        if not row:
            continue
        lead = min(row)
        scale = row[lead]
        row = {c: v / scale for c, v in row.items()}
        for p in tuple(users[lead]):
            earlier = pivot_rows[p]
            factor = earlier[lead]
            for c, v in row.items():
                value = earlier.get(c, 0) - factor * v
                if value:
                    if c not in earlier:
                        users[c].add(p)
                    earlier[c] = value
                else:
                    del earlier[c]
                    users[c].discard(p)
        pivot_rows[lead] = row
        for c in row:
            users[c].add(lead)
    zero = Fraction(0)
    reduced = []
    for p in sorted(pivot_rows):
        out = [zero] * ncols
        for c, v in pivot_rows[p].items():
            out[c] = v
        reduced.append(tuple(out))
    return tuple(reduced), tuple(sorted(pivot_rows))


def rank(rows: Sequence[Sequence[Scalar]]) -> int:
    return len(rref(rows)[1])


def nullspace(rows: Sequence[Sequence[Scalar]], ncols: int) -> tuple[Vector, ...]:
    """Canonical (echelonized) basis of {v : M v = 0}."""
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis: list[list[Scalar]] = []
    for f in free_cols:
        v: list[Scalar] = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for k, c in enumerate(pivots):
            if reduced[k][f]:
                v[c] = -reduced[k][f]
        basis.append(v)
    canonical, _ = rref(basis)
    return canonical


def reduce_against(reduced: Sequence[Vector], pivots: Sequence[int], vector: Sequence[Scalar]) -> Vector:
    """Remainder of a vector after reduction by an RREF basis."""
    v = list(vector)
    for k, c in enumerate(pivots):
        factor = v[c]
        if not factor:
            continue
        row = reduced[k]
        v = [a - factor * b for a, b in zip(v, row)]
    return tuple(v)


def in_row_space(reduced: Sequence[Vector], pivots: Sequence[int], vector: Sequence[Scalar]) -> bool:
    return not any(reduce_against(reduced, pivots, vector))


def solve(rows: Sequence[Sequence[Scalar]], rhs: Sequence[Scalar], ncols: int) -> Vector | None:
    """One exact solution of M x = rhs (free variables set to 0), or None."""
    if not rows:
        return (Fraction(0),) * ncols
    augmented = [list(row) + [b] for row, b in zip(rows, rhs)]
    reduced, pivots = rref(augmented)
    solution: list[Scalar] = [Fraction(0)] * ncols
    for k, c in enumerate(pivots):
        if c == ncols:
            return None
        solution[c] = reduced[k][ncols]
    return tuple(solution)


def line_complement(reduced: Sequence[Vector], line: Sequence[Scalar]) -> tuple[Vector, ...]:
    """Canonical basis of a complement of span(line) inside the row space.

    The line's leading coordinate is projected out of every basis row; the
    projected rows span the complement {v in space : v[pivot] = 0}, which maps
    one-to-one onto the quotient space modulo the line.
    """
    pivot = None
    for c, v in enumerate(line):
        if v:
            pivot = c
            break
    if pivot is None:
        raise ValueError("cannot quotient by the zero vector")
    unit = [v / line[pivot] for v in line]
    projected = []
    for row in reduced:
        factor = row[pivot]
        projected.append([a - factor * b for a, b in zip(row, unit)])
    canonical, _ = rref(projected)
    return canonical
