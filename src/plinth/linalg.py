"""Exact linear algebra over the rationals.

One integer Gauss-Jordan elimination serves every call.  Each row is
brought once to a primitive integer row: its denominators are cleared and
its content is divided out.  For each pivot column, taking the row with the
smallest nonzero |pivot|, every other row with a nonzero entry v there
becomes a*row - b*pivot_row with a, b = p/g, v/g (p the pivot, g = gcd(p, v))
and is made primitive again.  At the end every pivot column is zero outside
its pivot row, so answers are read off the integer rows as ``Fraction``s;
rows are plain lists.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .polyring import coefficient_value

Row = list[Fraction]


def _reduce(rows: Sequence[Sequence[Fraction | int]]) -> tuple[list[list[int]], list[int]]:
    """Integer reduced rows, one per pivot, and their ascending pivot columns."""
    m: list[list[int]] = []
    for row in rows:
        vals = [coefficient_value(x) for x in row]
        den = lcm(*(v.denominator for v in vals if type(v) is not int))
        ints = [v.numerator * (den // v.denominator) for v in vals]
        g = gcd(*ints)
        if g:  # a zero row constrains nothing
            m.append([v // g for v in ints] if g > 1 else ints)
    pivots: list[int] = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        candidates = [i for i in range(r, len(m)) if m[i][c]]
        if not candidates:
            continue
        best = min(candidates, key=lambda i: abs(m[i][c]))
        m[r], m[best] = m[best], m[r]
        prow = m[r]
        p = prow[c]
        for i, row in enumerate(m):
            v = row[c]
            if v and i != r:
                g = gcd(p, v)
                a, b = p // g, v // g
                new = [a * x - b * y for x, y in zip(row, prow)]
                h = gcd(*new)
                m[i] = [x // h for x in new] if h > 1 else new
        pivots.append(c)
    return m[: len(pivots)], pivots


def rref(rows: Sequence[Sequence[Fraction | int]]) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form over Fraction, plus the pivot columns."""
    reduced, pivots = _reduce(rows)
    return [[Fraction(x, row[c]) for x in row] for row, c in zip(reduced, pivots)], pivots


def rank(rows: Sequence[Sequence[Fraction | int]]) -> int:
    """Dimension of the span of the rows."""
    return len(_reduce(rows)[1])


def nullspace(rows: Sequence[Sequence[Fraction | int]], ncols: int) -> list[Row]:
    """Canonical basis of {x : Ax = 0}.

    One basis vector per free column, carrying 1 there; entries on pivot
    columns come from the reduced rows, so the basis is determined by the
    column order alone.
    """
    reduced, pivots = _reduce(rows)
    pivot_set = set(pivots)
    basis: list[Row] = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for row, c in zip(reduced, pivots):
            if row[f]:
                vec[c] = Fraction(-row[f], row[c])
        basis.append(vec)
    return basis


def solve(
    rows: Sequence[Sequence[Fraction | int]], rhs: Sequence[Fraction | int]
) -> Row | None:
    """One exact solution of Ax = b with free variables set to 0, or None.

    The free columns are those that are linear combinations of the columns
    to their left, so the solution is the unique one that vanishes on them.
    """
    if not rows:
        return None if any(coefficient_value(x) for x in rhs) else []
    ncols = len(rows[0])
    reduced, pivots = _reduce([[*r, b] for r, b in zip(rows, rhs)])
    if pivots and pivots[-1] == ncols:
        return None  # pivot in the augmented column: inconsistent
    x = [Fraction(0)] * ncols
    for row, c in zip(reduced, pivots):
        x[c] = Fraction(row[ncols], row[c])
    return x


def in_span(vectors: Sequence[Sequence[Fraction | int]], target: Sequence[Fraction | int]) -> bool:
    """Is the target a linear combination of the given vectors?"""
    return rank([*vectors, target]) == rank(vectors)


def same_span(
    a: Sequence[Sequence[Fraction | int]], b: Sequence[Sequence[Fraction | int]]
) -> bool:
    """Do the two vector lists span the same subspace?"""
    return rank(a) == rank(b) == rank([*a, *b])


def det3(m: Sequence[Sequence[int]]) -> int:
    """Determinant of a 3x3 integer matrix (small helper for rank witnesses)."""
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
