"""Exact linear algebra over the rationals.

Fraction-free Gaussian elimination (Bareiss) on integer-scaled rows, with
partial pivoting on the magnitude of the integer pivot to control
coefficient growth.  Everything returns exact ``Fraction`` results; rows
are plain lists.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

Row = list[Fraction]


def _scaled_int_row(row: Sequence[Fraction | int]) -> list[int]:
    """Clear denominators and strip the content, keeping the sign."""
    fr = [Fraction(x) for x in row]
    lcm = 1
    for x in fr:
        if x:
            lcm = lcm * x.denominator // gcd(lcm, x.denominator)
    ints = [int(x * lcm) for x in fr]
    g = 0
    for v in ints:
        g = gcd(g, v)
    if g > 1:
        ints = [v // g for v in ints]
    return ints


def _echelon(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Bareiss fraction-free elimination; returns echelon rows and pivot columns."""
    if not rows:
        return [], []
    ncols = len(rows[0])
    m = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    prev = 1
    for c in range(ncols):
        # smallest nonzero |pivot| below the current row
        best = -1
        for i in range(r, len(m)):
            v = m[i][c]
            if v != 0 and (best < 0 or abs(v) < abs(m[best][c])):
                best = i
        if best < 0:
            continue
        m[r], m[best] = m[best], m[r]
        piv = m[r][c]
        for i in range(r + 1, len(m)):
            v = m[i][c]
            row_i = m[i]
            row_r = m[r]
            for j in range(c, ncols):
                row_i[j] = (piv * row_i[j] - v * row_r[j]) // prev
        pivots.append(c)
        prev = piv
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def rref(rows: Sequence[Sequence[Fraction | int]]) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form over Fraction, plus the pivot columns."""
    ints = [_scaled_int_row(r) for r in rows if any(Fraction(x) for x in r)]
    ech, pivots = _echelon(ints)
    ncols = len(rows[0]) if rows else 0
    reduced: list[Row] = [[Fraction(x) for x in row] for row in ech]
    for k in range(len(reduced) - 1, -1, -1):
        c = pivots[k]
        piv = reduced[k][c]
        reduced[k] = [x / piv for x in reduced[k]]
        for i in range(k):
            factor = reduced[i][c]
            if factor:
                reduced[i] = [
                    a - factor * b for a, b in zip(reduced[i], reduced[k])
                ]
    return reduced, pivots


def rank(rows: Sequence[Sequence[Fraction | int]]) -> int:
    if not rows:
        return 0
    ints = [_scaled_int_row(r) for r in rows if any(Fraction(x) for x in r)]
    _, pivots = _echelon(ints)
    return len(pivots)


def nullspace(rows: Sequence[Sequence[Fraction | int]], ncols: int) -> list[Row]:
    """Canonical basis of {x : Ax = 0}.

    One basis vector per free column, carrying 1 there; entries on pivot
    columns come from the RREF, so the basis is determined by the column
    order alone.
    """
    if not rows:
        return [
            [Fraction(1 if j == f else 0) for j in range(ncols)] for f in range(ncols)
        ]
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis: list[Row] = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for k, c in enumerate(pivots):
            vec[c] = -reduced[k][f]
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
        return None if any(Fraction(x) for x in rhs) else []
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    reduced, pivots = rref(aug)
    for k, c in enumerate(pivots):
        if c == ncols:
            return None  # pivot in the augmented column: inconsistent
    x = [Fraction(0)] * ncols
    for k, c in enumerate(pivots):
        x[c] = reduced[k][ncols]
    return x


def in_span(vectors: Sequence[Sequence[Fraction | int]], target: Sequence[Fraction | int]) -> bool:
    """Is the target a linear combination of the given vectors?"""
    if all(Fraction(x) == 0 for x in target):
        return True
    if not vectors:
        return False
    cols = list(vectors)
    rows = [[cols[j][i] for j in range(len(cols))] for i in range(len(target))]
    return solve(rows, list(target)) is not None


def same_span(
    a: Sequence[Sequence[Fraction | int]], b: Sequence[Sequence[Fraction | int]]
) -> bool:
    """Do the two vector lists span the same subspace?"""
    ra = rank(list(a))
    rb = rank(list(b))
    if ra != rb:
        return False
    return rank(list(a) + list(b)) == ra


def det3(m: Sequence[Sequence[int]]) -> int:
    """Determinant of a 3x3 integer matrix (small helper for rank witnesses)."""
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
