"""Exact linear algebra over the rationals.

One integer Gauss-Jordan elimination serves every call.  A row comes as a
dict {column: value}, the form ``polyring.coefficient_matrix`` builds, or
as a dense list.  Each is read once into a sparse row, a dict {column: int}
of its nonzero entries, brought to a primitive integer row: its
denominators are cleared and its content is divided out.  For each pivot
column, left to right, taking the row with the smallest nonzero |pivot|,
every other row with a nonzero entry v there becomes a*row - b*pivot_row
with a, b = p/g, v/g (p the pivot, g = gcd(p, v)) and is made primitive
again; a row operation touches only the pivot row's nonzero entries.  At
the end every pivot column is zero outside its pivot row, so answers are
read off the integer rows as ``Fraction``s; they depend on the column
order alone.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Sequence

from .polyring import coefficient_value

Row = list[Fraction]
SparseRow = dict[int, int]
# an input row: {column: value} or a dense list
InRow = Mapping[int, Fraction | int] | Sequence[Fraction | int]


def _primitive(row: InRow) -> SparseRow:
    """The nonzero entries of a row, a dict {column: value} or a dense list,
    as a primitive integer sparse row."""
    vals = {}
    for j, x in row.items() if isinstance(row, dict) else enumerate(row):
        if type(x) is not int:
            x = coefficient_value(x)
        if x:
            vals[j] = x
    den = lcm(*(v.denominator for v in vals.values() if type(v) is not int))
    if den > 1:
        vals = {j: v.numerator * (den // v.denominator) for j, v in vals.items()}
    g = gcd(*vals.values())
    return {j: v // g for j, v in vals.items()} if g > 1 else vals


def _reduce(rows: Sequence[InRow]) -> tuple[list[SparseRow], list[int]]:
    """Integer reduced sparse rows, one per pivot, and their ascending pivot
    columns.

    ``order`` lists row ids by position; the pivot search takes the first
    row by position among those of least |pivot|, and the pivot row swaps
    positions with the row at the next pivot position.  ``holders`` maps
    each column to the ids of the rows with a nonzero entry there, so a
    pivot step visits only the rows it changes.
    """
    store = [r for r in map(_primitive, rows) if r]  # a zero row constrains nothing
    order = list(range(len(store)))
    pos = list(order)
    holders: dict[int, set[int]] = {}
    for k, row in enumerate(store):
        for j in row:
            holders.setdefault(j, set()).add(k)
    pivots: list[int] = []
    for c in sorted(holders):
        r = len(pivots)
        candidates = [k for k in holders[c] if pos[k] >= r]
        if not candidates:
            continue
        best = min(candidates, key=lambda k: (abs(store[k][c]), pos[k]))
        other = order[r]
        order[r], order[pos[best]] = best, other
        pos[best], pos[other] = r, pos[best]
        prow = store[best]
        p = prow[c]
        for k in list(holders[c]):
            if k == best:
                continue
            row = store[k]
            v = row[c]
            g = gcd(p, v)
            a, b = p // g, v // g
            new = {j: a * x for j, x in row.items()} if a != 1 else row
            for j, y in prow.items():
                x = new.get(j, 0) - b * y
                if x:
                    if j not in new:
                        holders[j].add(k)
                    new[j] = x
                else:
                    del new[j]
                    holders[j].discard(k)
            h = gcd(*new.values())
            store[k] = {j: x // h for j, x in new.items()} if h > 1 else new
        pivots.append(c)
    return [store[k] for k in order[: len(pivots)]], pivots


def rref(rows: Sequence[Sequence[Fraction | int]]) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form of dense rows over Fraction, plus the pivot
    columns."""
    reduced, pivots = _reduce(rows)
    ncols = len(rows[0]) if reduced else 0
    return [
        [Fraction(row.get(j, 0), row[c]) for j in range(ncols)]
        for row, c in zip(reduced, pivots)
    ], pivots


def rank(rows: Sequence[InRow]) -> int:
    """Dimension of the span of the rows."""
    return len(_reduce(rows)[1])


def nullspace(rows: Sequence[InRow], ncols: int) -> list[Row]:
    """Canonical basis of {x : Ax = 0}.

    One basis vector per free column, carrying 1 there; entries on pivot
    columns come from the reduced rows, so the basis is determined by the
    column order alone.
    """
    reduced, pivots = _reduce(rows)
    pivot_set = set(pivots)
    basis: dict[int, Row] = {}
    for f in range(ncols):
        if f not in pivot_set:
            basis[f] = [Fraction(0)] * ncols
            basis[f][f] = Fraction(1)
    for row, c in zip(reduced, pivots):
        p = row[c]
        for f, x in row.items():
            if f != c:  # every other pivot column is 0 in this row
                basis[f][c] = Fraction(-x, p)
    return list(basis.values())


def solve(rows: Sequence[InRow], ncols: int) -> Row | None:
    """One exact solution of Ax = b with free variables set to 0, or None.

    Each row is one augmented equation: the entries of A in the columns
    0 .. ncols - 1 and b in the column ``ncols``.  The free columns are
    those that are linear combinations of the columns to their left, so the
    solution is the unique one that vanishes on them.
    """
    reduced, pivots = _reduce(rows)
    if pivots and pivots[-1] == ncols:
        return None  # pivot in the augmented column: inconsistent
    x = [Fraction(0)] * ncols
    for row, c in zip(reduced, pivots):
        x[c] = Fraction(row.get(ncols, 0), row[c])
    return x


def in_span(vectors: Sequence[InRow], target: InRow) -> bool:
    """Is the target a linear combination of the given vectors?"""
    return rank([*vectors, target]) == rank(vectors)


def same_span(a: Sequence[InRow], b: Sequence[InRow]) -> bool:
    """Do the two vector lists span the same subspace?"""
    return rank(a) == rank(b) == rank([*a, *b])


def det3(m: Sequence[Sequence[int]]) -> int:
    """Determinant of a 3x3 integer matrix (small helper for rank witnesses)."""
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
