"""Exact linear algebra over the rationals.

One integer elimination, a forward pass then back-substitution, serves
every call.  A row comes as a dict {column: value}, the form
``polyring.coefficient_matrix`` builds, or as a dense list, and is read
once into a primitive integer sparse row {column: int}: its denominators
cleared, its content divided out.  A row operation clears a row's entry v
in a pivot column: the row becomes a*row - b*pivot_row, with a, b = p/g,
v/g (p the pivot, g = gcd(p, v)), made primitive again; it touches only
the pivot row's nonzero entries.  The forward pass takes the pivot columns
left to right and clears each only in the rows not yet chosen as pivot
rows, so pivot rows gather no fill; its pivot row is the candidate with
the fewest nonzeros, then the least |pivot|, then the lowest id.
Back-substitution clears each pivot column upward, last pivot first, and
each reduced row is signed to a positive pivot.  It is then the primitive
multiple of a row of the reduced echelon form, so the rows and pivots
depend on the column order alone and answers are read off them as
``Fraction``s.  ``rank`` runs the forward pass only.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Sequence

from .polyring import coefficient_value

Row = list[Fraction]
SparseRow = dict[int, int]
Holders = dict[int, set[int]]  # column -> ids of the rows with a nonzero entry there
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


def _clear(store: list[SparseRow], holders: Holders, k: int, c: int, prow: SparseRow) -> None:
    """Row k becomes a*row - b*prow, zero in column c, and primitive again;
    ``holders`` follows the entries it gains and loses."""
    row = store[k]
    p, v = prow[c], row[c]
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


def _forward(rows: Sequence[InRow]) -> tuple[list[SparseRow], Holders, list[tuple[int, int]]]:
    """The forward pass: (store, holders, steps).

    ``store`` holds the primitive rows by id; ``holders`` lets a step visit
    only the rows it changes.  steps lists (pivot column, pivot row id) in
    column order; every other row ends empty.
    """
    store = [r for r in map(_primitive, rows) if r]  # a zero row constrains nothing
    holders: Holders = {}
    for k, row in enumerate(store):
        for j in row:
            holders.setdefault(j, set()).add(k)
    placed = [False] * len(store)
    steps: list[tuple[int, int]] = []
    for c in sorted(holders):
        candidates = [k for k in holders[c] if not placed[k]]
        if candidates:
            best = min(candidates, key=lambda k: (len(store[k]), abs(store[k][c]), k))
            placed[best] = True
            for k in candidates:
                if k != best:
                    _clear(store, holders, k, c, store[best])
            steps.append((c, best))
    return store, holders, steps


def _reduce(rows: Sequence[InRow]) -> tuple[list[SparseRow], list[int]]:
    """Integer reduced sparse rows, one per pivot, each with a positive
    pivot, and their ascending pivot columns.  When back-substitution
    reaches a pivot, its row is already zero in every later pivot column."""
    store, holders, steps = _forward(rows)
    for c, best in reversed(steps):
        for k in list(holders[c]):
            if k != best:
                _clear(store, holders, k, c, store[best])
    return [
        {j: -x for j, x in store[k].items()} if store[k][c] < 0 else store[k] for c, k in steps
    ], [c for c, _ in steps]


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
    return len(_forward(rows)[2])


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


def same_span(a: Sequence[InRow], b: Sequence[InRow]) -> bool:
    """Do the two vector lists span the same subspace?"""
    return rank(a) == rank(b) == rank([*a, *b])


def det3(m: Sequence[Sequence[int]]) -> int:
    """Determinant of a 3x3 integer matrix (small helper for rank witnesses)."""
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
