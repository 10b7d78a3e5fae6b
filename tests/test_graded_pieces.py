"""Graded pieces built straight from exponents.

``WeightSystem.monomial_basis`` solves the bottom block of variables at its
leaf, and ``Derivation.image_rows`` builds the sparse rows of D on a list
of monomials in one pass.  Both are checked against the routes they
replace, kept in ``tests/util.py``: the walk that goes down to variable 0
(``ratio_walk_monomial_basis``) and ``coefficient_matrix`` of D applied to
one polynomial per monomial (``applied_coefficient_rows``).  Every
comparison is list equality, so content and order must both agree.
"""

import random
from itertools import product

import pytest

from plinth import derivation, polyring
from plinth.derivation import Derivation
from plinth.polyring import (
    MAX_EXPONENT,
    Monomial,
    PolyError,
    VariableSet,
    WeightSystem,
)
from plinth.roberts import RobertsAction
from plinth.sl2 import RepSum, build_raising_derivation
from util import (
    applied_beta,
    applied_coefficient_rows,
    cayley_sylvester,
    random_poly,
    ratio_walk_monomial_basis,
)

SL2_SPECS = ("V[4]+V[2]", "V[4]+V[4]", "V[3]+V[3]+V[0]", "V[0]+V[0]")


def _roberts_degrees(action: RobertsAction) -> list[tuple[int, ...]]:
    """The degree box up to 9 and the beta degrees up to n = 8."""
    box = list(product(range(10), repeat=3))
    return box + [action.beta_degree(i, n) for n in range(9) for i in (1, 2, 3)]


def _sl2_pieces(rep: RepSum, top: int = 5) -> list[tuple[int, int]]:
    """Every (degree, weight) piece up to degree ``top``, out-of-range torus
    weights included."""
    return [
        rep.piece(d, w)
        for d in range(top + 1)
        for w in range(-d * rep.max_weight - 2, d * rep.max_weight + 3)
    ]


def _random_systems(seed: int, count: int):
    """Seeded weight systems of rank 1 to 3: entries 0..3, so zero entries
    are common, and every third system of rank > 1 leaves one coordinate
    unreached.  Yields (weight system, its degree box)."""
    rng = random.Random(seed)
    box = {1: 13, 2: 8, 3: 5}
    for trial in range(count):
        rank = rng.randint(1, 3)
        n = rng.randint(2, 6)
        hole = rng.randrange(rank) if rank > 1 and trial % 3 == 0 else None
        weights = []
        while len(weights) < n:
            w = [0 if j == hole else rng.randint(0, 3) for j in range(rank)]
            if any(w):
                weights.append(w)
        ws = WeightSystem(VariableSet(tuple(f"v{i}" for i in range(n))), weights)
        degrees = list(product(range(box[rank]), repeat=rank))
        degrees += [tuple(-1 if j == k else 2 for j in range(rank)) for k in range(rank)]
        yield ws, degrees


def _det(m) -> int:
    """Determinant by expansion along the first row."""
    if len(m) == 1:
        return m[0][0]
    return sum(
        (-1) ** j * m[0][j] * _det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j in range(len(m))
    )


# -- monomial_basis against the walk down to variable 0 -----------------------


def test_leaf_plans():
    # Roberts: x1, x2, x3 carry the identity, so d = 1 and each row is one 1
    assert RobertsAction().weights._walk_plan()[4] == (1, (((0, 1),), ((1, 1),), ((2, 1),)))
    # sl2 V[n] first: the block is x0, x1 with weights (1, 2n), (1, 2n - 2),
    # det -2; V[0] + V[0] has the singular block (1, 0), (1, 0)
    d, rows = RepSum([4, 2]).weight_system()._walk_plan()[4]
    assert d == 2
    assert rows == (((0, -6), (1, 1)), ((0, 8), (1, -1)))
    assert RepSum.parse("V[0]+V[0]").weight_system()._walk_plan()[4] is None


def test_leaf_denominator_below_the_determinant():
    # M = 2I has det 4, but M^-1 = I / 2 has denominator 2
    R = VariableSet(("a", "b", "c"))
    ws = WeightSystem(R, [(2, 0), (0, 2), (1, 1)])
    assert ws._walk_plan()[4] == (2, (((0, 1),), ((1, 1),)))
    found = 0
    for degree in product(range(-1, 12), repeat=2):
        got = ws.monomial_basis(degree)
        assert got == ratio_walk_monomial_basis(ws, degree), degree
        found += len(got)
    assert found > 100


def test_monomial_basis_matches_ratio_walk_on_roberts_degrees():
    action = RobertsAction()
    ws = action.weights
    sizes = []
    for degree in _roberts_degrees(action):
        got = ws.monomial_basis(degree)
        assert got == ratio_walk_monomial_basis(ws, degree), degree
        sizes.append(len(got))
    assert max(sizes) == 629  # the beta degree (17, 16, 16)


@pytest.mark.parametrize("spec", SL2_SPECS)
def test_monomial_basis_matches_ratio_walk_on_sl2_pieces(spec):
    rep = RepSum.parse(spec)
    ws = rep.weight_system()
    found = 0
    for piece in _sl2_pieces(rep):
        got = ws.monomial_basis(piece)
        assert got == ratio_walk_monomial_basis(ws, piece), (spec, piece)
        found += len(got)
    assert found > 0


def test_monomial_basis_matches_ratio_walk_on_random_weights():
    kinds = set()
    for ws, degrees in _random_systems(1913, 80):
        leaf = ws._walk_plan()[4]
        if leaf is None:
            kinds.add("singular")
        else:
            det = abs(_det(ws.weights[: ws.rank]))
            assert det % leaf[0] == 0
            kinds.add("d = 1" if leaf[0] == 1 else "d < |det|" if leaf[0] < det else "d = |det|")
        for degree in degrees:
            assert ws.monomial_basis(degree) == ratio_walk_monomial_basis(ws, degree), (
                ws.weights,
                degree,
            )
    assert kinds == {"singular", "d = 1", "d < |det|", "d = |det|"}


def test_piece_cap_and_degree_limit_raise_where_the_ratio_walk_does(monkeypatch):
    # with the cap lowered to 40, a piece raises exactly when it has more
    # than 40 monomials, whichever walk enumerates it, with one message
    monkeypatch.setattr(polyring, "MAX_PIECE_MONOMIALS", 40)
    action = RobertsAction()
    cases = [(action.weights, d) for d in _roberts_degrees(action)]
    for spec in SL2_SPECS:
        rep = RepSum.parse(spec)
        cases += [(rep.weight_system(), piece) for piece in _sl2_pieces(rep)]
    for ws, degrees in _random_systems(77, 30):
        cases += [(ws, d) for d in degrees]
    raised = 0
    for ws, degree in cases:
        try:
            expected = ratio_walk_monomial_basis(ws, degree)
        except PolyError as exc:
            with pytest.raises(PolyError) as got:
                ws.monomial_basis(degree)
            assert str(got.value) == str(exc) == f"graded piece {degree}: over 40 monomials"
            raised += 1
        else:
            assert ws.monomial_basis(degree) == expected
    assert raised > 100
    for ws in (action.weights, RepSum([2]).weight_system()):
        degree = (MAX_EXPONENT + 1,) + (0,) * (ws.rank - 1)
        with pytest.raises(PolyError) as old:
            ratio_walk_monomial_basis(ws, degree)
        with pytest.raises(PolyError, match="above the limit 2\\^31 - 1") as new:
            ws.monomial_basis(degree)
        assert str(new.value) == str(old.value)


def test_graded_kernel_eliminates_at_most_the_column_cap(monkeypatch):
    # a piece of n monomials is solved under a cap of n and refused, with
    # one message and nothing cached, under a cap of n - 1
    rep = RepSum([6])
    D = build_raising_derivation(rep)
    ws = rep.weight_system()
    piece = rep.piece(6, 0)
    n = len(ws.monomial_basis(piece))
    monkeypatch.setattr(derivation, "MAX_KERNEL_COLUMNS", n - 1)
    with pytest.raises(PolyError) as exc:
        D.graded_kernel(ws, piece)
    assert str(exc.value) == (
        f"graded piece {piece}: {n} monomials, over the {n - 1} an elimination takes"
    )
    monkeypatch.setattr(derivation, "MAX_KERNEL_COLUMNS", n)
    assert len(D.graded_kernel(ws, piece)) == cayley_sylvester(rep, 6, 0) > 0


# -- image_rows against coefficient_matrix of D applied ----------------------


def test_image_rows_match_applied_rows_on_roberts_degrees():
    action = RobertsAction()
    D, ws = action.D, action.weights
    for degree in _roberts_degrees(action):
        mons = ws.monomial_basis(degree)
        assert D.image_rows(mons) == applied_coefficient_rows(D, mons), degree


def test_image_rows_match_applied_rows_on_the_beta_systems():
    # the beta systems: the unpinned columns ascending, and minus D of the
    # pinned part as the last column
    action = RobertsAction()
    z = action.ring.index("z")
    for n in range(9):
        for i in (1, 2, 3):
            targets = action._slice_targets(i, n)
            cols, last = [], {}
            for m in reversed(action.weights.monomial_basis(action.beta_degree(i, n))):
                t = m.exponent(z)
                if t in targets:
                    c = targets[t].coefficient(m.divide(Monomial(((z, t),))))
                    if c:
                        last[m] = -c
                else:
                    cols.append(m)
            got = action.D.image_rows(cols, last)
            assert got == applied_coefficient_rows(action.D, cols, last), (i, n)
            assert all(len(row) for row in got)


def test_beta_matches_the_applied_route():
    fresh, oracle = RobertsAction(), RobertsAction()
    for n in range(9):
        for i in (1, 2, 3):
            got = fresh._construct_beta(i, n)
            assert str(got) == str(applied_beta(oracle, i, n)), (i, n)


@pytest.mark.parametrize("spec", SL2_SPECS)
def test_image_rows_match_applied_rows_on_sl2_pieces(spec):
    rep = RepSum.parse(spec)
    D, ws = build_raising_derivation(rep), rep.weight_system()
    for piece in _sl2_pieces(rep, top=4):
        mons = ws.monomial_basis(piece)
        assert D.image_rows(mons) == applied_coefficient_rows(D, mons), (spec, piece)


def test_image_rows_match_applied_rows_for_random_derivations():
    # images with rational coefficients, and a last column from a random
    # term dict
    rng = random.Random(2718)
    for ws, degrees in _random_systems(31, 40):
        R = ws.ambient
        D = Derivation(R, {name: random_poly(rng, R, max_terms=3) for name in R.names})
        for degree in degrees[::3]:
            mons = ws.monomial_basis(degree)
            last = dict(random_poly(rng, R).terms())
            for rhs in (None, last):
                got = D.image_rows(mons, rhs)
                assert got == applied_coefficient_rows(D, mons, rhs), (ws.weights, degree)


def test_image_rows_drop_cancelled_entries_and_empty_rows():
    # D(a) = a, D(b) = -b: D(a*b) = 0, so its column is empty, and in the
    # last column D(a^2*b + a*b^2) = a^2*b - a*b^2 keeps two entries
    R = VariableSet(("a", "b"))
    D = Derivation(R, {"a": R.poly("a"), "b": R.poly("-b")})
    a, b = (Monomial(((i, 1),)) for i in range(2))
    mons = [a * b, a * a * b, a]
    last = {a * a * b: 1, a * b * b: 1, a * b: 5}
    got = D.image_rows(mons, last)
    assert got == applied_coefficient_rows(D, mons, last)
    assert got == [{3: -1}, {1: 1, 3: 1}, {2: 1}]
    assert D.image_rows([a * b]) == applied_coefficient_rows(D, [a * b]) == []


def test_image_rows_raise_the_applied_overflow_error():
    # D(y1) = x1^3 pushes x1^(2^31 - 1) past the limit
    action = RobertsAction()
    R, D = action.ring, action.D
    big = Monomial(((R.index("x1"), MAX_EXPONENT), (R.index("y1"), 1)))
    ok = Monomial(((R.index("y2"), 2),))
    for cols, last in (([ok, big], None), ([ok], {big: 3})):
        with pytest.raises(PolyError) as old:
            applied_coefficient_rows(D, cols, last)
        with pytest.raises(PolyError) as new:
            D.image_rows(cols, last)
        assert str(new.value) == str(old.value)
        assert "exponent above the limit 2^31 - 1" in str(new.value)
    with pytest.raises(PolyError, match="exponent above the limit"):
        D.kernel_on_monomials([big])
    # one below the limit is fine: x1^(2^31 - 4) * y1 maps to x1^(2^31 - 1)
    edge = Monomial(((R.index("x1"), MAX_EXPONENT - 3), (R.index("y1"), 1)))
    assert D.image_rows([edge]) == [{0: 1}]
