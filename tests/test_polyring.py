import copy
import pickle
import random
import time
from fractions import Fraction
from itertools import product
from math import comb

import pytest

from plinth.polyring import (
    ANY_DEGREE,
    INHOMOGENEOUS,
    MONOMIAL_ONE,
    InfiniteGradedPieceError,
    Monomial,
    PolyError,
    Polynomial,
    VariableSet,
    WeightSystem,
    ZeroPolynomialError,
    coefficient_matrix,
    format_polynomial,
    numeral,
    parse_polynomial,
)
from plinth.roberts import RobertsAction, _degree_box
from plinth.sl2 import RepSum
from util import (
    PairsMonomial,
    brute_monomials,
    dense_coefficient_matrix,
    descent_parse_polynomial,
    fraction_add,
    fraction_evaluate,
    fraction_mul,
    fraction_scale,
    fraction_sub,
    fraction_sub_scaled,
    fraction_terms,
    is_canonical,
    is_canonical_value,
    lex_key,
    monomial_product,
    random_poly,
    sorted_walk_monomial_basis,
)

R7 = VariableSet(("x1", "x2", "x3", "y1", "y2", "y3", "z"))
W7 = WeightSystem(
    R7,
    ((1, 0, 0), (0, 1, 0), (0, 0, 1), (3, 0, 0), (0, 3, 0), (0, 0, 3), (2, 2, 2)),
)


def test_variable_set_validation():
    with pytest.raises(PolyError):
        VariableSet(())
    with pytest.raises(PolyError):
        VariableSet(("x", "x"))


def test_arith_difference_of_squares():
    f = R7.poly("x1 + y1")
    g = R7.poly("x1 - y1")
    assert f * g == R7.poly("x1^2 - y1^2")


def test_arith_absorbing_zero():
    f = random_poly(random.Random(1), R7)
    assert (f * R7.zero()).is_zero()


def test_arith_builds_u12():
    u12 = R7.poly("x1^3*y2") - R7.poly("x2^3*y1")
    assert len(u12) == 2
    assert u12 == R7.poly("x1^3*y2 - x2^3*y1")


def test_arith_rejects_foreign_ambient():
    other = VariableSet(("x1", "x2"))
    with pytest.raises(PolyError):
        R7.poly("x1") + other.poly("x1")


def test_leading_term_u12():
    u12 = R7.poly("x1^3*y2 - x2^3*y1")
    m, c = u12.leading_term()
    assert m == Monomial(((R7.index("x1"), 3), (R7.index("y2"), 1)))
    assert c == 1


def test_leading_term_beta11():
    b = R7.poly("x1*z - x2^2*x3^2*y1")
    m, c = b.leading_term()
    assert m == Monomial(((R7.index("x1"), 1), (R7.index("z"), 1)))


def test_leading_term_constant_and_zero():
    m, c = R7.poly("5").leading_term()
    assert m.is_one() and c == 5
    with pytest.raises(ZeroPolynomialError):
        R7.zero().leading_term()


def test_multidegree_examples():
    # oracle: per-monomial weight sums computed by hand
    # u12 = x1^3 y2 - x2^3 y1: 3*(1,0,0)+(0,3,0) = (3,3,0) = 3*(0,1,0)+(3,0,0)
    u12 = R7.poly("x1^3*y2 - x2^3*y1")
    assert W7.multidegree(u12) == (3, 3, 0)
    # beta11 = x1 z - x2^2 x3^2 y1: (1,0,0)+(2,2,2) = (0,2,2)+(3,0,0) = (3,2,2)
    b = R7.poly("x1*z - x2^2*x3^2*y1")
    assert W7.multidegree(b) == (3, 2, 2)
    assert W7.multidegree(R7.poly("x1 + y1")) == INHOMOGENEOUS
    assert W7.multidegree(R7.zero()) == ANY_DEGREE


def test_multidegree_additive_under_multiplication():
    rng = random.Random(7)
    hits = 0
    while hits < 20:
        f = random_poly(rng, R7, max_terms=2)
        g = random_poly(rng, R7, max_terms=2)
        df, dg = W7.multidegree(f), W7.multidegree(g)
        if df in (ANY_DEGREE, INHOMOGENEOUS) or dg in (ANY_DEGREE, INHOMOGENEOUS):
            continue
        hits += 1
        assert W7.multidegree(f * g) == tuple(a + b for a, b in zip(df, dg))


def test_monomial_basis_322_xy():
    xy = ("x1", "x2", "x3", "y1", "y2", "y3")
    z = R7.index("z")
    basis = [m for m in W7.monomial_basis((3, 2, 2)) if not m.exponent(z)]
    expected = brute_monomials(
        list(W7.weights), (3, 2, 2), [R7.index(n) for n in xy]
    )
    assert {m.pairs for m in basis} == expected
    as_polys = {str(Polynomial(R7, {m: Fraction(1)})) for m in basis}
    assert as_polys == {"x3^2*x2^2*x1^3", "y1*x3^2*x2^2"}


def test_monomial_basis_322_full():
    basis = W7.monomial_basis((3, 2, 2))
    expected = brute_monomials(list(W7.weights), (3, 2, 2), list(range(7)))
    assert {m.pairs for m in basis} == expected
    assert len(basis) == 3  # x1 z, x1^3 x2^2 x3^2, x2^2 x3^2 y1


def test_monomial_basis_zero_degree():
    assert W7.monomial_basis((0, 0, 0)) == [Monomial(())]


def test_monomial_basis_completeness_by_rejection():
    rng = random.Random(11)
    basis = {m.pairs for m in W7.monomial_basis((6, 6, 6))}
    for _ in range(200):
        pairs = []
        for i in range(7):
            if rng.random() < 0.6:
                pairs.append((i, rng.randint(1, 3)))
        m = Monomial(pairs)
        if W7.monomial_degree(m) == (6, 6, 6):
            assert m.pairs in basis


def test_monomial_basis_matches_sorted_walk_oracle():
    # list equality: the walk must produce the content and the order itself
    for degree in _degree_box(6):
        assert W7.monomial_basis(degree) == sorted_walk_monomial_basis(W7, degree)
    rep = RepSum([4, 2])
    ws = rep.weight_system()
    sizes = []
    for d in range(7):
        for w in range(-4 * d, 4 * d + 1):
            got = ws.monomial_basis(rep.piece(d, w))
            assert got == sorted_walk_monomial_basis(ws, rep.piece(d, w))
            sizes.append(len(got))
    assert max(sizes) > 10
    # the ratio windows prune the sl2 walks: every torus weight, out of
    # range ones included, on sums with equal, mixed-parity and tiny summands
    for spec in ("V[4]+V[4]", "V[3]+V[5]+V[2]", "V[1]+V[1]+V[1]"):
        rep = RepSum.parse(spec)
        ws = rep.weight_system()
        found = 0
        for d in range(5):
            span = d * rep.max_weight
            for w in range(-span - 2, span + 3):
                got = ws.monomial_basis(rep.piece(d, w))
                assert got == sorted_walk_monomial_basis(ws, rep.piece(d, w)), (spec, d, w)
                found += len(got)
        # every monomial of degree <= 4 falls in exactly one piece
        assert found == comb(len(rep.ambient) + 4, 4)


def test_ratio_windows_are_built_once_and_skip_what_the_walk_implies():
    roberts = RobertsAction().weights
    plan = roberts._walk_plan()
    assert roberts._walk_plan() is plan
    # x1, x2, x3 close the three coordinates: no window is left to check
    assert all(level == () for level in plan[2])
    # sl2: only (degree, torus) pairs, so no reciprocal (torus, degree) pair,
    # and no window on variable 0
    _, _, windows, _, _ = RepSum([4, 2]).weight_system()._walk_plan()
    assert windows[0] == ()
    assert all(j == 0 and k == 1 for level in windows for j, k, *_ in level)
    assert all(level for level in windows[1:])


def _random_weights(rng, rank, n, hole):
    """n nonzero weight vectors with entries 0..3, all 0 on coordinate ``hole``
    (None for no such coordinate); the last variable with positive weight
    on one coordinate has weight 2 or 3 there.
    """
    weights = []
    while len(weights) < n:
        w = [0 if j == hole else rng.randint(0, 3) for j in range(rank)]
        if any(w):
            weights.append(w)
    j = rng.choice([j for j in range(rank) if any(w[j] for w in weights)])
    last = min(i for i, w in enumerate(weights) if w[j])
    weights[last][j] = rng.choice((2, 3))
    return weights


def test_monomial_basis_matches_sorted_walk_oracle_on_random_weights():
    rng = random.Random(4242)
    box = {1: 13, 2: 8, 3: 5}
    sizes = []
    for trial in range(60):
        rank = rng.randint(1, 3)
        n = rng.randint(2, 6)
        hole = rng.randrange(rank) if rank > 1 and trial % 3 == 0 else None
        weights = _random_weights(rng, rank, n, hole)
        ws = WeightSystem(VariableSet(tuple(f"v{i}" for i in range(n))), weights)
        degrees = list(product(range(box[rank]), repeat=rank))
        degrees += [tuple(-1 if j == k else 2 for j in range(rank)) for k in range(rank)]
        for degree in degrees:
            got = ws.monomial_basis(degree)
            assert got == sorted_walk_monomial_basis(ws, degree)
            if min(degree) < 0 or (hole is not None and degree[hole]):
                assert got == []
            sizes.append(len(got))
        assert ws.monomial_basis((0,) * rank) == [Monomial(())]
        with pytest.raises(PolyError):
            ws.monomial_basis((0,) * (rank + 1))
    assert max(sizes) > 10 and sizes.count(0) > len(sizes) // 4


def test_monomial_basis_large_roberts_piece_is_output_sensitive():
    # legal input never takes pathological time: searching every exponent
    # of x1, x2, x3 instead of solving for it takes tens of seconds here
    ws = RobertsAction().weights
    start = time.perf_counter()
    basis = ws.monomial_basis((30, 30, 31))
    elapsed = time.perf_counter() - start
    assert len(basis) == len(set(basis)) == 5746
    assert all(ws.monomial_degree(m) == (30, 30, 31) for m in basis)
    assert all(a > b for a, b in zip(basis, basis[1:]))
    assert elapsed < 3.0


def test_monomial_basis_singular_block_is_output_sensitive():
    # a and b share one weight, so no leaf solve applies and the walk goes
    # down to a.  c alone has weight on the second coordinate and a is the
    # last variable with weight on the first, so both exponents are solved
    # from the remainder and only b's is searched; searching c's as well
    # would multiply the walk by the degree.
    ws = WeightSystem(VariableSet(("a", "b", "c")), ((1, 0), (1, 0), (0, 1)))
    start = time.perf_counter()
    basis = ws.monomial_basis((2000, 2000))
    elapsed = time.perf_counter() - start
    assert len(basis) == 2001
    assert all(ws.monomial_degree(m) == (2000, 2000) for m in basis)
    assert all(a > b for a, b in zip(basis, basis[1:]))
    assert elapsed < 1.0


def test_monomial_basis_infinite_piece_rejected():
    mixed = WeightSystem(VariableSet(("a", "b")), ((1, -1), (0, 1)))
    with pytest.raises(InfiniteGradedPieceError):
        mixed.monomial_basis((1, 0))
    degenerate = WeightSystem(VariableSet(("a", "b")), ((1, 0), (0, 0)))
    with pytest.raises(InfiniteGradedPieceError):
        degenerate.monomial_basis((1, 0))


def test_evaluate_u12_at_point():
    u12 = R7.poly("x1^3*y2 - x2^3*y1")
    point = {"x1": 1, "x2": 1, "x3": 1, "y1": 0, "y2": 0, "y3": 0, "z": 0}
    assert u12.evaluate(point) == 0
    with pytest.raises(PolyError):
        u12.evaluate({"x1": 1})


def test_evaluate_takes_int_and_fraction_values_only():
    f = R7.poly("1/2*x1^2*z - 3*y1 + 2/3")
    point = {"x1": 2, "x2": 0, "x3": 0, "y1": Fraction(1, 3), "y2": 0, "y3": 0, "z": -1}
    assert f.evaluate(point) == Fraction(-2 - 1) + Fraction(2, 3)
    assert type(f.evaluate(point)) is Fraction
    for bad in (0.5, "1/3", None):
        with pytest.raises(PolyError, match="'y1'"):
            f.evaluate(dict(point, y1=bad))
    with pytest.raises(PolyError, match="'z'"):
        f.evaluate({k: v for k, v in point.items() if k != "z"})
    # every variable needs a value, also one the polynomial does not use
    with pytest.raises(PolyError, match="'y3'"):
        R7.one().evaluate({k: v for k, v in point.items() if k != "y3"})


def _random_point(rng: random.Random, ambient: VariableSet) -> dict:
    point = {}
    for name in ambient.names:
        kind = rng.randrange(4)
        if kind == 0:
            point[name] = 0
        elif kind == 1:
            point[name] = rng.randint(-5, 5)
        elif kind == 2:
            point[name] = Fraction(rng.randint(-5, 5))
        else:
            point[name] = Fraction(rng.randint(-9, 9), rng.randint(2, 7))
    return point


def test_evaluate_matches_fraction_oracle():
    rng = random.Random(4242)
    A2 = VariableSet(("a", "b"))
    polys = [
        R7.zero(),
        R7.one(),
        R7.constant(Fraction(-5, 3)),
        R7.poly("x1^4 - 1/6*x2 + 5/4"),
        A2.constant(7),
        A2.poly("a^3*b - 2/5*a + 3/7"),
    ]
    for _ in range(300):
        ambient = R7 if rng.random() < 0.7 else A2
        f = random_poly(rng, ambient, max_terms=6, max_exp=4, coef_range=9)
        polys.append(f.scale(Fraction(rng.randint(1, 5), rng.randint(1, 11))))
    for f in polys:
        for _ in range(4):  # repeated calls reuse the cached integral terms
            point = _random_point(rng, f.ambient)
            got = f.evaluate(point)
            assert is_canonical_value(got), (str(f), point, got)
            assert got == fraction_evaluate(f, point), (str(f), point)


def test_identity_substitution():
    rng = random.Random(2)
    images = {name: R7.variable(name) for name in R7.names}
    for _ in range(10):
        f = random_poly(rng, R7)
        assert f.substitute(images) == f


def test_ring_axioms_randomized():
    rng = random.Random(3)
    for _ in range(60):
        f = random_poly(rng, R7)
        g = random_poly(rng, R7)
        h = random_poly(rng, R7)
        assert (f + g) * h == f * h + g * h
        assert (f * g) * h == f * (g * h)
        assert f * g == g * f
        assert f + g == g + f
        assert f - f == R7.zero()


def test_leading_term_multiplicative():
    rng = random.Random(4)
    done = 0
    while done < 40:
        f = random_poly(rng, R7)
        g = random_poly(rng, R7)
        if f.is_zero() or g.is_zero():
            continue
        done += 1
        mf, cf = f.leading_term()
        mg, cg = g.leading_term()
        mfg, cfg = (f * g).leading_term()
        assert mfg == mf * mg
        assert cfg == cf * cg


def test_parse_format_round_trip():
    rng = random.Random(5)
    for _ in range(100):
        f = random_poly(rng, R7, max_terms=6)
        assert parse_polynomial(R7, format_polynomial(f)) == f


def test_parse_rationals_and_signs():
    f = R7.poly("-3/4*x1^2*y2 + z - 1/2")
    assert f.coefficient(Monomial(((R7.index("x1"), 2), (R7.index("y2"), 1)))) == Fraction(-3, 4)
    assert f.constant_term() == Fraction(-1, 2)
    assert str(R7.zero()) == "0"
    assert str(R7.poly("0")) == "0"
    assert str(-R7.variable("z")) == "-z"


# a variable set whose names juxtapose with digits and underscores
RX = VariableSet(("x", "y", "x1", "y_2"))
# the token alphabet, an unknown name, an exponent past the limit, a
# non-ASCII decimal digit, whitespace, a stray character and nothing
PARSE_PIECES = (
    "x", "y", "x1", "y_2", "q", "0", "1", "2", "12", "007", "\u0663", "2147483648",
    "+", "-", "*", "/", "^", " ", "\t", "$", "",
)


def _parse_text(rng: random.Random) -> str:
    """A seeded string: token soup, a grammatical polynomial with random
    spacing, or such a polynomial with one piece inserted or deleted."""
    kind = rng.random()
    if kind < 0.4:
        return "".join(rng.choice(PARSE_PIECES) for _ in range(rng.randint(0, 9)))

    def space() -> str:
        return rng.choice(("", "", " ", "  ", "\t"))

    def factor() -> str:
        if rng.random() < 0.4:
            text = str(rng.randint(0, 30))
            if rng.random() < 0.4:
                text += f"{space()}/{space()}{rng.randint(0, 9)}"
            return text
        text = rng.choice(RX.names)
        if rng.random() < 0.5:
            text += f"{space()}^{space()}{rng.randint(0, 5)}"
        return text

    text = space() + rng.choice(("", "", "-", "+"))
    for k in range(rng.randint(1, 4)):
        if k:
            text += space() + rng.choice("+-") + space()
        text += f"{space()}*{space()}".join(factor() for _ in range(rng.randint(1, 3)))
    text += space()
    if kind > 0.8:
        i = rng.randint(0, len(text))
        if rng.random() < 0.5:
            return text[:i] + text[i + 1 :]
        return text[:i] + rng.choice(PARSE_PIECES) + text[i:]
    return text


def _parse_outcome(parse, text: str) -> str | None:
    """The canonical text of the parse, or None for a one-line PolyError."""
    try:
        return str(parse(RX, text))
    except PolyError as err:
        assert "\n" not in str(err), text
        return None


def test_regex_scan_matches_the_descent_parser_on_seeded_strings():
    rng = random.Random(2025)
    accepted = 0
    for _ in range(100_000):
        text = _parse_text(rng)
        got = _parse_outcome(parse_polynomial, text)
        assert got == _parse_outcome(descent_parse_polynomial, text), text
        accepted += got is not None
    # both outcomes are well represented
    assert 30_000 < accepted < 70_000


def test_parser_rejects_malformed_text():
    for text in ("2x", "x 1", "x^2^3", "x/2", "--x", "x +", "3/0", "x^-1", "", "  "):
        for parse in (parse_polynomial, descent_parse_polynomial):
            with pytest.raises(PolyError) as err:
                parse(RX, text)
            assert "\n" not in str(err.value), text
    assert str(RX.poly(" - 2 / 4 * x ^ 2 * y_2 + x1 ")) == "-1/2*y_2*x^2 + x1"


def test_numeral_past_the_int_digit_limit_parses_exactly():
    # 5,000 digits is past Python's default int-string limit of 4,300
    digits = "1" * 5000
    ones = (10**5000 - 1) // 9
    assert RX.poly(digits).constant_term() == ones
    assert RX.poly(f" - 2/{digits}").constant_term() == Fraction(-2, ones)
    assert str(RX.poly(f"{digits}*x")) == f"{digits}*x"
    # (10^4000 - 1)^2 = 10^8000 - 2*10^4000 + 1, written out digit by digit
    square = RX.poly("9" * 4000 + "*x") ** 2
    assert str(square) == "9" * 3999 + "8" + "0" * 3999 + "1*x^2"
    assert str(-square.scale(Fraction(1, 10**4500))).startswith("-" + "9" * 3999 + "8")
    # so long an exponent is past the exponent limit: a one-line PolyError
    with pytest.raises(PolyError, match="above the limit") as err:
        RX.poly(f"x^{digits}")
    assert "\n" not in str(err.value)


def test_numeral_matches_str_under_the_int_digit_limit():
    rng = random.Random(4301)
    for _ in range(300):
        c = rng.randint(-(10**4200), 10**4200) // 10 ** rng.randint(0, 4200)
        for value in (c, Fraction(c), Fraction(c, rng.randint(1, 10**30))):
            assert numeral(value) == str(value)


def _long_text(rng: random.Random) -> str:
    """A sum of terms whose numerals run from 1 to 6,000 digits."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        numeral = str(rng.randint(1, 9)) + "".join(
            rng.choice("0123456789") for _ in range(rng.choice((0, 2, 3000, 4400, 6000)))
        )
        if rng.random() < 0.3:
            numeral += "/" + str(rng.randint(1, 9)) * rng.choice((1, 4500))
        monomial = "*".join(rng.sample(["x", "y^2", "x1", "y_2^3"], rng.randint(0, 2)))
        terms.append(f"{numeral}*{monomial}" if monomial else numeral)
    return rng.choice(("", "-")) + " + ".join(terms)


def test_text_round_trips_with_coefficients_past_the_int_digit_limit():
    rng = random.Random(4300)
    long_coefficients = 0
    for _ in range(60):
        f, g = RX.poly(_long_text(rng)), RX.poly(_long_text(rng))
        op = rng.choice("+-*^")
        h = f + g if op == "+" else f - g if op == "-" else f * g if op == "*" else f ** 2
        for p in (f, g, h):
            text = str(p)
            assert RX.poly(text) == p and str(RX.poly(text)) == text
        long_coefficients += any(
            abs(c) >= 10**4300 or c.denominator >= 10**4300 for _, c in h.terms()
        )
    assert long_coefficients >= 20


def test_format_orders_terms_descending():
    f = R7.poly("x1 + z + y2")
    assert str(f) == "z + y2 + x1"


def test_canonical_term_iteration_matches_key_order():
    rng = random.Random(6)
    for _ in range(20):
        f = random_poly(rng, R7, max_terms=8)
        keys = [lex_key(R7, m) for m, _ in f.terms()]
        assert keys == sorted(keys, reverse=True)


def test_monomial_order_matches_lex_oracle():
    rng = random.Random(11)

    def random_monomial() -> Monomial:
        return Monomial(
            (i, rng.randint(1, 3)) for i in range(len(R7)) if rng.random() < 0.4
        )

    pairs = []
    for _ in range(300):
        a = random_monomial()
        pairs.append((a, random_monomial()))  # usually different supports
        pairs.append((a, a * random_monomial()))  # a divides the other
        # same exponents on the top variables, the other side extended below
        top = [(i, e) for i, e in a.pairs if i >= 4]
        low = [(i, rng.randint(1, 3)) for i in range(4) if rng.random() < 0.5]
        pairs.append((Monomial(top), Monomial(top + low)))
    pairs.append((Monomial(()), Monomial(())))
    for a, b in pairs:
        ka, kb = lex_key(R7, a), lex_key(R7, b)
        for x, y, kx, ky in ((a, b, ka, kb), (b, a, kb, ka)):
            assert (x < y) == (kx < ky)
            assert (x > y) == (kx > ky)
            assert (x <= y) == (kx <= ky)
            assert (x >= y) == (kx >= ky)
            assert (x == y) == (kx == ky)

    for _ in range(40):
        f = random_poly(rng, R7, max_terms=8)
        if f:
            lm = f.leading_monomial()
            assert max(f.monomials()) == lm
            assert max(f.monomials(), key=lambda m: lex_key(R7, m)) == lm

    for degree in ((3, 2, 2), (4, 4, 4), (6, 3, 3)):
        keys = [lex_key(R7, m) for m in W7.monomial_basis(degree)]
        assert keys == sorted(keys, reverse=True)
        assert len(set(keys)) == len(keys)


def test_coefficient_matrix():
    assert coefficient_matrix([]) == []
    assert coefficient_matrix([R7.zero()]) == []
    f = R7.poly("3*z - x1^2 + 1/2*x2")
    g = R7.poly("x1^2 + 5")
    matrix = coefficient_matrix([f, R7.zero(), g])
    # rows descending: z > x2 > x1^2 > 1, each {column: coefficient}
    assert matrix == [{0: 3}, {0: Fraction(1, 2)}, {0: -1, 2: 1}, {2: 5}]
    # stored coefficients are kept, and a row holds no zero
    assert [[type(x) for x in row.values()] for row in matrix] == [
        [int],
        [Fraction],
        [int, int],
        [int],
    ]
    z = R7.index("z")
    assert coefficient_matrix([f, R7.zero(), g], lambda m: not m.exponent(z)) == matrix[1:]
    rng = random.Random(436)
    for _ in range(40):
        images = [random_poly(rng, R7) for _ in range(rng.randint(0, 5))]
        dense = dense_coefficient_matrix(images)
        sparse = coefficient_matrix(images)
        assert [[row.get(c, 0) for c in range(len(images))] for row in sparse] == dense

def test_lift_and_extend():
    ext = R7.extend(("s",))
    f = R7.poly("x1*z - x2^2*x3^2*y1")
    lifted = f.lift(ext)
    assert str(lifted) == str(f).replace(" ", " ")  # same text, bigger ambient
    assert lifted.ambient == ext


def test_monomial_division():
    m = Monomial(((0, 3), (4, 1)))
    d = Monomial(((0, 1),))
    assert d.divides(m)
    assert m.divide(d) == Monomial(((0, 2), (4, 1)))
    assert not Monomial(((1, 1),)).divides(m)
    with pytest.raises(PolyError):
        m.divide(Monomial(((1, 1),)))


def test_monomial_rejects_duplicate_index():
    with pytest.raises(PolyError):
        Monomial([(0, 1), (0, 2)])
    with pytest.raises(PolyError):
        Monomial([(2, 1), (0, 1), (2, 1)])
    # nor does it take a non-canonical pair: a fractional, float or string
    # exponent, a negative or non-int index, or an exponent past the limit
    for bad in (
        ((0, 1.5),),
        ((0, Fraction(2)),),
        ((0, "2"),),
        ((-1, 2),),
        (("a", 1),),
        ((1.0, 1),),
        ((0, -1),),
        ((3, 2**31),),
        ((0, 1), (5, 2**40)),
    ):
        with pytest.raises(PolyError) as err:
            Monomial(bad)
        assert "\n" not in str(err.value)
    assert Monomial([(3, 2**31 - 1)]).exponent(3) == 2**31 - 1
    # a zero exponent is dropped before the check, so it cannot collide
    assert Monomial([(0, 3), (0, 0)]) == Monomial([(0, 3)])
    assert Monomial([(0, 1)]) * Monomial([(0, 2)]) == Monomial([(0, 3)])


def test_constructor_rejects_keys_off_the_ambient():
    R = VariableSet(("x", "y"))
    assert str(Polynomial(R, {Monomial(((1, 2),)): 1})) == "y^2"
    off = (Monomial(((9, 1),)), Monomial(((2, 1),)), Monomial(((0, 1), (2, 1))))
    for key in off + (5, 0, (0, 1), "x"):
        with pytest.raises(PolyError, match="not a monomial over") as err:
            Polynomial(R, {key: 1})
        assert "\n" not in str(err.value)
    with pytest.raises(PolyError, match="variable outside"):
        R.poly("x").sub_scaled(1, R.poly("y"), Monomial(((2, 1),)))


def test_exponent_limit():
    top = 2**31 - 1
    R = VariableSet(("x", "y"))
    for text in ("x^4000000000", f"x^{top + 1}", f"y*x^{top}*x", f"x^{top} + y^{2**32}"):
        with pytest.raises(PolyError, match=r"limit 2\^31 - 1") as err:
            R.poly(text)
        assert "\n" not in str(err.value)
    big = R.poly(f"x^{top}")
    assert str(big) == f"x^{top}" and str(big * R.poly("y")) == f"y*x^{top}"
    assert str(R.poly(f"y^{top}*x^{top}")) == f"y^{top}*x^{top}"
    x1 = Monomial(((0, 1),))
    # never a silent carry into the next variable's field
    with pytest.raises(PolyError, match=r"limit 2\^31 - 1"):
        Monomial(((0, top),)) * x1
    assert (Monomial(((0, top - 1),)) * x1).pairs == ((0, top),)
    for f, g in ((big, R.poly("x")), (R.poly("x + y"), R.poly(f"3*x^{top} - y"))):
        with pytest.raises(PolyError, match=r"limit 2\^31 - 1"):
            f * g
    with pytest.raises(PolyError, match=r"limit 2\^31 - 1"):
        R.poly(f"x^{2**30}") ** 2
    with pytest.raises(PolyError, match=r"limit 2\^31 - 1"):
        R.poly("y").sub_scaled(1, R.poly("x + y"), Monomial(((0, top),)))
    assert str(R.zero().sub_scaled(-1, R.poly("y"), Monomial(((0, top),)))) == f"y*x^{top}"
    # the piece of degree (2^31, 0) would be the one monomial x^(2^31)
    xy = WeightSystem(R, [(1, 0), (0, 1)])
    with pytest.raises(PolyError, match=r"limit 2\^31 - 1"):
        xy.monomial_basis((2**31, 0))
    assert xy.monomial_basis((top, 1)) == [Monomial(((0, top), (1, 1)))]


def test_constructor_stores_canonical_coefficients():
    x1, z = Monomial(((0, 1),)), Monomial(((6, 1),))
    f = Polynomial(R7, {x1: Fraction(4, 2), z: Fraction(1, 2), MONOMIAL_ONE: Fraction(0)})
    assert f._terms == {x1: 2, z: Fraction(1, 2)}
    assert type(f._terms[x1]) is int
    assert is_canonical(f)
    assert is_canonical(Polynomial(R7, {x1: True, z: 0}))
    assert type(R7.constant(Fraction(-6, 3)).constant_term()) is int
    assert str(f) == "1/2*z + 2*x1"


def test_no_float_reaches_a_polynomial():
    m = Monomial(((0, 1),))
    f = R7.poly("x1 + 1/2*z")
    for bad in (0.5, 2.0, "1/2", None, complex(1, 0)):
        with pytest.raises(PolyError, match="not rational"):
            Polynomial(R7, {m: bad})
        with pytest.raises(PolyError, match="not rational"):
            f.scale(bad)
        with pytest.raises(PolyError, match="not rational"):
            R7.constant(bad)
        with pytest.raises(PolyError, match="not rational"):
            f.sub_scaled(bad, f)


def _mixed_pairs(rng: random.Random, count: int) -> list[tuple[Polynomial, Polynomial]]:
    """Seeded operand pairs with integral and non-integral coefficients,
    including pairs whose sums or differences cancel to zero or become
    integral again (1/2 + 1/2)."""
    pairs = []
    for _ in range(count):
        f = random_poly(rng, R7, max_terms=5, coef_range=6)
        kind = rng.randrange(5)
        if kind == 0:
            g = random_poly(rng, R7, max_terms=5, coef_range=6)
        elif kind == 1:
            g = -f + random_poly(rng, R7, max_terms=2)  # most terms cancel in f + g
        elif kind == 2:
            g = f  # f - g is zero
        elif kind == 3:
            # f + g integral again: each coefficient topped up to an integer
            g = Polynomial(
                R7, {m: Fraction(c).__ceil__() - c for m, c in fraction_terms(f).items()}
            )
        else:
            g = f.scale(Fraction(rng.randint(-4, 4), rng.randint(1, 4)))
        pairs.append((f, g))
    return pairs


def test_arithmetic_matches_fraction_oracle():
    rng = random.Random(606)
    scalars = [0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2), Fraction(6, 3), Fraction(2, 7)]
    for f, g in _mixed_pairs(rng, 250):
        F, G = fraction_terms(f), fraction_terms(g)
        c = rng.choice(scalars)
        shift = Monomial((i, rng.randint(1, 2)) for i in range(7) if rng.random() < 0.3)
        checks = [
            (f + g, fraction_add(F, G)),
            (f - g, fraction_sub(F, G)),
            (-f, fraction_scale(F, -1)),
            (f * g, fraction_mul(F, G)),
            (f.scale(c), fraction_scale(F, c)),
            (f.sub_scaled(c, g), fraction_sub_scaled(F, c, Monomial(()), G)),
            (f.sub_scaled(c, g, shift), fraction_sub_scaled(F, c, shift, G)),
        ]
        for got, want in checks:
            assert got._terms == want, (str(f), str(g), c, shift)
            assert is_canonical(got), got._terms
            assert str(got) == str(Polynomial(R7, want))
    # the special cases the pairs are built to reach
    half = R7.poly("1/2*x1 - 1/3")
    assert (half + half)._terms == {Monomial(((0, 1),)): 1, MONOMIAL_ONE: Fraction(-2, 3)}
    assert is_canonical(half + half) and type((half + half).coefficient(Monomial(((0, 1),)))) is int
    assert (half - half).is_zero() and half.sub_scaled(1, half).is_zero()
    assert half.sub_scaled(Fraction(1, 2), half.scale(2)).is_zero()


def test_monomial_product_and_quotient_match_constructor():
    rng = random.Random(17)
    for _ in range(300):
        a = Monomial((i, rng.randint(1, 4)) for i in range(7) if rng.random() < 0.5)
        b = Monomial((i, rng.randint(1, 4)) for i in range(7) if rng.random() < 0.5)
        ab = a * b
        assert ab.pairs == monomial_product(a, b).pairs and hash(ab) == hash(monomial_product(a, b))
        assert ab.divide(b) == a and ab.divide(a) == b
        assert ab.divide(ab).pairs == ()


def _differential_monomials(rng: random.Random) -> list[Monomial]:
    """Monomials over up to 10 variables: small exponents, exponents near
    the limit 2^31 - 1, and the monomial 1."""
    top = 2**31 - 1
    out = [Monomial(())]
    for _ in range(150):
        n = rng.randint(1, 10)
        exps = rng.choice(
            [
                lambda: rng.randint(1, 4),
                lambda: top - rng.randint(0, 3),
                lambda: rng.randint(2**30 - 2, 2**30 + 2),
            ]
        )
        out.append(Monomial((i, exps()) for i in range(n) if rng.random() < 0.6))
    return out


def test_packed_monomial_matches_pairs_oracle():
    top = 2**31 - 1
    rng = random.Random(2718)
    monos = _differential_monomials(rng)
    cases = [(rng.choice(monos), rng.choice(monos)) for _ in range(3000)]
    cases += [(a, a) for a in monos]
    # pairs where b divides a, the product taken by the oracle
    for b, c in cases[:600]:
        bc = PairsMonomial(b.pairs) * PairsMonomial(c.pairs)
        if all(e <= top for _, e in bc.pairs):
            cases.append((Monomial(bc.pairs), b))
    for a, b in cases:
        A, B = PairsMonomial(a.pairs), PairsMonomial(b.pairs)
        assert type(a) is Monomial and Monomial(A.pairs) == a
        assert repr(a) == repr(A) == str(a) and eval(repr(a)) == a
        assert a.degree() == A.degree() and a.is_one() == (A.pairs == ())
        assert all(a.exponent(i) == A.exponent(i) for i in range(12))
        AB = A * B
        if any(e > top for _, e in AB.pairs):
            with pytest.raises(PolyError, match=r"limit 2\^31 - 1"):
                a * b
        else:
            assert type(a * b) is Monomial and (a * b).pairs == AB.pairs
        assert b.divides(a) == B.divides(A)
        if B.divides(A):
            q = a.divide(b)
            assert type(q) is Monomial and q.pairs == A.divide(B).pairs
        else:
            with pytest.raises(PolyError, match="not divisible"):
                a.divide(b)
        assert (a < b, a > b, a <= b, a >= b, a == b, a != b) == (
            A < B, A > B, A <= B, A >= B, A == B, A != B
        )
        assert (hash(a) == hash(b)) >= (a == b)
        assert hash(Monomial(A.pairs)) == hash(a)
    assert len(set(monos)) == len({PairsMonomial(m.pairs) for m in monos})
    oracle_order = sorted(PairsMonomial(m.pairs) for m in monos)
    assert [m.pairs for m in sorted(monos)] == [A.pairs for A in oracle_order]
    for m in monos:
        assert pickle.loads(pickle.dumps(m)) == m and type(copy.deepcopy(m)) is Monomial


def test_every_term_key_is_a_monomial():
    def keys_ok(f: Polynomial) -> bool:
        return all(type(m) is Monomial for m in f._terms)

    rng = random.Random(314)
    ext = R7.extend(("s",))
    for f, g in _mixed_pairs(rng, 80):
        shift = Monomial((i, rng.randint(1, 2)) for i in range(7) if rng.random() < 0.3)
        results = (
            f + g,
            f - g,
            f * g,
            f**2,
            -f,
            f.scale(3),
            f.scale(Fraction(1, 2)),
            f.sub_scaled(2, g, shift),
            f.lift(ext),
            R7.poly(str(f)),
        )
        assert all(keys_ok(h) for h in results)
    assert all(type(m) is Monomial for m in W7.monomial_basis((4, 4, 4)))
    assert all(type(m) is Monomial for m in W7.monomial_basis((0, 0, 0)))


def test_accessors_agree_with_fraction_oracle():
    rng = random.Random(909)
    for f, g in _mixed_pairs(rng, 60):
        h = f * g - f
        F = fraction_terms(h)
        for m in list(F) + [MONOMIAL_ONE, Monomial(((6, 9),))]:
            c, want = h.coefficient(m), F.get(m, Fraction(0))
            assert c == want and hash(c) == hash(want) and str(c) == str(want)
        assert h.constant_term() == F.get(MONOMIAL_ONE, Fraction(0))
        assert str(h.constant_term()) == str(F.get(MONOMIAL_ONE, Fraction(0)))
        if F:
            lm = max(F)
            assert h.leading_term() == (lm, F[lm])
            assert str(h.leading_term()[1]) == str(F[lm])
        assert h.terms() == sorted(F.items(), reverse=True)
        assert hash(h) == hash(Polynomial(R7, F))
