import random
import time
from fractions import Fraction

import pytest

from plinth.polyring import Monomial, VariableSet
from plinth.roberts import roberts_action
from plinth.sagbi import (
    GeneratorSet,
    SubductionError,
    monomial_algebra_member,
    subduct,
    tete_a_tetes,
    tete_a_tete_difference,
    verify_sagbi,
    x_ideal_membership,
)
from util import (
    deepening_factorization,
    random_poly,
    fraction_mul,
    fraction_scale,
    fraction_sub,
    fraction_subduct,
    fraction_terms,
    is_canonical,
    lex_key,
)

RA = roberts_action()
R7 = RA.ring


def mono(**kw):
    return Monomial(tuple((R7.index(k), v) for k, v in kw.items()))


def assert_replays(cert, G, f):
    assert cert.replay(G) == f


def test_factorization_mixed_with_u():
    # x1^3 x3^3 y2 z^(n+m-1) factors as (x3 z^n)(x3 z^(m-1))(x3 z^0 ... )
    G = RA.catalog(3)
    n, m = 2, 3
    target = mono(x1=3, x3=2, y2=1, z=n + m - 1)
    got = monomial_algebra_member(target, G)
    assert got is not None
    prod = Monomial(())
    for name in got:
        prod = prod * G.lt[name][0]
    assert prod == target


def test_factorization_trivial_cases():
    G = RA.catalog(1)
    assert monomial_algebra_member(Monomial(()), G) == ()
    small = GeneratorSet(
        R7, [("m12", R7.poly("x1^3*y2")), ("b", R7.poly("x1*z"))]
    )
    assert monomial_algebra_member(mono(x2=1), small) is None


def test_factorization_prefers_fewest_factors():
    G = GeneratorSet(
        R7,
        [
            ("a", R7.poly("x1")),
            ("b", R7.poly("x1^2")),
        ],
    )
    # x1^2 can be a*a or b; fewest factors wins
    assert G.factorization(mono(x1=2)) == ("b",)
    # x1^3 must be a*b (2 factors) not a*a*a
    assert G.factorization(mono(x1=3)) == ("a", "b")


def fresh_copy(G):
    """The same generators in a new set, with an empty search memo."""
    return GeneratorSet(G.ambient, [(name, G.polys[name]) for name in G.names])


def lt_products(G, bound):
    """Every product of leading monomials of G up to total degree ``bound``."""
    lts = [G.lt[name][0] for name in G.names if not G.lt[name][0].is_one()]
    found = set()

    def walk(start, acc, budget):
        found.add(acc)
        for k in range(start, len(lts)):
            if lts[k].degree() <= budget:
                walk(k, acc * lts[k], budget - lts[k].degree())

    walk(0, Monomial(()), bound)
    return found


def test_factorization_matches_oracle_on_lt_products():
    for n in range(3):
        G = fresh_copy(RA.catalog(n))
        products = sorted(lt_products(G, 7), key=lambda m: m.pairs)
        assert len(products) > 50
        for m in products:
            assert G.factorization(m) == deepening_factorization(G, m), m


def random_monomial(rng, indices, max_exp):
    return Monomial(tuple((i, rng.randint(0, max_exp)) for i in indices))


def test_factorization_matches_oracle_on_random_monomials():
    tied = GeneratorSet(
        R7,
        [
            # a and b share a leading monomial, and products of the rest
            # reach many monomials with several least factorizations
            ("a", R7.poly("x1")),
            ("b", R7.poly("x1 + 1")),
            ("c", R7.poly("x1*x2")),
            ("d", R7.poly("x2")),
            ("e", R7.poly("x1^2*x2 - x1")),
            ("f", R7.poly("x1*x2^2")),
            ("g", R7.poly("x2^2*x3^2")),
            ("h", R7.poly("x3^3")),
        ],
    )
    rng = random.Random(20260)
    cases = ((fresh_copy(RA.catalog(1)), range(7), 2), (tied, range(3), 4))
    for G, indices, max_exp in cases:
        names = [name for name in G.names if not G.lt[name][0].is_one()]
        solvable = unsolvable = 0
        for _ in range(300):
            if rng.random() < 0.5:
                m = Monomial(())
                for name in rng.choices(names, k=rng.randint(1, 6)):
                    m = m * G.lt[name][0]
            else:
                m = random_monomial(rng, indices, max_exp)
            want = deepening_factorization(G, m)
            assert G.factorization(m) == want, m
            if want is None:
                unsolvable += 1
            else:
                solvable += 1
        assert solvable > 100 and unsolvable > 20


def test_factorization_deep_power_without_recursion():
    G = fresh_copy(RA.catalog(0))
    t0 = time.perf_counter()
    got = G.factorization(mono(x1=5000))
    assert time.perf_counter() - t0 < 1.0
    assert got == ("b1_0",) * 5000


def test_factorization_after_width_growth_matches_fresh_set():
    # x1^256 overflows an 8-bit exponent field; a carry out of x1's field
    # would make it read as x2, and the shared memo would then answer one
    # query from the other, so answers must match a fresh set in any order
    warm = fresh_copy(RA.catalog(1))
    small = [mono(x2=1), mono(x1=3, y2=1, z=2), mono(x1=2, x2=1, z=1), mono(y1=1)]
    before = [warm.factorization(m) for m in small]
    for big in (mono(x1=256), mono(x1=203, x2=4, y2=2, z=5)):
        got = warm.factorization(big)
        assert got is not None
        assert got == fresh_copy(RA.catalog(1)).factorization(big)
    assert [warm.factorization(m) for m in small] == before


def test_subduct_generator_single_step():
    G0 = RA.catalog(0)
    cert = subduct(RA.u12, G0)
    assert cert.ok and len(cert.steps) == 1
    assert cert.steps[0].factors == ("u12",)
    assert_replays(cert, G0, RA.u12)


def test_subduct_y1_leaves_remainder():
    G = RA.catalog(2)
    cert = subduct(R7.variable("y1"), G)
    assert cert.complete
    assert cert.remainder == R7.variable("y1")
    assert monomial_algebra_member(mono(y1=1), G) is None
    assert_replays(cert, G, R7.variable("y1"))


def test_subduct_tete_a_tete_difference_to_zero():
    G = RA.catalog(2)
    diff = RA.beta(1, 1) * RA.beta(2, 1) - RA.beta(1, 0) * RA.beta(2, 2)
    cert = subduct(diff, G)
    assert cert.ok
    assert_replays(cert, G, diff)


def test_subduct_budget_flags_incomplete():
    G = RA.catalog(1)
    f = RA.beta(1, 1) * RA.beta(2, 1) * RA.u12 + RA.u13 * RA.u23
    cert = subduct(f, G, max_steps=1)
    assert not cert.complete
    assert_replays(cert, G, f)


def test_subduction_strictly_decreases_leading_monomial():
    rng = random.Random(20)
    G = RA.catalog(2)
    key = lambda m: lex_key(R7, m)
    for _ in range(20):
        # random algebra combination
        f = R7.zero()
        for _ in range(rng.randint(1, 3)):
            names = [rng.choice(G.names) for _ in range(rng.randint(1, 3))]
            term = R7.constant(Fraction(rng.randint(-4, 4)))
            for nm in names:
                term = term * G.polys[nm]
            f = f + term
        cert = subduct(f, G)
        assert cert.ok  # algebra combinations of a verified basis reach 0
        assert_replays(cert, G, f)
        lts = []
        cur = f
        for step in cert.steps:
            lts.append(key(cur.leading_monomial()))
            piece = G.product(step.factors).scale(step.coefficient)
            cur = cur - piece
        assert lts == sorted(lts, reverse=True)
        assert len(set(lts)) == len(lts)


def test_tete_a_tetes_small():
    G = RA.catalog(1)
    tts = tete_a_tetes(G, 4)
    pairs = {(tt.left, tt.right) for tt in tts}
    assert (("b1_0", "b2_1"), ("b1_1", "b2_0")) in pairs
    for tt in tts:
        left = Monomial(())
        for nm in tt.left:
            left = left * G.lt[nm][0]
        right = Monomial(())
        for nm in tt.right:
            right = right * G.lt[nm][0]
        assert left == right == tt.product
        assert tt.left != tt.right


def test_tete_a_tetes_cubic_family_present():
    G = RA.catalog(1)
    tts = tete_a_tetes(G, 8)
    cubic = {
        (tt.left, tt.right)
        for tt in tts
        if len(tt.left) == 4 and ("u23" in tt.left or "u13" in tt.left)
    }
    assert (("b1_0", "b1_0", "b1_0", "u23"), ("b2_0", "b2_0", "b2_0", "u13")) in {
        (tuple(sorted(l)), tuple(sorted(r))) for l, r in cubic
    } | {(tuple(sorted(r)), tuple(sorted(l))) for l, r in cubic}


def test_tete_a_tetes_independent_leading_terms_empty():
    G = GeneratorSet(R7, [("x1", R7.variable("x1")), ("y1", R7.variable("y1"))])
    assert tete_a_tetes(G, 6) == []


def test_verify_sagbi_s0():
    rep = verify_sagbi(RA.catalog(0), 10)
    assert rep.ok


def test_verify_sagbi_s1_bound8():
    rep = verify_sagbi(RA.catalog(1), 8)
    assert rep.ok


def test_verify_sagbi_reports_failure_for_non_sagbi_set():
    # drop u12: the difference x2*b1_1 - x1*b2_1 = x3^2*u12 gets stuck
    gens = [("u13", RA.u13), ("u23", RA.u23)]
    for i in (1, 2, 3):
        for n in (0, 1):
            gens.append((RA.generator_name(i, n), RA.beta(i, n)))
    G = GeneratorSet(R7, gens)
    rep = verify_sagbi(G, 6)
    assert not rep.ok
    cert = subduct(R7.variable("x2") * RA.beta(1, 1) - R7.variable("x1") * RA.beta(2, 1), G)
    assert cert.remainder == R7.poly("x3^2") * RA.u12


def test_x_ideal_membership_beta_square():
    cert = RA.square_in_x_ideal(1, 1)
    assert cert.ok
    G = RA.catalog(2)
    square = RA.beta(1, 1) ** 2
    assert cert.replay(G) == square
    for step in cert.steps:
        assert step.prefix in ("x1", "x2", "x3")


def test_x_ideal_membership_u12_square_fails():
    G = RA.catalog(2)
    cert = x_ideal_membership(RA.u12 ** 2, G, ("x1", "x2", "x3"))
    assert not cert.ok
    assert cert.stuck is not None
    assert cert.stuck == mono(x1=6, y2=2)


def test_x_ideal_membership_single_step():
    G = RA.catalog(1)
    f = R7.variable("x1") * RA.u12
    cert = x_ideal_membership(f, G, ("x1", "x2", "x3"))
    assert cert.ok and len(cert.steps) == 1
    assert cert.steps[0].prefix == "x1"
    assert cert.steps[0].factors == ("u12",)
    assert_replays(cert, G, f)


def test_certificate_text_and_dict():
    G = RA.catalog(0)
    cert = subduct(RA.u12 * RA.u23, G)
    text = cert.to_text()
    assert "remainder 0" in text
    d = cert.to_dict()
    assert d["complete"] is True
    assert d["remainder"] == "0"


def test_generator_set_validation():
    with pytest.raises(SubductionError):
        GeneratorSet(R7, [("a", R7.zero())])
    with pytest.raises(SubductionError):
        GeneratorSet(R7, [("a", R7.poly("x1")), ("a", R7.poly("x2"))])


def test_invariants_of_bounded_z_degree_subduct_over_catalog():
    # consistency with the z-degree filtration: invariants with z-degree
    # <= N land in the span of S_N under subduction
    for N in (0, 1):
        G = RA.catalog(N)
        for degree in ((3, 3, 0), (3, 2, 2), (4, 4, 4), (3, 3, 3)):
            for f in RA.graded_invariants_z_capped(degree, N):
                cert = subduct(f, G)
                assert cert.ok, (N, degree, str(f))


# generators with integer leading coefficients 2 and 3, so every step
# coefficient and normalization divides an int by an int
XYZ = VariableSet(("x", "y", "z"))
INT_LC = GeneratorSet(
    XYZ,
    [("a", XYZ.poly("2*z + y")), ("b", XYZ.poly("3*z^2 + x")), ("c", XYZ.poly("x"))],
)


def _assert_matches_fraction_oracle(cert, f, G, prefixes=()):
    steps, remainder = fraction_subduct(f, G, prefixes)
    assert [(s.coefficient, s.factors, s.prefix) for s in cert.steps] == steps
    assert all(type(s.coefficient) is Fraction for s in cert.steps)
    assert cert.remainder._terms == remainder and is_canonical(cert.remainder)
    assert cert.complete
    assert cert.stuck == (max(remainder) if remainder else None)
    assert cert.replay(G) == f


def test_subduct_integer_leading_coefficients_matches_fraction_oracle():
    a, b, c = (INT_LC.polys[n] for n in "abc")
    inputs = (
        a * a * b + a.scale(5) - c * b,  # stops on z^3*y: no factorization
        b * b - a,  # an algebra member, subducts to zero
        XYZ.poly("z^2*x + z + y"),
        XYZ.poly("5*z^4 - z*x + 2"),
    )
    certs = [subduct(f, INT_LC) for f in inputs]
    for f, cert in zip(inputs, certs):
        _assert_matches_fraction_oracle(cert, f, INT_LC)
    assert certs[1].ok
    assert {str(s.coefficient) for s in certs[2].steps} >= {"1/3", "1/2"}


def test_x_ideal_membership_integer_leading_coefficients_matches_fraction_oracle():
    a, b, c = (INT_LC.polys[n] for n in "abc")
    x, y = XYZ.variable("x"), XYZ.variable("y")
    inputs = (
        x * a * b - x * c * a.scale(7),
        XYZ.poly("x*z + y*z^2"),
        XYZ.poly("y*z^2*x + 3*x^2*z + y*x"),
        XYZ.poly("z^2 + x*z"),  # stuck at once: no prefix divides z^2
    )
    certs = [x_ideal_membership(f, INT_LC, ("x", "y")) for f in inputs]
    for f, cert in zip(inputs, certs):
        _assert_matches_fraction_oracle(cert, f, INT_LC, ("x", "y"))
    assert certs[0].ok and certs[1].ok
    assert [str(s.coefficient) for s in certs[1].steps] == ["1/3", "1/2", "-5/6"]
    assert certs[3].stuck == Monomial(((2, 2),)) and not certs[3].steps


def test_tete_a_tete_difference_integer_leading_coefficients():
    (tt,) = [tt for tt in tete_a_tetes(INT_LC, 2) if tt.left == ("a", "a")]
    assert tt.right == ("b",)
    diff = tete_a_tete_difference(INT_LC, tt)
    a, b = (fraction_terms(INT_LC.polys[n]) for n in "ab")
    want = fraction_sub(
        fraction_scale(fraction_mul(a, a), Fraction(1, 4)),
        fraction_scale(b, Fraction(1, 3)),
    )
    assert diff._terms == want and is_canonical(diff)
    assert str(diff) == "z*y + 1/4*y^2 - 1/3*x"


X_PREFIXES = ("x1", "x2", "x3")


@pytest.mark.parametrize("N, bound", [(0, 10), (1, 6), (2, 6)])
def test_certificates_match_fraction_oracle_on_tete_a_tetes(N, bound):
    G = RA.catalog(N)
    xs = [R7.variable(x) for x in X_PREFIXES]
    diffs = [tete_a_tete_difference(G, tt) for tt in tete_a_tetes(G, bound)]
    assert len(diffs) >= 20
    for k, diff in enumerate(diffs):
        cert = subduct(diff, G)
        _assert_matches_fraction_oracle(cert, diff, G)
        assert cert.ok
        # two prefixes divide every leading monomial, so their order matters
        f = xs[k % 3] * xs[(k + 1) % 3] * diff
        cert = x_ideal_membership(f, G, X_PREFIXES)
        _assert_matches_fraction_oracle(cert, f, G, X_PREFIXES)


def test_certificates_match_fraction_oracle_on_seeded_polynomials():
    rng = random.Random(2718)
    G = RA.catalog(1)
    names = G.names
    stuck = prefixed = 0
    for trial in range(60):
        f = random_poly(rng, R7, max_terms=2, max_exp=2)
        for _ in range(rng.randint(1, 3)):
            factors = [rng.choice(names) for _ in range(rng.randint(1, 3))]
            f = f + G.product(factors).scale(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
        cert = subduct(f, G)
        _assert_matches_fraction_oracle(cert, f, G)
        stuck += cert.stuck is not None
        prefixes = tuple(rng.sample(X_PREFIXES, rng.randint(1, 3)))
        g = R7.variable(rng.choice(X_PREFIXES)) * f
        cert = x_ideal_membership(g, G, prefixes)
        _assert_matches_fraction_oracle(cert, g, G, prefixes)
        prefixed += len(cert.steps)
    assert stuck >= 10 and prefixed >= 40


def test_incomplete_certificates_record_no_stuck_monomial():
    G = RA.catalog(1)
    f = RA.beta(1, 1) * RA.beta(2, 1) + RA.u12
    cert = subduct(f, G, max_steps=1)
    assert not cert.complete and cert.stuck is None and len(cert.steps) == 1
    cert = x_ideal_membership(R7.variable("x1") * f, G, X_PREFIXES, max_steps=1)
    assert not cert.complete and cert.stuck is None and len(cert.steps) == 1


def test_failed_step_message_is_shared():
    # a generator set whose leading terms lie: g's stored leading term is
    # rewritten so that cancelling it cannot lower the leading monomial
    G = GeneratorSet(XYZ, [("g", XYZ.poly("x"))])
    G.polys["g"] = XYZ.poly("y")
    G._prod_cache.clear()
    for run in (
        lambda: subduct(XYZ.poly("x"), G),
        lambda: x_ideal_membership(XYZ.poly("x^2"), G, ("x",)),
    ):
        with pytest.raises(SubductionError, match="^subduction step failed to decrease"):
            run()
