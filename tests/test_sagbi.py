import random
import time
from fractions import Fraction

import pytest

import plinth.sagbi as sagbi_module
from plinth.polyring import MAX_EXPONENT, Monomial, PolyError, Polynomial, VariableSet
from plinth.roberts import roberts_action
from plinth.sagbi import (
    GeneratorSet,
    SubductionError,
    TeteATete,
    monomial_algebra_member,
    subduct,
    tete_a_tetes,
    tete_a_tete_difference,
    verify_sagbi,
    x_ideal_membership,
)
from util import (
    combinations_tete_a_tetes,
    common_factor_certificate,
    deepening_factorization,
    enumerated_multiset_count,
    FirstIndexSearch,
    exhaustive_verify_sagbi,
    pair_core,
    random_poly,
    fraction_mul,
    fraction_scale,
    fraction_sub,
    fraction_subduct,
    fraction_terms,
    is_canonical,
    is_canonical_value,
    lex_key,
    product_cancel,
    readout_factorization,
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
    # a monomial in a variable past the ambient has no factorization
    beyond = Monomial(((len(R7), 1),))
    assert small.factorization(beyond) is None
    assert int(beyond) not in small._memo


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


def assert_memo_keyed_by_monomials(G, answers):
    # one memo entry per monomial: every key is a packed monomial over the
    # ambient, and each queried monomial's own entry is its least factor
    # count (-1: none)
    assert all(not key & G.ambient.invalid_bits for key in G._memo)
    for m, names in answers.items():
        assert G._memo[int(m)] == (-1 if names is None else len(names)), m


def test_factorization_matches_oracle_on_lt_products():
    for n in range(3):
        G = fresh_copy(RA.catalog(n))
        products = sorted(lt_products(G, 7), key=lambda m: m.pairs)
        assert len(products) > 50
        answers = {}
        for m in products:
            answers[m] = G.factorization(m)
            assert answers[m] == deepening_factorization(G, m), m
        assert_memo_keyed_by_monomials(G, answers)


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
        answers = {}
        for _ in range(300):
            if rng.random() < 0.5:
                m = Monomial(())
                for name in rng.choices(names, k=rng.randint(1, 6)):
                    m = m * G.lt[name][0]
            else:
                m = random_monomial(rng, indices, max_exp)
            want = deepening_factorization(G, m)
            assert G.factorization(m) == want, m
            answers[m] = want
            if want is None:
                unsolvable += 1
            else:
                solvable += 1
        assert solvable > 100 and unsolvable > 20
        assert_memo_keyed_by_monomials(G, answers)


def test_repeated_factorization_returns_the_stored_tuple():
    # every query is compared with a fresh read-out of the counts, and a
    # repeated one must hand back the very tuple its first query stored
    rng = random.Random(4049)
    G = fresh_copy(RA.catalog(2))
    names = [name for name in G.names if not G.lt[name][0].is_one()]
    queries = []
    for _ in range(150):
        if rng.random() < 0.6:
            m = Monomial(())
            for name in rng.choices(names, k=rng.randint(1, 5)):
                m = m * G.lt[name][0]
        else:
            m = random_monomial(rng, range(7), 2)
        queries.append(m)
    queries += rng.choices(queries, k=150)  # repeats, solvable and not
    first = {}
    for m in queries:
        got = G.factorization(m)
        assert got == readout_factorization(G, m), m
        if m in first:
            assert got is first[m], m
        else:
            first[m] = got
    assert sum(got is None for got in first.values()) > 10
    assert sum(got is not None for got in first.values()) > 50
    assert len(first) < len(queries)
    # a packed int outside the ambient is no monomial, cached or not
    outside = 1 << 32 * len(R7)
    assert G.factorization(outside) is None is readout_factorization(G, outside)


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


def random_generator_set(rng):
    """Monomial-led generators over 2 to 4 variables, always with a pair of
    tied leading monomials and a generator with constant leading term."""
    V = VariableSet([f"v{i}" for i in range(rng.randint(2, 4))])
    gens = []
    for k in range(rng.randint(2, 5)):
        m = random_monomial(rng, range(len(V)), 2)
        if m.is_one():
            m = Monomial(((rng.randrange(len(V)), 1),))
        gens.append((f"g{k}", Polynomial(V, {m: rng.randint(1, 3), Monomial(()): 1})))
    tied = gens[rng.randrange(len(gens))][1].leading_monomial()
    gens.append(("t", Polynomial(V, {tied: -1})))
    gens.append(("c", Polynomial(V, {Monomial(()): 5})))
    return GeneratorSet(V, gens)


def test_factorization_matches_first_index_search_on_random_sets():
    rng = random.Random(1616)
    solvable = unsolvable = 0
    for _ in range(60):
        G = random_generator_set(rng)
        oracle = FirstIndexSearch(G)
        names = G._search_names
        answers = {}
        for _ in range(25):
            if rng.random() < 0.5:
                m = Monomial(())
                for name in rng.choices(names, k=rng.randint(1, 4)):
                    m = m * G.lt[name][0]
            else:
                m = random_monomial(rng, range(len(G.ambient)), 4)
            got = G.factorization(m)
            assert got == oracle.factorization(m) == deepening_factorization(G, m), m
            answers[m] = got
            if got is None:
                unsolvable += 1
            else:
                solvable += 1
        assert_memo_keyed_by_monomials(G, answers)
        # every monomial the count search visits, the first-index search
        # visits too
        assert len(G._memo) <= len(oracle.memo)
    assert solvable > 500 and unsolvable > 200


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


def test_tete_a_tetes_groups_ascend_and_match_combinations_oracle():
    # on the Roberts catalogs the walk meets each multiset once and in
    # ascending order, so no group needs sorting or deduplication
    for N in range(3):
        G = RA.catalog(N)
        tts = tete_a_tetes(G, 7)
        assert tts == combinations_tete_a_tetes(G, 7), N
        groups: dict = {}
        for tt in tts:
            group = groups.setdefault(tt.product, [])
            group += [side for side in (tt.left, tt.right) if side not in group]
        assert groups and all(
            a < b for group in groups.values() for a, b in zip(group, group[1:])
        )


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


def test_tete_a_tetes_walk_5000_factors_without_recursion():
    G = GeneratorSet(XYZ, [("a", XYZ.variable("x"))])
    assert tete_a_tetes(G, 5000) == []
    rep = verify_sagbi(G, 5000)
    assert rep.ok
    assert rep.details == [
        "tete-a-tetes up to total degree 5000: 0",
        "nonzero differences subducted to zero: 0",
    ]


def test_walk_guards_exponents_only_above_max_exponent():
    # an exponent of a product is at most the bound, so a bound within
    # MAX_EXPONENT never overflows; above it the guard bits are checked
    G = GeneratorSet(XYZ, [("a", XYZ.poly(f"x^{2**30}"))])
    assert verify_sagbi(G, MAX_EXPONENT).ok
    with pytest.raises(PolyError):
        verify_sagbi(G, MAX_EXPONENT + 1)


def test_verify_sagbi_work_follows_the_multisets_not_the_bound():
    # leading degrees of 10^8 at a bound of 10^9: a few hundred multisets,
    # and the derived pairs are counted from them, with nothing sized by
    # the bound
    e = 10**8
    gens = [
        ("a", XYZ.poly(f"x^{e}*y^{e} + x^{e}")),
        ("b", XYZ.poly(f"x^{e}")),
        ("c", XYZ.poly(f"y^{e}")),
    ]
    G = GeneratorSet(XYZ, gens)
    t0 = time.perf_counter()
    rep = verify_sagbi(G, 10 * e)
    assert time.perf_counter() - t0 < 1.0
    assert _stable(rep) == _stable(exhaustive_verify_sagbi(GeneratorSet(XYZ, gens), 10 * e))


def test_walk_past_its_multiset_cap_is_refused_quickly(monkeypatch):
    # z leads x^e*y^e + z with degree 1, so the multisets up to a bound of
    # 10^9 include z^k for every k <= 10^9: such a walk once ran out of
    # memory within seconds
    e = 10**8
    gens = [
        ("a", XYZ.poly(f"x^{e}*y^{e} + z")),
        ("b", XYZ.poly(f"x^{e}")),
        ("c", XYZ.poly(f"y^{e}")),
    ]
    G = GeneratorSet(XYZ, gens)
    cap = sagbi_module.MAX_WALK_MULTISETS
    t0 = time.perf_counter()
    with pytest.raises(SubductionError) as err:
        verify_sagbi(G, 10 * e)
    assert time.perf_counter() - t0 < 2.0
    assert str(err.value) == f"degree bound {10 * e}: over {cap} generator multisets up to it"
    # z, z^2, ..., z^k are k multisets: a walk of exactly the cap passes
    monkeypatch.setattr(sagbi_module, "MAX_WALK_MULTISETS", 40)
    single = GeneratorSet(XYZ, [("a", XYZ.poly("z"))])
    assert len(sagbi_module._groups(single, 40)) == 40 and verify_sagbi(single, 40).ok
    for run in (verify_sagbi, tete_a_tetes):
        with pytest.raises(SubductionError, match="^degree bound 41: over 40 generator multisets"):
            run(single, 41)


def test_multiset_count_matches_enumeration_and_the_walk(monkeypatch):
    # seeded lists of 0 to 5 leading degrees from 1 to 4 (repeats and
    # degree-1 generators common), bounds 0 to 8: the count before the walk
    # against enumeration of multiplicity vectors and against the group
    # sizes of the walk itself; at caps n - 1, n and n + 1 both refuse
    # exactly when n > cap
    rng = random.Random(24)
    cases = [([], 5), ([1], 0), ([1, 1, 1], 6), ([2, 2], 7), ([1, 3, 3], 8)]
    cases += [
        ([rng.randint(1, 4) for _ in range(rng.randint(0, 5))], rng.randint(0, 8))
        for _ in range(150)
    ]
    for degrees, bound in cases:
        n = enumerated_multiset_count(degrees, bound)
        # a monomial generator of each degree, a random word in x, y, z
        gens = [
            (f"g{k}", XYZ.poly("*".join(rng.choice("xyz") for _ in range(d))))
            for k, d in enumerate(degrees)
        ]
        G = GeneratorSet(XYZ, gens)
        monkeypatch.setattr(sagbi_module, "MAX_WALK_MULTISETS", n + 1000)
        assert sum(len(group) for _, _, group in sagbi_module._groups(G, bound)) == n
        for cap in (n - 1, n, n + 1):
            got = sagbi_module._multiset_count(degrees, bound, cap)
            assert (got > cap) == (n > cap), (degrees, bound, cap)
            if n <= cap:
                assert got == n
            monkeypatch.setattr(sagbi_module, "MAX_WALK_MULTISETS", cap)
            if n > cap:
                with pytest.raises(SubductionError, match=f"^degree bound {bound}: over {cap} "):
                    sagbi_module._groups(G, bound)
            else:
                sagbi_module._groups(G, bound)


def test_walk_over_the_cap_and_the_exponent_limit_gets_the_cap_message():
    # z^k for every k up to 2^31 is over the cap, and x^h * x^h overflows:
    # the count before the walk refuses first
    h = MAX_EXPONENT // 2 + 1
    G = GeneratorSet(XYZ, [("a", XYZ.poly(f"x^{h}")), ("b", XYZ.poly("z"))])
    cap = sagbi_module.MAX_WALK_MULTISETS
    with pytest.raises(SubductionError, match=f"^degree bound {MAX_EXPONENT + 1}: over {cap} "):
        verify_sagbi(G, MAX_EXPONENT + 1)


def test_group_sizes_count_the_tete_a_tetes():
    for N in range(4):
        G = RA.catalog(N)
        for bound in range(11):
            groups = sagbi_module._groups(G, bound)
            sizes = [len(group) for _, _, group in groups]
            assert sum(k * (k - 1) // 2 for k in sizes) == len(tete_a_tetes(G, bound))
            assert [p for p, _, _ in groups] == sorted({p for p, _, _ in groups}, reverse=True)


def test_verify_sagbi_matches_exhaustive_oracle_on_random_sets():
    # seeded generator sets over x, y, z: 2 to 5 generators of 1 to 3
    # squarefree terms, bounds 2 to 7; both verdicts occur
    rng = random.Random(2026)
    verdicts = []
    derived = 0
    for _ in range(150):
        gens = []
        size = rng.randint(2, 5)
        while len(gens) < size:
            f = random_poly(rng, XYZ, max_terms=3, max_exp=1)
            if not f.is_zero():
                gens.append((f"g{len(gens)}", f))
        bound = rng.randint(2, 7)
        want = exhaustive_verify_sagbi(GeneratorSet(XYZ, gens), bound)
        got = verify_sagbi(GeneratorSet(XYZ, gens), bound)
        assert _stable(got) == _oracle_report(GeneratorSet(XYZ, gens), want)
        verdicts.append(want.ok)
        if want.ok:
            pairs = tete_a_tetes(GeneratorSet(XYZ, gens), bound)
            derived += sum(bool(set(tt.left) & set(tt.right)) for tt in pairs)
    assert min(verdicts.count(True), verdicts.count(False)) >= 20
    # the passing sets have pairs whose outcome is counted, not subducted
    assert derived > 0


def test_passing_verify_sagbi_subducts_only_nonzero_coprime_pairs(monkeypatch):
    G = RA.catalog(2)
    coprime = [
        tt
        for tt in tete_a_tetes(G, 7)
        if not set(tt.left) & set(tt.right)
        and not tete_a_tete_difference(G, tt).is_zero()
    ]
    subducted = []
    real = sagbi_module.subduct

    def counting(f, G, max_steps=10_000):
        subducted.append(f)
        return real(f, G, max_steps)

    def refused(G, bound):
        raise AssertionError("the pass path builds no tete-a-tete list")

    monkeypatch.setattr(sagbi_module, "subduct", counting)
    monkeypatch.setattr(sagbi_module, "tete_a_tetes", refused)
    assert verify_sagbi(G, 7).ok
    assert len(subducted) == len(coprime)
    assert sorted(map(str, subducted)) == sorted(
        str(tete_a_tete_difference(G, tt)) for tt in coprime
    )


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


def _without(G, drop):
    return GeneratorSet(R7, [(name, G.polys[name]) for name in G.names if name != drop])


def _stable(report):
    d = report.to_dict()
    del d["ms"]
    return d


def _oracle_report(G, want):
    """``_stable`` of the exhaustive report ``want``; when it fails, its
    details keep only the coprime pairs, in ascending product order (the
    sort is stable, so pairs of one product keep their order)."""
    d = _stable(want)
    if not want.ok:
        coprime = [x for x in want.details if not set(x["left"]) & set(x["right"])]
        d["details"] = sorted(coprime, key=lambda x: G.product(x["left"]).leading_monomial())
    return d


@pytest.mark.parametrize(
    "N, bound, drop",
    [
        (0, 10, None),
        (1, 10, None),
        (2, 10, None),
        (3, 8, None),
        (2, 8, "b1_1"),
        (2, 7, "u12"),
        (1, 8, "u13"),
        (2, 7, "b3_0"),
    ],
)
def test_verify_sagbi_matches_exhaustive_oracle(N, bound, drop):
    G = RA.catalog(N) if drop is None else _without(RA.catalog(N), drop)
    want = exhaustive_verify_sagbi(G, bound)
    assert want.ok == (drop is None)
    assert _stable(verify_sagbi(G, bound)) == _oracle_report(G, want)


@pytest.mark.parametrize(
    "N, bound, drop", [(2, 8, "b1_1"), (2, 7, "u12"), (1, 8, "u13"), (2, 7, "b3_0")]
)
def test_failing_verify_sagbi_subducts_each_difference_once(N, bound, drop, monkeypatch):
    G = _without(RA.catalog(N), drop)
    coprime = [
        tt
        for tt in tete_a_tetes(G, bound)
        if not set(tt.left) & set(tt.right)
        and not tete_a_tete_difference(G, tt).is_zero()
    ]
    subducted = []
    real = sagbi_module.subduct

    def counting(f, G, max_steps=10_000):
        subducted.append(f)
        return real(f, G, max_steps)

    monkeypatch.setattr(sagbi_module, "subduct", counting)
    assert not verify_sagbi(G, bound).ok
    # the walk that decides the verdict is the only one: each nonzero
    # coprime difference is subducted once, and no other difference is
    assert len(subducted) == len(coprime)
    assert sorted(map(str, subducted)) == sorted(
        str(tete_a_tete_difference(G, tt)) for tt in coprime
    )


@pytest.mark.parametrize("N, bound, drop", [(2, 7, "u12"), (1, 8, "u13")])
def test_failing_verify_sagbi_walks_the_multisets_once(N, bound, drop, monkeypatch):
    G = _without(RA.catalog(N), drop)
    want = exhaustive_verify_sagbi(G, bound)
    walks = []
    real = sagbi_module._groups

    def counting(G, total_degree_bound):
        walks.append(total_degree_bound)
        return real(G, total_degree_bound)

    monkeypatch.setattr(sagbi_module, "_groups", counting)
    got = verify_sagbi(G, bound)
    assert not got.ok and walks == [bound]
    assert _stable(got) == _oracle_report(G, want)


@pytest.mark.parametrize(
    "N, bound, drop, reported, derived",
    [(2, 8, "b1_1", 3, 0), (2, 7, "u12", 59, 234), (1, 8, "u13", 4, 30), (2, 7, "b3_0", 19, 36)],
)
def test_failing_verify_sagbi_accounts_for_every_oracle_failure(N, bound, drop, reported, derived):
    # every failing pair the report leaves out has its exact core in the
    # report, or is h times a core that subducts to zero: then h times the
    # core's certificate is a subduction of the pair to zero
    G = _without(RA.catalog(N), drop)
    got = verify_sagbi(G, bound)
    listed = {(tuple(x["left"]), tuple(x["right"])) for x in got.details}
    assert len(got.details) == len(listed) == reported
    certified = 0
    for x in exhaustive_verify_sagbi(G, bound).details:
        pair = tuple(x["left"]), tuple(x["right"])
        if pair in listed:
            continue
        tt = TeteATete(*pair, G.product(pair[0]).leading_monomial())
        left, right, shared = pair_core(tt)
        assert shared
        if (left, right) in listed or (right, left) in listed:
            continue
        core = TeteATete(left, right, G.product(left).leading_monomial())
        cert = common_factor_certificate(G, tt, subduct(tete_a_tete_difference(G, core), G))
        diff = tete_a_tete_difference(G, tt)
        assert cert.ok and cert.input == diff and cert.replay(G) == diff
        certified += 1
    assert certified == derived


def test_shared_factor_pairs_have_derived_certificates():
    # ascending product order: every core is certified before its multiples
    G = RA.catalog(2)
    certs = {}
    derived = 0
    for tt in reversed(tete_a_tetes(G, 7)):
        left, right, shared = pair_core(tt)
        diff = tete_a_tete_difference(G, tt)
        if not shared:
            cert = certs[tt.left, tt.right] = subduct(diff, G)
            assert cert.ok
            continue
        core = certs[left, right]
        cert = certs[tt.left, tt.right] = common_factor_certificate(G, tt, core)
        derived += 1
        assert cert.ok and len(cert.steps) == len(core.steps)
        assert cert.input == diff and cert.replay(G) == diff
        cur, last = diff, tt.product
        for step in cert.steps:
            prod = G.product(step.factors)
            lm = prod.leading_monomial()
            assert lm == cur.leading_monomial() and lm < last and lm < tt.product
            cur = cur - prod.scale(step.coefficient)
            last = lm
        assert cur.is_zero()
    assert len(certs) == 919 and derived == 919 - 76


def test_max_steps_bounds_a_subduction_not_subduct_itself():
    # S_1 at bound 7 has a pair that subduct needs more than 3 steps for,
    # while h times its core's subduction takes at most 3
    G = RA.catalog(1)
    assert not exhaustive_verify_sagbi(G, 7, max_steps=3).ok
    assert verify_sagbi(G, 7, max_steps=3).ok


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


def test_certificate_to_dict():
    G = RA.catalog(0)
    cert = subduct(RA.u12 * RA.u23, G)
    d = cert.to_dict()
    assert d["complete"] is True
    assert d["remainder"] == "0"
    # a coefficient past Python's int-string digit limit is written exactly
    big = 10**5000
    d = subduct((RA.u12 * RA.u23).scale(big) + R7.one(), G).to_dict()
    assert [step["coefficient"] for step in d["steps"]] == ["1" + "0" * 5000, "1"]


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
    assert all(is_canonical_value(s.coefficient) for s in cert.steps)
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


def _certificate_fields(cert):
    """Steps, remainder, completeness and stuck monomial, coefficient types
    included, since 1 == Fraction(1)."""
    steps = [(type(s.coefficient), s.coefficient, s.factors, s.prefix) for s in cert.steps]
    terms = sorted((m, type(c), c) for m, c in cert.remainder._terms.items())
    return steps, terms, cert.complete, cert.stuck


def _assert_cancel_matches_product_oracle(G, inputs):
    """Each (f, prefixes, max_steps) gives the certificate of the earlier
    loop that multiplies every factor into one product, and replays to f.
    The library and the oracle each run on their own copy of G, so no
    cached product passes from one to the other."""
    mine, theirs = fresh_copy(G), fresh_copy(G)
    for f, prefixes, max_steps in inputs:
        if prefixes is None:
            cert = subduct(f, mine, max_steps)
        else:
            cert = x_ideal_membership(f, mine, prefixes, max_steps)
        want = product_cancel(f, theirs, prefixes, max_steps)
        assert _certificate_fields(cert) == _certificate_fields(want), str(f)
        assert cert.replay(mine) == f


def _seeded_inputs(rng, G, trials, xs, max_exp=2):
    """Algebra combinations of G plus a stray polynomial, for subduct and,
    times a variable of xs, for x_ideal_membership with prefixes from xs;
    some of them with a step budget that cuts them short."""
    ambient, names = G.ambient, G.names
    inputs = []
    for _ in range(trials):
        f = random_poly(rng, ambient, max_terms=2, max_exp=max_exp)
        for _ in range(rng.randint(1, 3)):
            factors = [rng.choice(names) for _ in range(rng.randint(1, 4))]
            f = f + G.product(factors).scale(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
        budget = rng.choice((10_000, 10_000, 1, 2))
        inputs.append((f, None, budget))
        prefixes = tuple(rng.sample(xs, rng.randint(1, len(xs))))
        inputs.append((ambient.variable(rng.choice(xs)) * f, prefixes, budget))
    return inputs


@pytest.mark.parametrize("N, bound, trials", [(0, 10, 40), (1, 6, 40), (2, 5, 30), (3, 5, 20)])
def test_cancel_matches_product_oracle_on_roberts_catalogs(N, bound, trials):
    G = RA.catalog(N)
    xs = [R7.variable(x) for x in X_PREFIXES]
    inputs = []
    for k, tt in enumerate(tete_a_tetes(G, bound)):
        diff = tete_a_tete_difference(G, tt)
        inputs.append((diff, None, 10_000))
        inputs.append((xs[k % 3] * xs[(k + 1) % 3] * diff, X_PREFIXES, 10_000))
    inputs += _seeded_inputs(random.Random(3200 + N), G, trials, X_PREFIXES)
    _assert_cancel_matches_product_oracle(G, inputs)


# single-term generators with coefficient 3 and of degree above 1 among
# generators of several terms
PLANTED = GeneratorSet(
    XYZ,
    [
        ("a", XYZ.poly("3*x")),
        ("b", XYZ.poly("x^2*y")),
        ("c", XYZ.poly("z^2 + x*y")),
        ("d", XYZ.poly("2*z*y - x^2")),
        ("e", XYZ.poly("-1/2*y^3")),
    ],
)


def test_cancel_matches_product_oracle_on_planted_single_terms():
    a, b, c, d = (PLANTED.polys[n] for n in "abcd")
    fixed = [
        (a * a * b, None, 10_000),  # only single terms, one name repeated
        (a * a * a * c + b * b * d, None, 10_000),
        (b * c * c - a * d + XYZ.poly("y^5"), None, 10_000),
        (XYZ.variable("y") * a * b * c, ("x", "y"), 10_000),
        (XYZ.variable("x") * (a * a * d + b), ("y", "x"), 1),
    ]
    rng = random.Random(3232)
    seeded = _seeded_inputs(rng, PLANTED, 60, ("x", "y"), max_exp=3)
    _assert_cancel_matches_product_oracle(PLANTED, fixed + seeded)
    # the inputs cover each kind of single-term step named above
    G = fresh_copy(PLANTED)
    factors = {
        s.factors
        for f, prefixes, max_steps in fixed + seeded
        for s in (
            subduct(f, G, max_steps)
            if prefixes is None
            else x_ideal_membership(f, G, prefixes, max_steps)
        ).steps
    }
    assert ("a", "a", "b") in factors
    assert any(fs.count("a") > 1 and "c" in fs for fs in factors)
    assert any("b" in fs and "d" in fs for fs in factors)
    assert any("e" in fs for fs in factors)


def test_single_term_step_multiplies_nothing(monkeypatch):
    G = fresh_copy(PLANTED)
    a, b, e = (G.polys[n] for n in "abe")
    f = a * a * b * e + XYZ.poly("x^2*y")
    g = XYZ.variable("y") * f
    calls = []
    mul = Polynomial.__mul__
    monkeypatch.setattr(Polynomial, "__mul__", lambda p, q: calls.append(1) or mul(p, q))
    cert = subduct(f, G)
    assert not calls and not G._prod_cache
    assert [s.factors for s in cert.steps] == [("a", "a", "b", "e"), ("b",)]
    assert cert.ok
    cert = x_ideal_membership(g, G, ("y",))
    assert not calls and not G._prod_cache
    assert [(s.factors, s.prefix) for s in cert.steps] == [(("a", "a", "b", "e"), "y"), (("b",), "y")]
    assert cert.ok


def test_single_terms_are_read_from_the_generator_polynomials():
    # as in test_failed_step_message_is_shared, G.lt keeps the old leading
    # terms: a step must take its single terms from G.polys, as the replay does
    G = GeneratorSet(XYZ, [("a", XYZ.poly("x")), ("b", XYZ.poly("y")), ("c", XYZ.poly("z + x"))])
    G.polys["a"] = XYZ.poly("2*x")
    f = XYZ.poly("x*y*z + x^2*y")
    cert = subduct(f, G)
    assert [(s.coefficient, s.factors) for s in cert.steps] == [(Fraction(1, 2), ("a", "b", "c"))]
    assert _certificate_fields(cert) == _certificate_fields(product_cancel(f, G))
    assert cert.ok and cert.replay(G) == f


def test_single_terms_past_the_exponent_limit_raise_the_overflow_error():
    # a rewritten single term whose powers leave the exponent field: the
    # shift x^(2 * MAX_EXPONENT) sets a guard bit, and the step's own sum
    # x^(3 * MAX_EXPONENT) would carry past it into y
    G = GeneratorSet(XYZ, [("a", XYZ.poly("x"))])
    G.polys["a"] = Polynomial(XYZ, {Monomial(((0, MAX_EXPONENT),)): 1})
    with pytest.raises(PolyError, match="^a term has an exponent above the limit 2\\^31 - 1"):
        subduct(XYZ.poly("x^3"), G)


def test_product_is_a_left_fold_of_sorted_generators():
    G = fresh_copy(RA.catalog(1))
    rng = random.Random(1729)
    for _ in range(60):
        key = rng.choices(G.names, k=rng.randint(0, 5))
        want = R7.one()
        for name in sorted(key):
            want = want * G.polys[name]
        assert G.product(key) == want, key


def test_product_miss_multiplies_once_past_its_cached_prefix(monkeypatch):
    G = fresh_copy(RA.catalog(1))
    G.product(("u12", "b1_1", "b1_0"))
    calls = []
    mul = Polynomial.__mul__
    monkeypatch.setattr(Polynomial, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    G.product(("b1_0", "b1_1", "u12", "u23"))
    assert len(calls) == 1
    G.product(("b1_1", "b1_0"))
    assert len(calls) == 1
    assert G.product(("u13",)) is G.polys["u13"]


def test_product_of_5000_factors_without_recursion():
    G = GeneratorSet(XYZ, [("x", XYZ.poly("x"))])
    t0 = time.perf_counter()
    got = G.product(("x",) * 5000)
    assert time.perf_counter() - t0 < 1.0
    assert got == XYZ.poly("x^5000")
