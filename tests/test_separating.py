import random
import time
from fractions import Fraction

import pytest

from plinth import separating
from plinth.casebook import danielewski_derivation
from plinth.derivation import Derivation
from plinth.polyring import PolyError, VariableSet
from plinth.roberts import roberts_action
from plinth.sagbi import GeneratorSet
from plinth.separating import (
    _poly_gcd,
    _poly_mod,
    flow_equations,
    graph_vs_separation_sampling,
    point_text,
    separates,
    separating_set_equivalence,
    solve_group_element,
)
from plinth.sl2 import RepSum, build_raising_derivation
from util import (
    every_piece_invariants,
    fraction_evaluate,
    is_canonical_value,
    make_point,
    parse_point,
    random_poly,
    substitute_flow_equations,
)

RA = roberts_action()
R7 = RA.ring
NAMES = R7.names


def roberts_plinth_sampler(rng):
    p = {n: Fraction(rng.randint(-9, 9)) for n in NAMES}
    for x in ("x1", "x2", "x3"):
        p[x] = Fraction(0)
    return p


def in_roberts_plinth(p):
    return all(p[x] == 0 for x in ("x1", "x2", "x3"))


def test_point_text_round():
    v = make_point(NAMES, (1, 2, 3, 0, 0, 0, Fraction(1, 2)))
    assert point_text(v) == "1,2,3,0,0,0,1/2"
    assert parse_point(NAMES, point_text(v)) == v
    with pytest.raises(PolyError):
        make_point(NAMES, (1, 2))
    for text, field in (
        ("1,x,3,0,0,0,0", "x"),
        ("1/0,2,3,0,0,0,0", "1/0"),
        ("1,,3,0,0,0,0", ""),
    ):
        with pytest.raises(PolyError) as err:
            parse_point(NAMES, text)
        assert repr(field) in str(err.value) and "\n" not in str(err.value)
    with pytest.raises(PolyError):
        parse_point(NAMES, "1,2")


@pytest.mark.parametrize("bad", [0.5, "1/2", "abc"])
def test_make_point_rejects_non_rational(bad):
    with pytest.raises(PolyError) as err:
        make_point(NAMES, (1, 2, 3, 0, 0, 0, bad))
    assert repr(bad) in str(err.value) and "\n" not in str(err.value)
    v = make_point(NAMES, (1, 2, 3, 0, 0, 0, 0))
    with pytest.raises(PolyError):
        flow_equations(v, dict(v, z=bad), RA.D)
    for left, right in ((dict(v, z=bad), v), (v, dict(v, z=bad))):
        with pytest.raises(PolyError) as err:
            separates(left, right, RA.catalog(1))
        assert repr(bad) in str(err.value) and "\n" not in str(err.value)


def test_separates_diagonal():
    v = make_point(NAMES, (1, 2, 3, 4, 5, 6, 7))
    assert separates(v, v, RA.catalog(1)) is None


def test_separates_flow_pair_is_unseparated():
    # (1,1,1,1,1,1,1) is exactly the time-1 flow of (1,1,1,0,0,0,0):
    # every invariant of the catalog takes equal values on the pair
    v = make_point(NAMES, (1, 1, 1, 0, 0, 0, 0))
    vp = make_point(NAMES, (1, 1, 1, 1, 1, 1, 1))
    assert RA.D.flow_point(v, Fraction(1)) == vp
    assert separates(v, vp, RA.catalog(1)) is None


def test_separates_off_flow_pair():
    # forcing z back to 0 leaves the y-equations at s=1 but the z-equation
    # at s=0: not a flow pair, and b1_1 = x1 z - x2^2 x3^2 y1 tells them apart
    v = make_point(NAMES, (1, 1, 1, 0, 0, 0, 0))
    vp = make_point(NAMES, (1, 1, 1, 1, 1, 1, 0))
    assert separates(v, vp, RA.catalog(1)) is not None


def test_separates_fixed_points_never():
    v = make_point(NAMES, (0, 0, 0, 1, 2, 3, 4))
    vp = make_point(NAMES, (0, 0, 0, 9, 8, 7, 6))
    assert separates(v, vp, RA.catalog(4)) is None


def test_solve_group_element_constructed_pair():
    v = make_point(NAMES, (1, 2, 3, 0, 0, 0, 0))
    vp = RA.D.flow_point(v, Fraction(5))
    assert solve_group_element(v, vp, RA.D) == 5


def test_solve_group_element_fixed_point_convention():
    v = make_point(NAMES, (0, 0, 0, 4, 5, 6, 7))
    assert solve_group_element(v, v, RA.D) == 0


def test_solve_group_element_inconsistent():
    v = make_point(NAMES, (1, 1, 1, 0, 0, 0, 0))
    vp = make_point(NAMES, (1, 1, 1, 1, 1, 1, 0))
    assert solve_group_element(v, vp, RA.D) is None


def test_solve_group_element_rational_parameter():
    v = make_point(NAMES, (2, 3, 1, 1, 0, 0, 5))
    vp = RA.D.flow_point(v, Fraction(-7, 3))
    assert solve_group_element(v, vp, RA.D) == Fraction(-7, 3)


def test_solve_group_element_nonlinear_flow():
    # binary quartics: the flow is polynomial of degree up to 4 in s
    rep = RepSum([4])
    D = build_raising_derivation(rep)
    v = {name: Fraction(k - 2) for k, name in enumerate(rep.ambient.names)}
    vp = D.flow_point(v, Fraction(3, 2))
    assert solve_group_element(v, vp, D) == Fraction(3, 2)
    assert solve_group_element(v, {n: vp[n] + (1 if n == "x0" else 0) for n in vp}, D) is None


def test_solve_group_element_takes_the_gcd_of_nonlinear_flows(monkeypatch):
    # a translation conjugated by (p, q) -> (p + (q + p^2)^2, q + p^2):
    # D(x - y^2) = 1 and y - (x - y^2)^2 is invariant, and the flow
    # equations have degree 4 in s for x and 2 for y, so none is linear
    R = VariableSet(("x", "y"))
    D = Derivation(R, {"x": R.poly("1 + 4*x*y - 4*y^3"), "y": R.poly("2*x - 2*y^2")})
    assert D.certify_locally_nilpotent() == {"x": 5, "y": 3}
    gcds = []

    def counting(a, b):
        gcds.append((a, b))
        return _poly_gcd(a, b)

    monkeypatch.setattr(separating, "_poly_gcd", counting)
    rng = random.Random(30)
    for _ in range(200):
        v = {"x": rng.randint(-9, 9), "y": rng.randint(-9, 9)}
        s = Fraction(rng.randint(-20, 20), rng.randint(1, 4))
        vp = D.flow_point(v, s)
        before = len(gcds)
        assert solve_group_element(v, vp, D) == s
        assert len(gcds) > before
        # moving y by 1 changes the invariant, so no s reaches the target
        assert solve_group_element(v, {"x": vp["x"], "y": vp["y"] + 1}, D) is None


def test_graph_sampling_roberts():
    rep = graph_vs_separation_sampling(
        RA.D,
        RA.catalog(1),
        trials=120,
        seed=7,
        plinth_indicator=in_roberts_plinth,
        plinth_sampler=roberts_plinth_sampler,
        plinth_unseparated=True,
    )
    assert rep.ok, rep.details


def test_graph_sampling_rejects_bad_trials():
    with pytest.raises(PolyError):
        graph_vs_separation_sampling(RA.D, RA.catalog(1), trials=0)


def test_flow_pairs_never_separated_property():
    rng = random.Random(99)
    G = RA.catalog(2)
    for _ in range(25):
        v = {n: Fraction(rng.randint(-9, 9)) for n in NAMES}
        s = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        vp = RA.D.flow_point(v, s)
        assert separates(v, vp, G) is None
        if any(v[x] != 0 for x in ("x1", "x2", "x3")):
            assert solve_group_element(v, vp, RA.D) == s


def test_equivalence_a1_generators_vs_s4():
    rep = separating_set_equivalence(
        RA.catalog(1), RA.catalog(4), RA.D, trials=300, seed=5
    )
    assert rep.ok, rep.details


def test_equivalence_identical_sets():
    rep = separating_set_equivalence(
        RA.catalog(1), RA.catalog(1), RA.D, trials=60, seed=6
    )
    assert rep.ok


def test_equivalence_detects_x_only_set():
    G_x = GeneratorSet(
        R7,
        [("x1", R7.variable("x1")), ("x2", R7.variable("x2")), ("x3", R7.variable("x3"))],
    )
    rep = separating_set_equivalence(G_x, RA.catalog(1), RA.D, trials=200, seed=8)
    assert not rep.ok
    # the witness pair differs away from the x coordinates
    failure = rep.details[0]
    assert failure["witness"] is not None


def test_equivalence_requires_invariant_generators():
    bad = GeneratorSet(R7, [("y1", R7.variable("y1"))])
    with pytest.raises(PolyError):
        separating_set_equivalence(bad, RA.catalog(1), RA.D, trials=5)


def test_report_determinism():
    a = separating_set_equivalence(RA.catalog(1), RA.catalog(2), RA.D, 50, seed=11)
    b = separating_set_equivalence(RA.catalog(1), RA.catalog(2), RA.D, 50, seed=11)
    assert a.status == b.status
    assert a.details == b.details
    assert a.params == b.params


@pytest.mark.parametrize("which", ["roberts", "V[4]", "V[4]+V[2]", "danielewski"])
def test_flow_equations_match_substitution_oracle(which):
    if which == "roberts":
        D = RA.D
    elif which == "danielewski":
        D = danielewski_derivation()
    else:
        D = build_raising_derivation(RepSum.parse(which))
    names = D.ambient.names
    rng = random.Random(sum(map(ord, which)))

    def coordinate():
        if rng.random() < 0.3:
            return Fraction(rng.randint(-9, 9), rng.randint(2, 5))
        return rng.choice((int, Fraction))(rng.randint(-5, 5))

    recovered = 0
    for trial in range(40):
        v = {n: coordinate() for n in names}
        mode = trial % 4
        s = None
        if mode == 0:
            s = Fraction(rng.randint(-9, 9))
        elif mode == 1:
            s = Fraction(rng.randint(-9, 9), rng.randint(2, 4))
        if s is not None:
            vp = D.flow_point(v, s)
        elif mode == 2:
            vp = {n: coordinate() for n in names}
        else:
            vp = dict(v)
            if trial % 8 == 7:
                vp[names[rng.randrange(len(names))]] += 1
        equations = flow_equations(v, vp, D)
        assert equations == substitute_flow_equations(v, vp, D), (v, vp)
        assert all(is_canonical_value(c) for eq in equations for c in eq), equations
        if s is not None and any(len(eq) > 1 for eq in equations):
            assert solve_group_element(v, vp, D) == s
            recovered += 1
    assert recovered >= 10


HUGE = 10**18 + 9


@pytest.mark.parametrize("s", [Fraction(HUGE), Fraction(HUGE, 7)])
def test_solve_group_element_huge_constant(s):
    # the y1 equation is linear with constant term -s; no divisor search
    v = make_point(NAMES, (1, 0, 0, 0, 0, 0, 0))
    vp = dict(v, y1=s)
    assert RA.D.flow_point(v, s) == vp
    start = time.perf_counter()
    assert solve_group_element(v, vp, RA.D) == s
    assert time.perf_counter() - start < 1.0


def _sympy_flows(D):
    """The coordinate flows exp(s*D)(x) as sympy polynomials in (s, x...).

    They are expanded from the variable images alone, so the oracle shares
    no code with the symbolic flow or the gcd solve.
    """
    sympy = pytest.importorskip("sympy")
    s = sympy.Symbol("s")
    xs = [sympy.Symbol(n) for n in D.ambient.names]
    symbols = dict(zip(D.ambient.names, xs))
    images = [
        sympy.sympify(str(D.images[n]).replace("^", "**"), locals=symbols)
        for n in D.ambient.names
    ]
    flows = []
    for x in xs:
        flow, cur, k = 0, x, 0
        while cur != 0:
            flow += s**k * cur / sympy.factorial(k)
            cur = sympy.expand(sum(sympy.diff(cur, y) * g for y, g in zip(xs, images)))
            k += 1
        flows.append(sympy.Poly(flow, *xs, s))
    return xs, flows


def _sympy_common_root(xs, flows, v, vp, names):
    """Common rational root of the flow equations (0 if every s works)."""
    import sympy

    point = {x: sympy.Rational(str(v[n])) for x, n in zip(xs, names)}
    roots = None
    for flow, n in zip(flows, names):
        eq = flow.eval(point) - sympy.Rational(str(vp[n]))
        if eq.is_zero:
            continue
        found = set(eq.ground_roots()) if eq.degree() > 0 else set()
        roots = found if roots is None else roots & found
    if roots is None:
        return Fraction(0)
    assert len(roots) <= 1
    return Fraction(str(roots.pop())) if roots else None


@pytest.mark.parametrize("degrees", [[4], [4, 2]])
def test_solve_group_element_matches_sympy(degrees):
    rep = RepSum(degrees)
    D = build_raising_derivation(rep)
    names = rep.ambient.names
    xs, flows = _sympy_flows(D)
    rng = random.Random(2024 + len(degrees))
    solved = 0
    for trial in range(16):
        v = {n: Fraction(rng.randint(-4, 4)) for n in names}
        mode = trial % 4
        if mode == 0:
            vp = D.flow_point(v, Fraction(rng.randint(-9, 9), rng.randint(1, 3)))
        elif mode == 1:
            vp = {n: Fraction(rng.randint(-4, 4)) for n in names}
        elif mode == 2:
            vp = D.flow_point(v, Fraction(rng.randint(-9, 9)))
            vp[names[rng.randrange(len(names))]] += 1
        else:
            vp = dict(v)
        got = solve_group_element(v, vp, D)
        assert got == _sympy_common_root(xs, flows, v, vp, names), (v, vp)
        solved += got is not None
    assert solved >= 8


def test_separates_converts_each_point_once_and_matches_oracle():
    rng = random.Random(77)
    G = RA.catalog(2)
    for trial in range(60):
        v = {n: Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for n in NAMES}
        if trial % 3 == 0:
            vp = RA.D.flow_point(v, Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
        else:
            vp = {n: rng.randint(-6, 6) if rng.random() < 0.5 else v[n] for n in NAMES}
        at_v, at_vp = R7.integer_point(v), R7.integer_point(vp)
        witness = None
        for name in G.names:
            g = G.polys[name]
            for p, at in ((v, at_v), (vp, at_vp)):
                assert g.evaluate_integer(*at) == g.evaluate(p) == fraction_evaluate(g, p)
            if witness is None and fraction_evaluate(g, v) != fraction_evaluate(g, vp):
                witness = name
        assert separates(v, vp, G) == witness


def _rational(rng, bound=6):
    return Fraction(rng.randint(-bound, bound), rng.randint(1, 4))


def _oracle_witness(G, v, vp):
    for name in G.names:
        g = G.polys[name]
        if fraction_evaluate(g, v) != fraction_evaluate(g, vp):
            return name
    return None


def test_agrees_and_witness_match_fraction_oracle():
    rng = random.Random(31337)
    rep = RepSum([4, 2])
    D_sl2 = build_raising_derivation(rep)
    sl2_invariants = [f for _, _, f in every_piece_invariants(rep, D_sl2, 3)]
    fraction_polys = []
    while len(fraction_polys) < 12:
        f = random_poly(rng, R7, max_terms=3, max_exp=3, coef_range=7)
        if not f.is_constant():
            fraction_polys.append(f.scale(Fraction(rng.randint(1, 5), rng.randint(2, 9))))
    cases = [
        (RA.catalog(4), RA.D),
        (GeneratorSet(rep.ambient, [(f"f{k:02}", f) for k, f in enumerate(sl2_invariants)]), D_sl2),
        (GeneratorSet(R7, [(f"r{k:02}", f) for k, f in enumerate(fraction_polys)]), RA.D),
    ]
    agreed_across_denominators = separated = 0
    for G, D in cases:
        names = G.ambient.names
        for trial in range(40):
            v = {n: _rational(rng) if rng.random() < 0.5 else rng.randint(-6, 6) for n in names}
            mode = trial % 4
            if mode == 0:  # one orbit, and mostly other denominators
                vp = D.flow_point(v, Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
            elif mode == 1:
                vp = {n: _rational(rng) for n in names}
            elif mode == 2:  # one coordinate moved to a new rational
                vp = dict(v)
                vp[names[rng.randrange(len(names))]] = _rational(rng, 9)
            else:  # the same values, every one written as a Fraction
                vp = {n: Fraction(x) for n, x in v.items()}
            at_v, at_vp = G.ambient.integer_point(v), G.ambient.integer_point(vp)
            for name in G.names:
                g = G.polys[name]
                same = fraction_evaluate(g, v) == fraction_evaluate(g, vp)
                assert g.agrees(at_v, at_vp) is same, (name, v, vp)
                assert g.agrees(at_vp, at_v) is same
                assert g.agrees(at_v, at_v)
                agreed_across_denominators += same and at_v[1] != at_vp[1]
            witness = separates(v, vp, G)
            assert witness == _oracle_witness(G, v, vp), (v, vp)
            separated += witness is not None
    assert agreed_across_denominators > 200 and 40 < separated < 100


def test_poly_mod_exact_on_int_coefficients():
    # s^2 + 3 = (2s + 1)(s/2 - 1/4) + 13/4: int / int must not become a float
    rem = _poly_mod([3, 0, 1], [1, 2])
    assert rem == [Fraction(13, 4)] and type(rem[0]) is Fraction
    # gcd of (s - 2)(3s + 1) and (s - 2)(5s - 7), both with int coefficients
    g = _poly_gcd([-2, -5, 3], [14, -17, 5])
    assert len(g) == 2 and Fraction(-g[0], g[1]) == 2
    assert all(type(c) in (int, Fraction) for c in g)
