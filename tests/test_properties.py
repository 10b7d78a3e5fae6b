"""Randomized property suites with a fixed seed.

Four families, at least ten thousand cases in total: the Leibniz rule,
the one-parameter group law of the flow, certificate replay, and the
quadric normal form.  A global counter enforces the case budget.
"""

import random
from fractions import Fraction

from plinth.casebook import QUADRIC, danielewski_derivation, divide_out
from plinth.roberts import roberts_action
from plinth.sagbi import subduct, x_ideal_membership
from util import exp_flow, extend_by_zero, is_quadric_normal, random_poly

SEED = 20240
CASES = {"leibniz": 0, "group_law": 0, "replay": 0, "normal_form": 0}

RA = roberts_action()
R7 = RA.ring
DANIELEWSKI = danielewski_derivation()


def test_leibniz_rule_bulk():
    rng = random.Random(SEED)
    for _ in range(4000):
        f = random_poly(rng, R7, max_terms=3, max_exp=3)
        g = random_poly(rng, R7, max_terms=3, max_exp=3)
        assert RA.D.apply(f * g) == RA.D.apply(f) * g + f * RA.D.apply(g)
        CASES["leibniz"] += 1
    D2 = DANIELEWSKI
    for _ in range(1000):
        f = random_poly(rng, D2.ambient, max_terms=3, max_exp=3)
        g = random_poly(rng, D2.ambient, max_terms=3, max_exp=3)
        assert D2.apply(f * g) == D2.apply(f) * g + f * D2.apply(g)
        CASES["leibniz"] += 1


def test_flow_group_law_bulk():
    rng = random.Random(SEED + 1)
    # numeric group law: flow_s(flow_t(point)) = flow_(s+t)(point)
    for _ in range(800):
        point = {n: Fraction(rng.randint(-9, 9)) for n in R7.names}
        s = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        t = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        once = RA.D.flow_point(point, t)
        twice = RA.D.flow_point(once, s)
        assert twice == RA.D.flow_point(point, s + t)
        CASES["group_law"] += 1
    # symbolic group law on random polynomials, exact in both parameters
    ext_t, _ = RA.D.flow_images("t")
    D_t = extend_by_zero(RA.D, ext_t)
    for _ in range(200):
        f = random_poly(rng, R7, max_terms=2, max_exp=2)
        once = exp_flow(D_t, exp_flow(RA.D, f, param="t"), param="s")
        ext_st = once.ambient
        combined = exp_flow(RA.D, f, param="u")
        images = {
            **{v: ext_st.variable(v) for v in R7.names},
            combined.ambient.names[-1]: ext_st.variable("s") + ext_st.variable("t"),
        }
        assert once == combined.substitute(images, ext_st)
        CASES["group_law"] += 1
    # invariance under the flow: invariant polynomials do not move
    for _ in range(200):
        i, n = rng.choice([(1, 0), (2, 1), (3, 1), (1, 2)]), None
        f = RA.beta(*i)
        flowed = exp_flow(RA.D, f)
        assert flowed == f.lift(flowed.ambient)
        CASES["group_law"] += 1


def test_certificate_replay_bulk():
    rng = random.Random(SEED + 2)
    G = RA.catalog(2)
    for _ in range(1500):
        # random elements of the subalgebra plus random noise
        f = R7.zero()
        for _ in range(rng.randint(1, 3)):
            term = R7.constant(Fraction(rng.randint(-4, 4), rng.randint(1, 2)))
            for _ in range(rng.randint(1, 2)):
                term = term * G.polys[rng.choice(G.names)]
            f = f + term
        if rng.random() < 0.4:
            f = f + random_poly(rng, R7, max_terms=2, max_exp=2)
        cert = subduct(f, G, max_steps=500)
        assert cert.replay(G) == f
        CASES["replay"] += 1
    for _ in range(500):
        i = rng.choice((1, 2, 3))
        scale = Fraction(rng.randint(1, 5))
        f = (RA.beta(i, 1) ** 2).scale(scale)
        cert = x_ideal_membership(f, G, ("x1", "x2", "x3"), max_steps=500)
        assert cert.ok and cert.replay(G) == f
        CASES["replay"] += 1


def test_quadric_normal_form_bulk():
    rng = random.Random(SEED + 3)
    R = QUADRIC.ambient
    for _ in range(3000):
        f = random_poly(rng, R, max_terms=4, max_exp=4)
        g = random_poly(rng, R, max_terms=4, max_exp=4)
        left = divide_out(f * g, QUADRIC)
        right = divide_out(divide_out(f, QUADRIC) * divide_out(g, QUADRIC), QUADRIC)
        assert left == right
        assert is_quadric_normal(left)
        CASES["normal_form"] += 1
    # the flow respects the relation: reduce commutes with flowing numerics
    for _ in range(500):
        point = {
            "x": Fraction(rng.randint(-9, 9)),
            "y": Fraction(rng.randint(-9, 9)),
            "z": Fraction(rng.randint(-9, 9)),
        }
        s = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        f = random_poly(rng, R, max_terms=3, max_exp=3)
        moved = DANIELEWSKI.flow_point(point, s)
        nf = divide_out(f, QUADRIC)
        # the quadric vanishes only on the surface; off the surface the
        # normal form changes values by multiples of the quadric value
        qv = QUADRIC.evaluate(point)
        if qv == 0:
            assert f.evaluate(point) == nf.evaluate(point)
        CASES["normal_form"] += 1


def test_total_case_budget():
    total = sum(CASES.values())
    assert total >= 10_000, CASES
