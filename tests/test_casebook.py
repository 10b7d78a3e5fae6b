import random
from fractions import Fraction

import pytest

from plinth.casebook import (
    PLANE,
    QUADRIC,
    danielewski_checks,
    danielewski_derivation,
    divide_out,
    example1_conductor_check,
    example1_membership,
    example1_phi_separation,
    sigma_hat,
    sl2_mod_n_checks,
)
from plinth.polyring import PolyError, VariableSet
from util import (
    exp_flow,
    fraction_sub_scaled,
    fraction_terms,
    is_canonical,
    is_quadric_normal,
    random_poly,
)


def test_membership_examples():
    assert example1_membership(PLANE.poly("x*y^5"))
    assert not example1_membership(PLANE.poly("y"))
    assert example1_membership(PLANE.poly("3 + 2*x*y"))
    assert example1_membership(PLANE.poly("7"))
    assert example1_membership(PLANE.zero())


def test_membership_closed_under_ring_operations():
    rng = random.Random(31)
    members = []
    while len(members) < 12:
        f = random_poly(rng, PLANE, max_terms=4)
        # force into R: multiply the nonconstant part by x
        g = f * PLANE.variable("x") + PLANE.constant(rng.randint(-3, 3))
        members.append(g)
    for i in range(0, 12, 2):
        a, b = members[i], members[i + 1]
        assert example1_membership(a + b)
        assert example1_membership(a * b)


def test_conductor_cases():
    r = example1_conductor_check(PLANE.poly("x"), 6)
    assert r.ok and r.params["case"] == "case_m0"
    r = example1_conductor_check(PLANE.poly("1 + x*y"), 6)
    assert r.ok and r.params["case"] == "case_R_minus_m0"
    r = example1_conductor_check(PLANE.poly("y"), 6)
    assert r.ok and r.params["case"] == "case_not_in_R"
    with pytest.raises(PolyError):
        example1_conductor_check(PLANE.zero())


def test_conductor_more_polynomials():
    for text, case in (
        ("x*y^2", "case_m0"),
        ("5 + x^2*y", "case_R_minus_m0"),
        ("y^2 + x", "case_not_in_R"),
        ("3", "case_R_minus_m0"),
    ):
        r = example1_conductor_check(PLANE.poly(text), 5)
        assert r.ok, (text, r.details)
        assert r.params["case"] == case


def test_phi_separation_sampling():
    assert example1_phi_separation(300).ok


def test_phi_collapse_on_x_zero_line():
    gens = [PLANE.poly("x" if k == 0 else f"x*y^{k}") for k in range(7)]
    p = {"x": Fraction(0), "y": Fraction(5)}
    q = {"x": Fraction(0), "y": Fraction(7)}
    assert all(g.evaluate(p) == g.evaluate(q) == 0 for g in gens)


def test_quadric_reduce_idempotent_and_sound():
    R = QUADRIC.ambient
    rng = random.Random(33)
    for _ in range(50):
        f = random_poly(rng, R, max_terms=5, max_exp=4)
        nf = divide_out(f, QUADRIC)
        assert is_quadric_normal(nf)
        assert divide_out(nf, QUADRIC) == nf
        # soundness: the difference is divisible by the quadric relation
        assert divide_out(f - nf, R.poly("y^2 - y - x*z")).is_zero()


def test_quadric_normal_form_respects_products():
    R = QUADRIC.ambient
    rng = random.Random(34)
    for _ in range(60):
        f = random_poly(rng, R, max_terms=4, max_exp=3)
        g = random_poly(rng, R, max_terms=4, max_exp=3)
        nf = divide_out(f * g, QUADRIC)
        assert nf == divide_out(divide_out(f, QUADRIC) * divide_out(g, QUADRIC), QUADRIC)


def test_quadric_normal_form_matches_sympy_lex_remainder():
    # one generator is a Groebner basis, so both remainders are the normal form
    sympy = pytest.importorskip("sympy")
    x, y, z = sympy.symbols("x y z")
    R = QUADRIC.ambient
    q = x * z - y**2 + y
    rng = random.Random(36)
    for _ in range(60):
        f = random_poly(rng, R, max_terms=5, max_exp=4)
        _, want = sympy.reduced(sympy.sympify(str(f).replace("^", "**")), [q], z, y, x, order="lex")
        got = sympy.sympify(str(divide_out(f, QUADRIC)).replace("^", "**"))
        assert sympy.expand(got - want) == 0, f


def test_divide_out_exact_multiples():
    A = VariableSet(("a", "d", "b", "c"))
    g = A.poly("a*d - b*c - 1")
    q = A.poly("a*b - 3*c + 2")
    assert divide_out(q * g, g).is_zero()
    assert divide_out(q * g + A.one(), g) == A.one()


def test_divide_out_integer_leading_coefficient_matches_fraction_oracle():
    # lt(g) = 3*a*d: each quotient coefficient is an int over the int 3
    A = VariableSet(("a", "d", "b", "c"))
    g = A.poly("3*a*d - b*c - 1")
    rng = random.Random(31)
    G = fraction_terms(g)
    lt_m, lt_c = max(G), G[max(G)]
    for _ in range(40):
        f = random_poly(rng, A, max_terms=5, max_exp=3, coef_range=7)
        cur, rem = fraction_terms(f), {}
        while cur:
            m = max(cur)
            if lt_m.divides(m):
                cur = fraction_sub_scaled(cur, cur[m] / lt_c, m.divide(lt_m), G)
            else:
                rem[m] = cur.pop(m)
        got = divide_out(f, g)
        assert got._terms == rem and is_canonical(got)
        assert divide_out(f * g, g).is_zero()


def test_danielewski_derivation_kills_quadric():
    D = danielewski_derivation()
    assert D.apply(QUADRIC).is_zero()
    assert D.local_slice_check(QUADRIC.ambient.variable("z"), QUADRIC.ambient.variable("y"))


def test_danielewski_full_suite():
    rep = danielewski_checks(samples=15, seed=3)
    assert rep.ok, rep.details


def test_danielewski_flow_preserves_quadric_ideal():
    D = danielewski_derivation()
    flowed = exp_flow(D, QUADRIC)
    assert flowed == QUADRIC.lift(flowed.ambient)


def test_sigma_hat_involution():
    R = QUADRIC.ambient
    assert sigma_hat(QUADRIC) == QUADRIC
    rng = random.Random(35)
    for _ in range(20):
        f = random_poly(rng, R, max_terms=4)
        assert sigma_hat(sigma_hat(f)) == f


def test_sl2_mod_n_suite():
    rep = sl2_mod_n_checks(degree_bound=6)
    assert rep.ok, rep.details
    assert any("commutation sign: +1" in str(note) for note in rep.details)


def test_sl2_mod_n_passes_at_every_bound_to_12():
    for bound in range(1, 13):
        rep = sl2_mod_n_checks(degree_bound=bound)
        assert rep.ok, (bound, rep.details)
        assert rep.details[0] == "commutation sign: +1 (the maps commute exactly)"
