import random
from fractions import Fraction

import pytest

from plinth.polyring import Monomial, PolyError
from plinth.sl2 import (
    ComponentMembership,
    RepSum,
    SigmaAction,
    build_raising_derivation,
    component_containment_check,
    component_membership,
    invariants_up_to_degree,
    nullcone_test,
    plinth_test,
    positive_weight_vanishing_check,
    quadratic_invariants,
    sigma_on_V0,
)
from util import all_weight_invariants, fraction_scale, fraction_terms, is_canonical


def test_rep_parse_and_names():
    rep = RepSum.parse("V[4]+V[2]")
    assert rep.degrees == (4, 2)
    assert rep.dim() == 8
    assert str(rep) == "V[4]+V[2]"
    single = RepSum([3])
    assert single.ambient.names == ("x0", "x1", "x2", "x3")
    with pytest.raises(PolyError):
        RepSum.parse("W[2]")


def test_raising_derivation_scalars_locked():
    # regression: the derived convention gives D(x_i) = (n - i + 1) x_(i-1)
    for n in (1, 2, 3, 4, 5):
        rep = RepSum([n])
        D = build_raising_derivation(rep)
        assert D.apply(rep.ambient.variable("x0")).is_zero()
        for i in range(1, n + 1):
            expected = rep.ambient.variable(f"x{i - 1}").scale(n - i + 1)
            assert D.apply(rep.ambient.variable(f"x{i}")) == expected


def test_raising_derivation_on_v1():
    rep = RepSum([1])
    D = build_raising_derivation(rep)
    assert D.apply(rep.ambient.variable("x1")) == rep.ambient.variable("x0")


def test_weight_shift_is_plus_two():
    for n in (2, 3, 4):
        rep = RepSum([n])
        D = build_raising_derivation(rep)
        ws = rep.weight_system()
        # shifted grading: degree contributes 0, weight contributes +2
        assert D.weight_shift(ws) == (0, 2)


def test_nilpotency_witness_bound():
    rep = RepSum([2])
    D = build_raising_derivation(rep)
    assert max(D.witness.orders.values()) <= 3
    rep = RepSum([5])
    D = build_raising_derivation(rep)
    assert max(D.witness.orders.values()) == 6


def test_quadratic_invariant_counts_and_support():
    for n in range(0, 9):
        fks = quadratic_invariants(n)
        assert len(fks) == n // 2 + 1
        rep = RepSum([n])
        D = build_raising_derivation(rep)
        for k, f in enumerate(fks):
            assert D.apply(f).is_zero()
            assert len(f) == k + 1  # one term per pair x_j x_(2k-j)
            top = f.coefficient(
                __import__("plinth.polyring", fromlist=["Monomial"]).Monomial(
                    ((rep.ambient.index("x0"), 2),)
                    if k == 0
                    else (
                        (rep.ambient.index("x0"), 1),
                        (rep.ambient.index(f"x{2 * k}"), 1),
                    )
                )
            )
            assert top == 1


def test_quadratic_invariant_f1_discriminant_type():
    f1 = quadratic_invariants(2)[1]
    rep = RepSum([2])
    alpha = f1.coefficient(
        __import__("plinth.polyring", fromlist=["Monomial"]).Monomial(
            ((rep.ambient.index("x1"), 2),)
        )
    )
    assert alpha != 0


def test_nullcone_and_plinth_tests():
    rep = RepSum([2])
    e2 = {"x0": 0, "x1": 0, "x2": 5}
    e1 = {"x0": 0, "x1": 3, "x2": 5}
    origin = {"x0": 0, "x1": 0, "x2": 0}
    off = {"x0": 1, "x1": 0, "x2": 0}
    assert nullcone_test(rep, e2) and plinth_test(rep, e2)
    assert not nullcone_test(rep, e1) and plinth_test(rep, e1)
    assert nullcone_test(rep, origin) and plinth_test(rep, origin)
    assert not nullcone_test(rep, off) and not plinth_test(rep, off)
    # a coordinate that is not rational is one PolyError, not a float's
    # binary fraction or a bare ValueError
    for bad in (0.5, "1/2", "abc"):
        for test in (nullcone_test, plinth_test):
            with pytest.raises(PolyError) as err:
                test(rep, dict(origin, x0=bad))
            assert repr(bad) in str(err.value) and "\n" not in str(err.value)


def test_nullcone_points_kill_positive_degree_invariants():
    rep = RepSum([4])
    D = build_raising_derivation(rep)
    rng = random.Random(50)
    for _ in range(20):
        v = {name: Fraction(0) for name in rep.ambient.names}
        # nullcone: only components with 2i > n may be nonzero
        for i, name in enumerate(rep.ambient.names):
            if 2 * i > 4:
                v[name] = Fraction(rng.randint(-9, 9))
        assert nullcone_test(rep, v)
        for d, w, f in invariants_up_to_degree(rep, D, 3):
            assert f.evaluate(v) == 0


def test_sigma_table():
    assert sigma_on_V0(2) is SigmaAction.MINUS_IDENTITY
    assert sigma_on_V0(4) is SigmaAction.TRIVIAL
    assert sigma_on_V0(3) is SigmaAction.ZERO_SPACE
    assert sigma_on_V0(6) is SigmaAction.MINUS_IDENTITY
    assert sigma_on_V0(8) is SigmaAction.TRIVIAL
    assert sigma_on_V0(0) is SigmaAction.TRIVIAL


def test_positive_weight_vanishing_various_reps():
    for spec in ("V[2]", "V[3]", "V[4]", "V[4]+V[2]"):
        rep = RepSum.parse(spec)
        assert positive_weight_vanishing_check(rep, 3).ok


def test_witness_rule_first_nonzero_coordinate():
    # v = e0 + e2 in V[3]: first nonzero index 0 < 3/2, f_0 = x0^2 nonzero
    rep = RepSum([3])
    f0 = quadratic_invariants(3)[0]
    v = {"x0": Fraction(1), "x1": Fraction(0), "x2": Fraction(1), "x3": Fraction(0)}
    assert f0.evaluate(v) == 1
    assert not plinth_test(rep, v)


def test_component_membership_v2():
    rep = RepSum([2])
    v = {"x0": 0, "x1": 2, "x2": 5}
    # sigma acts by -id on the zero-weight line of V[2]
    assert component_membership(rep, v, {"x0": 0, "x1": -2, "x2": 7}) is (
        ComponentMembership.IN_C_SIGMA
    )
    assert component_membership(rep, v, {"x0": 0, "x1": 2, "x2": 9}) is (
        ComponentMembership.IN_C
    )
    assert component_membership(rep, v, {"x0": 0, "x1": 1, "x2": 9}) is (
        ComponentMembership.NEITHER
    )
    zero0 = {"x0": 0, "x1": 0, "x2": 3}
    assert component_membership(rep, zero0, zero0) is ComponentMembership.BOTH


def test_component_membership_diagonal_trivial_sigma():
    rep = RepSum([4])
    v = {name: 0 if 2 * i < 4 else i for i, name in enumerate(rep.ambient.names)}
    assert component_membership(rep, v, v) is ComponentMembership.BOTH


def test_component_membership_requires_plinth():
    rep = RepSum([2])
    with pytest.raises(PolyError):
        component_membership(rep, {"x0": 1, "x1": 0, "x2": 0}, {"x0": 0, "x1": 0, "x2": 0})
    # a zero-weight coordinate that is not rational is rejected, not read
    # as a float's binary fraction (0.1 != 1/10 would say NEITHER)
    exact = {"x0": 0, "x1": Fraction(1, 10), "x2": 1}
    for bad in (0.1, 0.5, "1/2", "abc"):
        for pair in ((dict(exact, x1=bad), exact), (exact, dict(exact, x1=bad))):
            with pytest.raises(PolyError) as err:
                component_membership(rep, *pair)
            assert repr(bad) in str(err.value) and "\n" not in str(err.value)


def test_component_containment_sampling():
    for spec in ("V[2]", "V[4]", "V[4]+V[2]"):
        rep = RepSum.parse(spec)
        assert component_containment_check(rep, 3, samples=60).ok


def test_trivial_summand_and_multiplicity():
    # V[0] contributes a single flow-constant coordinate
    rep = RepSum.parse("V[4]+V[2]+V[0]")
    assert rep.dim() == 8 + 1 - 1 + 1  # 5 + 3 + 1
    D = build_raising_derivation(rep)
    v0_coord = rep.summands[2].coordinates[0]
    assert D.apply(rep.ambient.variable(v0_coord)).is_zero()
    assert v0_coord in rep.zero_weight_coordinates()
    assert positive_weight_vanishing_check(rep, 2, samples=10).ok
    # repeated summands get distinct coordinates and independent flows
    rep2 = RepSum([2, 2])
    D2 = build_raising_derivation(rep2)
    a, b = rep2.summands
    assert set(a.coordinates).isdisjoint(b.coordinates)
    for space in (a, b):
        assert D2.apply(rep2.ambient.variable(space.coordinates[0])).is_zero()
        img = D2.apply(rep2.ambient.variable(space.coordinates[2]))
        assert img == rep2.ambient.variable(space.coordinates[1])
    assert component_containment_check(rep2, 2, samples=40).ok


def test_flow_preserves_zero_weight_component():
    # the flow raises weights, so the zero-weight coordinate of a plinth
    # point never moves: check symbolically on the coordinate flows
    rep = RepSum.parse("V[4]+V[2]")
    D = build_raising_derivation(rep)
    extended, flow = D.flow_images()
    negative = set(rep.negative_weight_coordinates())
    sub = {
        name: (extended.zero() if name in negative else extended.variable(name))
        for name in extended.names
    }
    for name in rep.zero_weight_coordinates():
        restricted = flow[name].substitute(sub, extended)
        assert restricted == extended.variable(name)


def test_quadratic_invariant_normalization_matches_fraction_oracle():
    # each f_k is the kernel basis vector divided by its x0*x2k coefficient;
    # that coefficient is an int (lead = -3 for V[3], k = 1)
    int_leads = set()
    for n in range(1, 7):
        rep = RepSum([n])
        D = build_raising_derivation(rep)
        ws = rep.weight_system()
        x = lambda j: rep.ambient.index(f"x{j}")
        for k, f in enumerate(quadratic_invariants(n)):
            (raw,) = D.graded_kernel(ws, rep.piece(2, 2 * n - 4 * k)).basis
            top = Monomial(((x(0), 1), (x(2 * k), 1)) if k else ((x(0), 2),))
            lead = raw.coefficient(top)
            if type(lead) is int:
                int_leads.add(lead)
            want = fraction_scale(fraction_terms(raw), 1 / Fraction(lead))
            assert f._terms == want and is_canonical(f)
            assert str(f) == str(raw.scale(Fraction(1) / Fraction(lead)))
    assert -3 in int_leads


@pytest.mark.parametrize("spec", ["V[4]+V[2]", "V[4]+V[4]", "V[3]+V[1]", "V[2]+V[2]+V[2]"])
def test_invariants_skip_negative_weights_matches_all_weight_oracle(spec):
    rep = RepSum.parse(spec)
    D = build_raising_derivation(rep)
    got = invariants_up_to_degree(rep, D, 3)
    want = all_weight_invariants(rep, D, 3)
    assert [(d, w, str(f)) for d, w, f in got] == [(d, w, str(f)) for d, w, f in want]
    assert got == want and all(w >= 0 for _, w, _ in got)
