import random
import time
from fractions import Fraction

import pytest

from plinth.cli import main
from plinth.derivation import Derivation
from plinth.polyring import Monomial, PolyError
from plinth.sl2 import (
    ComponentMembership,
    MAX_SUMMAND_DEGREE,
    RepSum,
    SigmaAction,
    build_raising_derivation,
    component_containment_check,
    component_membership,
    invariants_up_to_degree,
    plinth_test,
    positive_weight_kernel_count,
    positive_weight_vanishing_check,
    quadratic_invariants,
    sigma_on_V0,
)
from util import (
    all_weight_invariants,
    cayley_sylvester,
    every_piece_invariants,
    fraction_scale,
    fraction_terms,
    is_canonical,
    looped_component_membership,
    looped_negative_weight_coordinates,
    looped_nonpositive_weight_coordinates,
    looped_zero_weight_coordinates,
    nonpositive_weight_coordinates,
    nullcone_test,
    piece_dimension,
    walked_component_containment_check,
    walked_positive_weight_vanishing_check,
)


def test_rep_parse_and_names():
    rep = RepSum.parse("V[4]+V[2]")
    assert rep.degrees == (4, 2)
    assert len(rep.ambient) == 8
    assert str(rep) == "V[4]+V[2]"
    single = RepSum([3])
    assert single.ambient.names == ("x0", "x1", "x2", "x3")
    with pytest.raises(PolyError):
        RepSum.parse("W[2]")
    assert len(RepSum([MAX_SUMMAND_DEGREE]).ambient) == MAX_SUMMAND_DEGREE + 1
    with pytest.raises(PolyError, match="above the limit"):
        RepSum.parse(f"V[2]+V[{MAX_SUMMAND_DEGREE + 1}]")


def test_rep_parse_refuses_a_long_degree_numeral_in_one_line():
    # past Python's 4,300-digit int-string limit the degree is still read
    # and written exactly, and refused like any degree above the limit
    nines = "9" * 5000
    with pytest.raises(PolyError) as err:
        RepSum.parse(f"V[2]+V[{nines}]")
    assert str(err.value) == f"summand degree {nines} above the limit {MAX_SUMMAND_DEGREE}"


def test_rep_refuses_bad_degrees_in_one_line():
    # a negative degree past Python's int-string limit is written exactly,
    # and short ones as the tuple's repr
    huge = -(10**5000)
    with pytest.raises(PolyError) as err:
        RepSum([huge])
    assert str(err.value) == f"bad representation degrees (-1{'0' * 5000},)"
    for degrees in ([], [-1], [2, -3], [1, 2, -3]):
        with pytest.raises(PolyError) as err:
            RepSum(degrees)
        assert str(err.value) == f"bad representation degrees {tuple(degrees)!r}"


@pytest.mark.parametrize("spec", ["V[0]", "V[1]", "V[4]+V[2]", "V[3]+V[3]+V[0]"])
def test_weight_table_matches_the_per_summand_loops(spec):
    rep = RepSum.parse(spec)
    assert list(rep.weights) == list(rep.ambient.names)
    assert [rep.weights[name] for name in rep.ambient.names] == [
        space.n - 2 * i for space in rep.summands for i in range(space.n + 1)
    ]
    assert rep.zero_weight_coordinates() == looped_zero_weight_coordinates(rep)
    assert rep.negative_weight_coordinates() == looped_negative_weight_coordinates(rep)
    assert nonpositive_weight_coordinates(rep) == looped_nonpositive_weight_coordinates(rep)
    # plinth pairs whose zero-weight parts are equal, reflected, or unrelated
    rng = random.Random(spec)
    negative = set(rep.negative_weight_coordinates())
    seen = set()
    for trial in range(60):
        v, vp = (
            {n: 0 if n in negative else rng.randint(-3, 3) for n in rep.ambient.names}
            for _ in range(2)
        )
        for name in rep.zero_weight_coordinates():
            vp[name] = (v[name], -v[name], vp[name])[trial % 3]
        got = component_membership(rep, v, vp)
        assert got is looped_component_membership(rep, v, vp), (v, vp)
        seen.add(got)
    expected = {"V[0]": 2, "V[1]": 1, "V[4]+V[2]": 4, "V[3]+V[3]+V[0]": 2}[spec]
    assert len(seen) == expected


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
    assert max(D.witness.values()) <= 3
    rep = RepSum([5])
    D = build_raising_derivation(rep)
    assert max(D.witness.values()) == 6


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
        for d, w, f in every_piece_invariants(rep, D, 3):
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


def test_invariants_restricted_to_the_plinth_locus_keep_their_values():
    # component_containment_check evaluates each invariant without its terms
    # in the negative-weight coordinates, which vanish at every plinth point
    rng = random.Random(2718)
    for spec in ("V[4]+V[2]", "V[3]+V[3]+V[0]", "V[6]"):
        rep = RepSum.parse(spec)
        negative = rep.negative_weight_coordinates()
        D = build_raising_derivation(rep)
        invariants = invariants_up_to_degree(rep, D, 3)
        dropped = 0
        for f in invariants:
            kept = f.restrict_to_zero(negative)
            dropped += len(f) - len(kept)
            for trial in range(6):
                points = [
                    {
                        name: Fraction(0)
                        if name in negative
                        else Fraction(rng.randint(-9, 9), rng.randint(1, 1 + trial % 3))
                        for name in rep.ambient.names
                    }
                    for _ in range(2)
                ]
                at = [rep.ambient.integer_point(v) for v in points]
                for nums, den in at:
                    assert kept.evaluate_integer(nums, den) == f.evaluate_integer(nums, den)
                    if kept:  # same denominator q * den^top: the totals agree
                        assert kept.integer_total(nums, den) * f._integral[0] == (
                            f.integer_total(nums, den) * kept._integral[0]
                        )
                assert kept.agrees(*at) == f.agrees(*at)
        assert dropped > 0, spec


def test_trivial_summand_and_multiplicity():
    # V[0] contributes a single flow-constant coordinate
    rep = RepSum.parse("V[4]+V[2]+V[0]")
    assert len(rep.ambient) == 8 + 1 - 1 + 1  # 5 + 3 + 1
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
        restricted = flow[name].substitute(sub)
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
            (raw,) = D.graded_kernel(ws, rep.piece(2, 2 * n - 4 * k))
            top = Monomial(((x(0), 1), (x(2 * k), 1)) if k else ((x(0), 2),))
            lead = raw.coefficient(top)
            if type(lead) is int:
                int_leads.add(lead)
            want = fraction_scale(fraction_terms(raw), 1 / Fraction(lead))
            assert f._terms == want and is_canonical(f)
            assert str(f) == str(raw.scale(Fraction(1) / Fraction(lead)))
    assert -3 in int_leads


@pytest.mark.parametrize(
    "spec", ["V[4]+V[2]", "V[4]+V[4]", "V[3]+V[1]", "V[2]+V[2]+V[2]", "V[3]+V[2]"]
)
def test_invariants_skip_negative_weights_matches_all_weight_oracle(spec):
    rep = RepSum.parse(spec)
    D = build_raising_derivation(rep)
    got = invariants_up_to_degree(rep, D, 3)
    every = all_weight_invariants(rep, D, 3)
    want = [f for _, w, f in every if w == 0]
    assert [str(f) for f in got] == [str(f) for f in want]
    assert got == want and all(w >= 0 for _, w, _ in every)
    # the positive-weight pieces are counted, not solved
    assert positive_weight_kernel_count(rep, 3) == sum(w > 0 for _, w, _ in every)


def test_sl2_command_builds_each_graded_kernel_once(monkeypatch, capsys):
    # positive_weight_vanishing_check and component_containment_check read
    # the same invariants: one raising derivation per representation, and
    # each piece solved once by it
    quadratic_invariants.cache_clear()
    solved = []
    real = Derivation.kernel_on_monomials

    def counted(self, monomials):
        solved.append((self, tuple(monomials)))
        return real(self, monomials)

    monkeypatch.setattr(Derivation, "kernel_on_monomials", counted)
    assert main(["sl2", "--rep", "V[4]+V[2]", "--samples", "20"]) == 0
    # the 3 weight-0 pieces of V[4]+V[2] up to degree 3 (its 12 pieces of
    # positive weight are counted, not solved), and the 3 + 2 quadratic
    # pieces of V[4] and V[2] alone
    assert len(solved) == len(set(solved)) == 8
    rep = RepSum.parse("V[4]+V[4]")
    before = len(solved)
    assert positive_weight_vanishing_check(rep, 3, samples=5).ok
    assert len(solved) == before  # it counts the pieces and solves none
    assert component_containment_check(rep, 3, samples=5).ok
    assert len(solved) == before + 3  # the weight-0 pieces, once
    assert component_containment_check(rep, 3, samples=5).ok
    D = build_raising_derivation(rep)
    assert D is build_raising_derivation(rep) and rep.weight_system() is rep.weight_system()
    ws = rep.weight_system()
    lower = [f for f in invariants_up_to_degree(rep, D, 3) if ws.multidegree(f)[0] <= 2]
    assert invariants_up_to_degree(rep, D, 2) == lower
    assert len(solved) == before + 3
    capsys.readouterr()


def test_sl2_command_solves_the_quadratic_invariants_once(monkeypatch, capsys):
    # the quadratic pieces are solved over RepSum([n]) by quadratic_invariants
    # alone, once per n and process, and shared as one immutable tuple
    quadratic_invariants.cache_clear()
    solved = []
    real = Derivation.kernel_on_monomials

    def counted(self, monomials):
        solved.append(len(self.ambient))
        return real(self, monomials)

    monkeypatch.setattr(Derivation, "kernel_on_monomials", counted)
    assert main(["sl2", "--rep", "V[3]+V[3]", "--degree", "2", "--samples", "5"]) == 0
    # V[3] alone has 4 coordinates and 2 quadratic pieces
    assert solved.count(4) == 2
    fks = quadratic_invariants(3)
    assert type(fks) is tuple and fks is quadratic_invariants(3)
    capsys.readouterr()


def test_graded_kernels_match_the_cayley_sylvester_count():
    # a seeded sweep over random sums, at every torus weight of each degree
    # and one step past either end
    rng = random.Random(1857)
    pieces = 0
    for _ in range(12):
        rep = RepSum([rng.randint(0, 6) for _ in range(rng.randint(1, 3))])
        D = build_raising_derivation(rep)
        ws = rep.weight_system()
        for d in range(1, 6):
            span = d * rep.max_weight
            for w in range(-span - 1, span + 2):
                got = len(D.graded_kernel(ws, rep.piece(d, w)))
                assert got == cayley_sylvester(rep, d, w), (str(rep), d, w)
                pieces += got > 0
    assert pieces == 420  # of 1,500 pieces


def test_large_v6_weight_zero_kernels_match_the_cayley_sylvester_count():
    # 676 and 1,242 columns: sizes the sympy oracle cannot reach
    rep = RepSum([6])
    D = build_raising_derivation(rep)
    ws = rep.weight_system()
    start = time.perf_counter()
    for d, dim in ((12, 8), (14, 10)):
        assert cayley_sylvester(rep, d, 0) == dim
        assert len(D.graded_kernel(ws, rep.piece(d, 0))) == dim
    assert time.perf_counter() - start < 2.0


def test_sl2_reports_match_the_every_piece_walk():
    # the positive-weight counts in the notes come from the piece-size table;
    # the walk solves every piece of weight >= 0 and checks each element
    # V[0] and V[0]+V[0] have no negative-weight coordinate, so the
    # vanishing check samples no witness
    cases = [(RepSum([0]), 3, 5), (RepSum([0, 0]), 2, 6)]
    rng = random.Random(2600)
    for _ in range(30):
        rep = RepSum([rng.randint(0, 5) for _ in range(rng.randint(1, 3))])
        cases.append((rep, rng.randint(1, 4), rng.randint(0, 10**6)))
    skipped = 0
    for rep, degree, seed in cases:
        pairs = (
            (positive_weight_vanishing_check, walked_positive_weight_vanishing_check, 9),
            (component_containment_check, walked_component_containment_check, 12),
        )
        for fast, slow, samples in pairs:
            report = fast(rep, degree, samples=samples, seed=seed)
            got = report.to_dict()
            want = slow(rep, degree, samples=samples, seed=seed).to_dict()
            del got["ms"], want["ms"]
            assert got == want and report.ok, (str(rep), degree, seed)
            skipped += "no negative-weight coordinates: witness sampling skipped" in got["details"]
    assert skipped == 2


def test_piece_size_table_matches_the_monomial_walk():
    rng = random.Random(2601)
    reps = [RepSum([64]), RepSum([12]), RepSum([0, 0])]
    reps += [RepSum([rng.randint(0, 7) for _ in range(rng.randint(1, 4))]) for _ in range(10)]
    for rep in reps:
        ws = rep.weight_system()
        bound = 2 if rep.max_weight > 8 else 4
        for d in range(bound + 1):
            sizes = rep.piece_sizes(d)
            span = d * rep.max_weight
            assert set(sizes) <= set(range(-span, span + 1))
            for w in range(-span - 1, span + 2):
                walked = len(ws.monomial_basis(rep.piece(d, w)))
                assert sizes.get(w, 0) == walked == piece_dimension(rep, d, w), (str(rep), d, w)


def test_cayley_sylvester_count_matches_the_eliminated_kernels():
    # weight 0 as the checks solve it, and the positive weights the count
    # telescopes over, against their eliminated kernel dimensions
    rng = random.Random(2602)
    reps = [RepSum([6]), RepSum([3, 3, 0]), RepSum([1, 1])]
    reps += [RepSum([rng.randint(0, 6) for _ in range(rng.randint(1, 3))]) for _ in range(8)]
    for rep in reps:
        D = build_raising_derivation(rep)
        ws = rep.weight_system()
        bound = 8 if len(rep.ambient) <= 4 else 4
        for d in range(1, bound + 1):
            sizes = rep.piece_sizes(d)
            kernel = D.graded_kernel(ws, rep.piece(d, 0))
            assert sizes.get(0, 0) - sizes.get(2, 0) == len(kernel), (str(rep), d)
        positive = sum(w > 0 for _, w, _ in every_piece_invariants(rep, D, bound))
        assert positive_weight_kernel_count(rep, bound) == positive, str(rep)
