"""Acceptance suite: one test per criterion, exact checks, pinned budgets.

Every check is an exact identity, an exact kernel dimension, or a
replayable certificate; the only tolerances are the wall-clock budgets,
asserted per criterion.  One pass/fail line per criterion is echoed into
the terminal summary.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import conftest
from plinth import linalg
from plinth.polyring import Monomial
from plinth.roberts import roberts_action
from plinth.sagbi import verify_sagbi
from plinth.separating import (
    graph_vs_separation_sampling,
    separates,
    separating_set_equivalence,
    solve_group_element,
)
from plinth import casebook, sl2
from util import in_span, xy_graded_kernel

RA = roberts_action()
R7 = RA.ring
SEED = 1729


@contextmanager
def criterion(num: int, description: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        conftest.ACCEPTANCE_LINES.append(
            f"[FAIL] criterion {num:2d}: {description} ({elapsed:.1f} s)"
        )
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget_s:
        conftest.ACCEPTANCE_LINES.append(
            f"[FAIL] criterion {num:2d}: {description} "
            f"(over budget: {elapsed:.1f} s >= {budget_s} s)"
        )
        raise AssertionError(
            f"criterion {num} exceeded its {budget_s} s budget: {elapsed:.1f} s"
        )
    conftest.ACCEPTANCE_LINES.append(
        f"[PASS] criterion {num:2d}: {description} ({elapsed:.1f} s)"
    )


def test_criterion_01_invariance_identities():
    with criterion(1, "defining invariants are flow-constant; hypersurface relation", 1.0):
        for f in (RA.u12, RA.u13, RA.u23):
            assert RA.D.apply(f).is_zero()
        for i in (1, 2, 3):
            assert RA.D.apply(RA.beta(i, 1)).is_zero()
        # the multidegree-consistent pairing of x_i^3 with the u's
        combo = (
            R7.poly("x1^3") * RA.u23
            - R7.poly("x2^3") * RA.u13
            + R7.poly("x3^3") * RA.u12
        )
        assert combo.is_zero()
        assert RA.y0_relation_check()


def test_criterion_02_y1_ideal_generators():
    with criterion(2, "all five relations among the nine invariants vanish", 5.0):
        rep = RA.y1_ideal_check()
        assert rep.ok, rep.details


def test_criterion_03_beta_construction():
    with criterion(3, "beta(i, n) for n <= 5: canonical form, exact match at (1,2)", 60.0):
        for i in (1, 2, 3):
            for n in range(6):
                b = RA.beta(i, n)
                assert RA.D.apply(b).is_zero()
                m, c = b.leading_term()
                assert c == 1
                expected_lt = Monomial(
                    ((R7.index(f"x{i}"), 1),) + (((R7.index("z"), n),) if n else ())
                )
                assert m == expected_lt
                assert RA.weights.multidegree(b) == RA.beta_degree(i, n)
                assert RA.verify_beta_form(i, n).ok
        stated = R7.poly(
            "x1*z^2 - 2*x2^2*x3^2*y1*z + x1^2*x2^4*x3*y1*y3"
            " + x1^2*x2*x3^4*y1*y2 - x1^5*x2*x3*y2*y3"
        )
        assert RA.D.apply(stated).is_zero()
        assert RA.beta(1, 2) == stated


def test_criterion_04_graded_kernels():
    with criterion(4, "graded kernel dimensions 1, 3, 2 with the stated bases", 30.0):
        k322 = xy_graded_kernel(RA, (3, 2, 2))
        assert k322 == [R7.poly("x1^3*x2^2*x3^2")]

        k544 = xy_graded_kernel(RA, (5, 4, 4))
        assert len(k544) == 3
        stated = [
            R7.poly("x1^5*x2^4*x3^4"),
            R7.poly("x1^2*x2*x3^4") * RA.u12,
            R7.poly("x1^2*x2^4*x3") * RA.u13,
        ]
        monos = sorted(
            {m for p in k544 + stated for m in p.monomials()}
        )
        vec = lambda p: [p.coefficient(m) for m in monos]
        assert linalg.same_span([vec(p) for p in k544], [vec(p) for p in stated])

        kfull = RA.D.graded_kernel(RA.weights, (3, 2, 2))
        assert len(kfull) == 2
        monos = sorted(
            {m for p in kfull for m in p.monomials()}
            | set(RA.beta(1, 1).monomials())
        )
        vec = lambda p: [p.coefficient(m) for m in monos]
        span = [vec(p) for p in kfull]
        assert in_span(span, vec(RA.beta(1, 1)))


def test_criterion_05_sagbi_verification():
    with criterion(5, "S_N tete-a-tetes (degree <= 10) subduct to zero, N <= 3", 300.0):
        for N in range(4):
            rep = verify_sagbi(
                RA.catalog(N), 10, check_id=f"sagbi.{N}"
            )
            assert rep.ok, (N, rep.details)
            fam = RA.sagbi_family_checks(N)
            assert fam.ok, (N, fam.details)


def test_criterion_06_an_lemma_sweep():
    with criterion(6, "conductor chain checks for N <= 3 at multidegree bound 8", 300.0):
        for N in range(4):
            rep = RA.an_lemma_checks(N, degree_bound=8)
            assert rep.ok, (N, rep.details)


def test_criterion_07_radical_structure():
    with criterion(7, "beta squares in (x); u-degrees rank 3; u-powers x-free", 120.0):
        rep = RA.radical_structure_check(N=3, degree_bound=6)
        assert rep.ok, rep.details
        for i in (1, 2, 3):
            for n in (1, 2, 3):
                cert = RA.square_in_x_ideal(i, n)
                assert cert.ok
                assert cert.replay(RA.catalog(2 * n)) == RA.beta(i, n) ** 2


def test_criterion_08_fixed_point_collapse():
    with criterion(8, "every S_4 generator is constant on the locus x = 0", 30.0):
        assert RA.fixed_point_collapse(4)
        # and the flow fixes that locus pointwise, exactly in the parameter
        extended, flow = RA.D.flow_images()
        sub = {
            name: (extended.zero() if name.startswith("x") else extended.variable(name))
            for name in extended.names
        }
        for name in R7.names:
            assert flow[name].substitute(sub) == extended.variable(name).substitute(sub)


def test_criterion_09_sl2_module():
    with criterion(9, "binary forms: quadratic invariants, plinth cutout, components", 180.0):
        for n in range(9):
            fks = sl2.quadratic_invariants(n)
            assert len(fks) == n // 2 + 1
        for spec in ("V[2]", "V[3]", "V[4]", "V[4]+V[2]"):
            rep = sl2.RepSum.parse(spec)
            out = sl2.positive_weight_vanishing_check(rep, 3, seed=SEED)
            assert out.ok, (spec, out.details)
        assert sl2.sigma_on_V0(2) is sl2.SigmaAction.MINUS_IDENTITY
        assert sl2.sigma_on_V0(3) is sl2.SigmaAction.ZERO_SPACE
        assert sl2.sigma_on_V0(4) is sl2.SigmaAction.TRIVIAL
        assert sl2.sigma_on_V0(6) is sl2.SigmaAction.MINUS_IDENTITY
        for spec in ("V[2]", "V[4]", "V[4]+V[2]"):
            rep = sl2.RepSum.parse(spec)
            out = sl2.component_containment_check(rep, 3, samples=200, seed=SEED)
            assert out.ok, (spec, out.details)


def test_criterion_10_separation_sampling():
    with criterion(10, "1000 seeded trials: orbits, fixed locus, set equivalence", 120.0):
        import random

        rep = graph_vs_separation_sampling(
            RA.D,
            RA.catalog(1),
            trials=1000,
            seed=SEED,
            plinth_indicator=RA.on_plinth,
            plinth_sampler=RA.plinth_point,
            plinth_unseparated=True,
        )
        assert rep.ok, rep.details

        # flow pairs are never separated, with the parameter recovered exactly
        rng = random.Random(SEED)
        for _ in range(50):
            v = {n: Fraction(rng.randint(-9, 9)) for n in R7.names}
            s = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
            vp = RA.D.flow_point(v, s)
            assert separates(v, vp, RA.catalog(4)) is None
            if not RA.on_plinth(v):
                assert solve_group_element(v, vp, RA.D) == s

        eq = separating_set_equivalence(
            RA.catalog(1), RA.catalog(4), RA.D, trials=1000, seed=SEED
        )
        assert eq.ok, eq.details


def test_criterion_11_casebook():
    with criterion(11, "plane monomial subring, quadric surface, its involution", 60.0):
        P = casebook.PLANE
        for text, case in (
            ("x", "case_m0"),
            ("1 + x*y", "case_R_minus_m0"),
            ("y", "case_not_in_R"),
        ):
            rep = casebook.example1_conductor_check(P.poly(text), 6)
            assert rep.ok and rep.params["case"] == case
        assert casebook.example1_phi_separation(500, seed=SEED).ok
        dan = casebook.danielewski_checks(seed=SEED)
        assert dan.ok, dan.details
        sln = casebook.sl2_mod_n_checks()
        assert sln.ok, sln.details


def test_criterion_12_property_suites():
    with criterion(12, "Leibniz, flow group law, replay, normal form: >= 10^4 cases", 180.0):
        import test_properties as props

        before = sum(props.CASES.values())
        props.test_leibniz_rule_bulk()
        props.test_flow_group_law_bulk()
        props.test_certificate_replay_bulk()
        props.test_quadric_normal_form_bulk()
        ran = sum(props.CASES.values()) - before
        assert ran >= 10_000, ran
