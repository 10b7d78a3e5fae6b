from fractions import Fraction
from math import comb

import pytest

from plinth.polyring import Monomial, PolyError, VariableSet
from plinth.roberts import (
    IMAGE_NAMES_9,
    Y0_RELATION,
    Y1_GENERATORS,
    RobertsAction,
    _parse_with_products,
    roberts_action,
)
from util import naive_nullspace, span_leading_monomials, three_elimination_beta

RA = roberts_action()
R7 = RA.ring


def test_ring_and_weights():
    assert R7.names == ("x1", "x2", "x3", "y1", "y2", "y3", "z")
    assert RA.weights.weight_of("y2") == (0, 3, 0)
    assert RA.weights.weight_of("z") == (2, 2, 2)
    assert RA.D.weight_shift(RA.weights) == (0, 0, 0)


def test_stated_invariants_are_invariant():
    for f in (RA.u12, RA.u13, RA.u23, RA.beta(1, 1), RA.beta(2, 1), RA.beta(3, 1)):
        assert RA.D.apply(f).is_zero()


def test_beta_base_cases():
    assert RA.beta(1, 0) == R7.variable("x1")
    assert RA.beta(2, 0) == R7.variable("x2")
    assert RA.beta(1, 1) == R7.poly("x1*z - x2^2*x3^2*y1")
    assert RA.beta(2, 1) == R7.poly("x2*z - x1^2*x3^2*y2")
    assert RA.beta(3, 1) == R7.poly("x3*z - x1^2*x2^2*y3")


def test_beta_1_2_exact_polynomial():
    stated = R7.poly(
        "x1*z^2 - 2*x2^2*x3^2*y1*z + x1^2*x2^4*x3*y1*y3"
        " + x1^2*x2*x3^4*y1*y2 - x1^5*x2*x3*y2*y3"
    )
    # independent route: the stated polynomial is itself flow-constant
    assert RA.D.apply(stated).is_zero()
    assert RA.beta(1, 2) == stated


def test_beta_family_structure():
    for i in (1, 2, 3):
        for n in range(0, 6):
            b = RA.beta(i, n)
            assert RA.D.apply(b).is_zero()
            m, c = b.leading_term()
            assert c == 1
            assert m == Monomial(
                ((R7.index(f"x{i}"), 1),) + (((R7.index("z"), n),) if n else ())
            )
            assert RA.weights.multidegree(b) == RA.beta_degree(i, n)


def test_beta_matches_three_elimination_oracle():
    for n in range(5):
        for i in (1, 2, 3):
            assert RA.beta(i, n) == three_elimination_beta(RA, i, n)


def test_slice_targets_match_the_parsed_canonical_slices():
    """The pinned slices built from monomials equal the text in the module
    docstring, parsed; the beta oracles read the same slices, so this pins
    them independently."""
    for i in (1, 2, 3):
        j, k = sorted({1, 2, 3} - {i})
        for n in range(5):
            want = {n: R7.poly(f"x{i}")}
            if n >= 1:
                want[n - 1] = R7.poly(f"-{n}*x{j}^2*x{k}^2*y{i}")
            if n >= 2:
                want[n - 2] = R7.poly(
                    f"x{i}^2*x{j}^4*x{k}*y{i}*y{k} + x{i}^2*x{j}*x{k}^4*y{i}*y{j}"
                    f" - x{i}^5*x{j}*x{k}*y{j}*y{k}"
                ).scale(comb(n, 2))
            got = RA._slice_targets(i, n)
            assert got == want, (i, n)
            assert {t: str(f) for t, f in got.items()} == {t: str(f) for t, f in want.items()}


def test_beta_text_matches_three_elimination_oracle_up_to_six():
    """Pinned columns on the right-hand side give the text of the full system
    with one unit row per pinned monomial."""
    fresh = RobertsAction()
    for n in (5, 6):
        for i in (1, 2, 3):
            assert str(fresh.beta(i, n)) == str(three_elimination_beta(fresh, i, n))


def test_beta_vanishes_on_leading_monomials_of_slice_free_invariants():
    """The canonical property of beta(i, n), checked without its system.

    K holds the invariants of beta's multidegree that vanish on the pinned
    z-slices (z-degree n, n - 1 and n - 2).  beta(i, n) has coefficient 0
    on every leading monomial of K.  Invariants outside K do not count:
    beta itself is one, with coefficient 1 on its leading monomial x_i z^n.
    """
    z_index = R7.index("z")
    checked = 0
    for n in range(5):
        for i in (1, 2, 3):
            degree = RA.beta_degree(i, n)
            basis = RA.graded_invariants(degree)
            pinned = [
                m
                for m in RA.weights.monomial_basis(degree)
                if m.exponent(z_index) in (n, n - 1, n - 2)
            ]
            rows = [[p.coefficient(m) for p in basis] for m in pinned]
            K = [
                sum((p.scale(c) for c, p in zip(vec, basis) if c), R7.zero())
                for vec in naive_nullspace(rows, len(basis))
            ]
            beta = RA.beta(i, n)
            for lm in span_leading_monomials(K):
                assert beta.coefficient(lm) == 0, (i, n, lm)
                checked += 1
    assert checked == 3 * (7 + 15)  # K is nonzero for n = 3 and n = 4


def test_beta_out_of_range():
    with pytest.raises(PolyError):
        RA.beta(4, 1)
    with pytest.raises(PolyError):
        RA.beta(1, -1)


def test_verify_beta_form_examples():
    assert RA.verify_beta_form(1, 2).ok
    assert RA.verify_beta_form(2, 3).ok
    assert RA.verify_beta_form(3, 2).ok
    # spot-check the displayed slices directly
    b23 = RA.beta(2, 3)
    slice2 = RA._z_slice(b23, 2)
    assert slice2 == R7.poly("x1^2*x3^2*y2").scale(-3)


def test_beta_index_symmetry():
    # swapping the 1 and 2 coordinates maps beta(1, n) to beta(2, n)
    swap = {
        "x1": R7.variable("x2"),
        "x2": R7.variable("x1"),
        "x3": R7.variable("x3"),
        "y1": R7.variable("y2"),
        "y2": R7.variable("y1"),
        "y3": R7.variable("y3"),
        "z": R7.variable("z"),
    }
    for n in (1, 2, 3):
        assert RA.beta(1, n).substitute(swap, R7) == RA.beta(2, n)


def test_y0_relation():
    assert RA.y0_relation_check()
    # and the printed relation is the multidegree-consistent one
    assert "U23" in Y0_RELATION and "U12" in Y0_RELATION


def test_y1_ideal_generators_all_vanish():
    rep = RA.y1_ideal_check()
    assert rep.ok, rep.details


def test_y1_generators_are_nontrivial_before_substitution():
    ambient9 = VariableSet(IMAGE_NAMES_9)
    for text in Y1_GENERATORS:
        g = _parse_with_products(ambient9, text)
        assert not g.is_zero()


def test_leading_term_table_and_u_multidegrees():
    # the leading terms of the catalog: x1^3 y2, x1^3 y3, x2^3 y3, x_i z^n
    lt = lambda f: f.leading_term()
    assert lt(RA.u12) == (Monomial(((0, 3), (4, 1))), 1)
    assert lt(RA.u13) == (Monomial(((0, 3), (5, 1))), 1)
    assert lt(RA.u23) == (Monomial(((1, 3), (5, 1))), 1)
    for i in (1, 2, 3):
        for n in range(5):
            m, c = lt(RA.beta(i, n))
            assert c == 1
            assert m.exponent(R7.index(f"x{i}")) == 1
            assert m.exponent(R7.index("z")) == n
            assert m.degree() == n + 1
    assert RA.weights.multidegree(RA.u12) == (3, 3, 0)
    assert RA.weights.multidegree(RA.u13) == (3, 0, 3)
    assert RA.weights.multidegree(RA.u23) == (0, 3, 3)


def test_catalog_names_and_cache():
    G = RA.catalog(2)
    assert "u12" in G and "b3_2" in G
    assert len(G) == 3 + 9
    assert RA.catalog(2) is G  # cached


def test_sagbi_family_checks_through_n3():
    rep = RA.sagbi_family_checks(3)
    assert rep.ok, rep.details


def test_an_lemma_small_sweep():
    rep = RA.an_lemma_checks(1, degree_bound=5, a0_factor_bound=1, reverse_bound=2)
    assert rep.ok, rep.details


def test_an_lemma_n0_part_a_only():
    rep = RA.an_lemma_checks(0, degree_bound=4, a0_factor_bound=1, reverse_bound=1)
    assert rep.ok, rep.details
    assert any("skipped" in str(n) for n in rep.details)


def test_an_lemma_part_b_instance():
    # x1 * beta(2,2) - beta(1,1) * beta(2,1) stays within z-degree 1
    p = R7.variable("x1") * RA.beta(2, 2)
    q = RA.beta(1, 1) * RA.beta(2, 1)
    assert p.leading_term() == q.leading_term()
    assert (p - q).max_exponent("z") <= 1
    from plinth.sagbi import subduct

    assert subduct(p - q, RA.catalog(1)).ok


def test_offdiagonal_degree_check():
    assert RA.offdiagonal_degree_check(RA.beta(1, 2))  # (5,4,4)
    assert not RA.offdiagonal_degree_check(R7.poly("x1^3*x2^3*x3^3"))
    with pytest.raises(PolyError):
        RA.offdiagonal_degree_check(R7.poly("x1 + y1"))


def test_square_in_x_ideal_certificates():
    for i in (1, 2, 3):
        cert = RA.square_in_x_ideal(i, 1)
        assert cert.ok
        assert cert.replay(RA.catalog(2)) == RA.beta(i, 1) ** 2


def test_radical_structure():
    rep = RA.radical_structure_check(N=2, degree_bound=4)
    assert rep.ok, rep.details


def test_fixed_point_collapse():
    assert RA.fixed_point_collapse(3)


def test_flow_fixes_x_zero_points():
    extended, flow = RA.D.flow_images()
    sub = {
        name: (extended.zero() if name.startswith("x") else extended.variable(name))
        for name in extended.names
    }
    for name in R7.names:
        restricted = flow[name].substitute(sub, extended)
        assert restricted == extended.variable(name).substitute(sub, extended)


def test_graded_kernel_contains_beta_and_dim_322():
    basis = RA.graded_invariants((3, 2, 2))
    assert len(basis) == 2


def test_graded_kernel_beta_degrees_dims_and_membership():
    # record the kernel dimensions at the beta multidegrees, cross-check
    # them against the naive elimination oracle, and confirm each beta
    # lies in the span of the computed basis
    from plinth.polyring import Polynomial
    from util import in_span, lex_key, naive_nullspace
    from fractions import Fraction

    for n, expected_dim in ((1, 2), (2, 5), (3, 12)):
        degree = RA.beta_degree(1, n)
        basis = RA.graded_invariants(degree)
        mons = RA.weights.monomial_basis(degree)
        key = lambda m: lex_key(R7, m)
        cols = sorted(mons, key=key, reverse=True)
        images = [RA.D.apply(Polynomial(R7, {m: Fraction(1)})) for m in cols]
        row_monos = sorted({m for g in images for m in g.monomials()}, key=key)
        matrix = [[g.coefficient(rm) for g in images] for rm in row_monos]
        assert len(naive_nullspace(matrix, len(cols))) == len(basis)
        assert len(basis) == expected_dim
        monos = sorted(
            {m for p in basis for m in p.monomials()} | set(RA.beta(1, n).monomials()),
            key=key,
        )
        vec = lambda p: [p.coefficient(m) for m in monos]
        assert in_span([vec(p) for p in basis], vec(RA.beta(1, n)))


def test_fresh_action_matches_shared():
    fresh = RobertsAction()
    assert fresh.beta(1, 2) == RA.beta(1, 2)
    assert fresh.u13 == RA.u13
