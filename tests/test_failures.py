"""Planted defects: every FAIL path whose input the library builds through
``polyring.combination`` or the closed-form raising derivation reports the
failure it exists for.

Each test plants one defect, requires the report to FAIL with exactly the
detail keys of its failure branch, and requires the CLI command that runs
the check to exit 1 with one line per report and no traceback.
"""

from dataclasses import replace
from fractions import Fraction

from plinth import casebook, separating, sl2
from plinth.casebook import QUADRIC, sl2_mod_n_checks
from plinth.cli import main
from plinth.derivation import Derivation
from plinth.polyring import VariableSet
from plinth.roberts import RobertsAction, roberts_action
from util import walked_component_containment_check


def _keys(report) -> list[list[str]]:
    assert not report.ok
    return [list(detail) for detail in report.details]


def _cli_fails(args: list[str], capsys, check_id: str) -> None:
    assert main(args) == 1
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err and err == ""
    assert f"[FAIL] {check_id} " in out


def test_an_lemma_part_a_fails_on_a_basis_past_its_z_cap(monkeypatch, capsys):
    # the cap forgotten: invariants of z-degree above N reach the sweep
    monkeypatch.setattr(
        RobertsAction,
        "graded_invariants_z_capped",
        lambda self, degree, z_cap: self.graded_invariants(degree),
    )
    report = roberts_action().an_lemma_checks(0, degree_bound=3)
    assert set(map(tuple, _keys(report))) == {("part", "degree", "poly", "remainder")}
    assert {detail["part"] for detail in report.details} == {"a"}
    _cli_fails(["roberts-an", "--n", "0"], capsys, "roberts.an_lemma.0")


def test_quotient_ring_check_fails_on_a_wrong_normal_form(monkeypatch, capsys):
    # an identity normal form: x*z = y^2 - y left unapplied
    divide_out = casebook.divide_out
    monkeypatch.setattr(
        casebook, "divide_out", lambda f, g: f if g is QUADRIC else divide_out(f, g)
    )
    report = sl2_mod_n_checks()
    assert _keys(report) == [["part", "observed_dim", "expected_dim"]]
    [detail] = report.details
    assert detail["part"] == "quotient-ring"
    assert detail["observed_dim"] > detail["expected_dim"] == 4
    _cli_fails(["danielewski"], capsys, "sl2_mod_n")


def test_commutation_check_fails_on_a_flow_the_involution_does_not_respect(
    monkeypatch, capsys
):
    # D(x) = y, D(y) = D(z) = 0: sigma after flow_s moves x to -x - s*y, and
    # flow_(+-s) after sigma to -x +- s*(1 - y)
    R = VariableSet(("x", "y", "z"))
    D = Derivation(R, {"x": R.variable("y"), "y": R.zero(), "z": R.zero()})
    D.certify_locally_nilpotent(bound=4)
    monkeypatch.setattr(casebook, "danielewski_derivation", lambda: D)
    report = sl2_mod_n_checks()
    assert report.details[0] == {
        "part": "commutation",
        "detail": "no sign makes the flows commute",
    }
    assert all("commutation sign" not in str(detail) for detail in report.details)
    _cli_fails(["danielewski"], capsys, "sl2_mod_n")


def _coupled(build):
    """``build`` with a planted cross-summand term: the zero-weight
    coordinate of the last summand also maps to the weight-2 coordinate of
    the first.  A single-summand representation is left as it was."""

    def coupled(rep: sl2.RepSum) -> Derivation:
        D = build(rep)
        if len(rep.summands) < 2:
            return D
        first, last = rep.summands[0], rep.summands[-1]
        images = dict(D.images)
        mid = last.coordinates[last.n // 2]
        images[mid] = images[mid] + rep.ambient.variable(first.coordinates[first.n // 2 - 1])
        wrong = Derivation(rep.ambient, images)
        wrong.certify_locally_nilpotent(bound=rep.max_weight + 2)
        return wrong

    return coupled


def test_component_agreement_fails_on_a_wrong_raising_derivation(monkeypatch, capsys):
    monkeypatch.setattr(sl2, "build_raising_derivation", _coupled(sl2.build_raising_derivation))
    rep = sl2.RepSum.parse("V[4]+V[2]")
    report = sl2.component_containment_check(rep, samples=40)
    assert set(map(tuple, _keys(report))) == {("part", "trial", "invariant", "v", "vp")}
    assert {detail["part"] for detail in report.details} == {"agreement"}
    # only the weight-0 invariants are evaluated, yet the failing report is
    # the one the walk over every piece gives: a positive-weight invariant
    # is 0 at both points of a pair, so it is never the first to fail
    assert report.to_dict() | {"ms": 0} == (
        walked_component_containment_check(rep, samples=40).to_dict() | {"ms": 0}
    )
    _cli_fails(["sl2", "--rep", "V[4]+V[2]", "--samples", "40"], capsys, "sl2.components.V[4]+V[2]")


def test_positive_weight_check_fails_on_a_restriction_that_misses_a_coordinate(
    monkeypatch, capsys
):
    # Part (i) holds by weight once every coordinate of positive weight is
    # set to 0: here the coordinates set to 0 miss x0_0, of weight 4, which
    # is itself an invariant of positive weight that would survive.
    original = sl2.RepSum.negative_weight_coordinates
    monkeypatch.setattr(sl2.RepSum, "negative_weight_coordinates", lambda rep: original(rep)[1:])
    report = sl2.positive_weight_vanishing_check(sl2.RepSum.parse("V[4]+V[2]"))
    assert _keys(report) == [["part", "coordinate", "weight"]]
    assert report.details == [{"part": "vanishing", "coordinate": "x0_0", "weight": 4}]
    _cli_fails(["sl2", "--rep", "V[4]+V[2]"], capsys, "sl2.positive_weight.V[4]+V[2]")


def test_radical_check_fails_on_a_certificate_that_does_not_replay(monkeypatch, capsys):
    original = RobertsAction.square_in_x_ideal

    def tampered(self, i, n, max_steps=10_000):
        cert = original(self, i, n, max_steps)
        first, *rest = cert.steps
        return replace(cert, steps=[replace(first, coefficient=first.coefficient * 2), *rest])

    monkeypatch.setattr(RobertsAction, "square_in_x_ideal", tampered)
    report = roberts_action().radical_structure_check(N=2)
    assert _keys(report) == [["part", "i", "n"]] * 6
    assert all(detail["part"] == "replay" for detail in report.details)
    _cli_fails(["roberts-radical"], capsys, "roberts.radical")


def _wrong_beta_1_1(monkeypatch):
    """Plant beta(1, 1) doubled, on the shared action: every product that
    uses it changes its leading coefficient, and the algebra S_N does not
    change.  The beta and catalog caches are swapped for copies, so nothing
    built under the defect outlives the test."""
    ra = roberts_action()
    monkeypatch.setattr(ra, "_betas", dict(ra._betas))
    monkeypatch.setattr(ra, "_gensets", dict(ra._gensets))
    original = RobertsAction.beta

    def beta(self, i, n):
        got = original(self, i, n)
        return got.scale(2) if (i, n) == (1, 1) else got

    monkeypatch.setattr(RobertsAction, "beta", beta)
    return ra


def test_an_lemma_part_b_fails_on_a_wrong_beta(monkeypatch, capsys):
    report = _wrong_beta_1_1(monkeypatch).an_lemma_checks(1)
    assert set(map(tuple, _keys(report))) == {("part", "i", "j", "detail")}
    assert {detail["part"] for detail in report.details} == {"b"}
    # beta(1, 1) is beta(i, 1) for i = 1 and beta(j, N) for j = 1
    assert {(d["i"], d["j"]) for d in report.details} == {
        (i, j) for i in (1, 2, 3) for j in (1, 2, 3) if 1 in (i, j)
    }
    assert {detail["detail"] for detail in report.details} == {
        "leading terms differ",
        "z-degree too high",
    }
    _cli_fails(["roberts-an", "--n", "1"], capsys, "roberts.an_lemma.1")


def test_sagbi_family_checks_fail_on_a_wrong_beta(monkeypatch, capsys):
    report = _wrong_beta_1_1(monkeypatch).sagbi_family_checks(1)
    keys = set(map(tuple, _keys(report)))
    assert keys == {
        ("family", "nmk", "observed", "expected"),
        ("family", "pairs", "observed", "expected"),
    }
    _cli_fails(["roberts-sagbi", "--n", "1"], capsys, "roberts.sagbi_families.1")


def test_an_lemma_part_c_reverse_fails_on_a_bogus_reference_set(monkeypatch, capsys):
    # beta(1, 0) is not a pure u-product: LT(beta(1, 0)) * x_i z^(N+1) is
    # LT(beta(1, N) * beta(i, 1)), which factorizes over S_N
    original = RobertsAction._pure_u_products

    def with_beta(self, max_factors):
        yield from original(self, max_factors)
        yield self.beta(1, 0)

    monkeypatch.setattr(RobertsAction, "_pure_u_products", with_beta)
    report = roberts_action().an_lemma_checks(1)
    assert _keys(report) == [["part", "i", "u_product", "detail"]] * 3
    assert {detail["part"] for detail in report.details} == {"c-reverse"}
    assert [detail["i"] for detail in report.details] == [1, 2, 3]
    _cli_fails(["roberts-an", "--n", "1"], capsys, "roberts.an_lemma.1")


class _PlaneWithWrongPhi(VariableSet):
    """The plane, with the second coordinate of phi read as y, not x*y."""

    __slots__ = ()

    def poly(self, text: str):
        return super().poly("y" if text == "x*y" else text)


def test_example1_phi_separation_fails_on_a_wrong_phi(monkeypatch, capsys):
    monkeypatch.setattr(casebook, "PLANE", _PlaneWithWrongPhi(casebook.PLANE.names))
    report = casebook.example1_phi_separation()
    assert set(map(tuple, _keys(report))) == {
        ("trial", "p", "q", "generators_equal", "phi_equal")
    }
    # (x, y) separates the points of the line x = 0, where every x*y^k is 0
    assert all(d["generators_equal"] and not d["phi_equal"] for d in report.details)
    assert all(d["p"][0] == d["q"][0] == "0" for d in report.details)
    _cli_fails(["example1"], capsys, "example1.phi")


def test_an_lemma_part_b_fails_on_a_remainder(monkeypatch, capsys):
    # beta(1, 1) with a stray z-free term y1: the leading terms and the
    # z-degree of each comparison product that uses it still match, but
    # y1 * beta(k, 1) leaves a remainder.  S_1 is built first, from the
    # true beta(1, 1), so only the comparison products see the stray term.
    ra = roberts_action()
    ra.catalog(1)
    monkeypatch.setattr(ra, "_betas", dict(ra._betas))
    monkeypatch.setattr(ra, "_gensets", dict(ra._gensets))
    original = RobertsAction.beta

    def beta(self, i, n):
        got = original(self, i, n)
        return got + self.ring.variable("y1") if (i, n) == (1, 1) else got

    monkeypatch.setattr(RobertsAction, "beta", beta)
    report = ra.an_lemma_checks(1)
    assert _keys(report) == [["part", "i", "j", "remainder"]] * 5
    assert {detail["part"] for detail in report.details} == {"b"}
    # beta(1, 1) is beta(i, 1) for i = 1 and beta(j, N) for j = 1
    assert [(d["i"], d["j"]) for d in report.details] == [
        (1, 1), (1, 2), (1, 3), (2, 1), (3, 1)
    ]
    _cli_fails(["roberts-an", "--n", "1"], capsys, "roberts.an_lemma.1")


def test_an_lemma_part_c_forward_fails_on_a_bogus_spanning_set(monkeypatch, capsys):
    # y1 is not in A_0: no leading monomial of S_N has a y1 without x1^3,
    # so x_i * y1 * beta(j, N + 1) does not subduct into S_N
    original = RobertsAction._a0_products

    def with_y1(self, max_factors):
        yield from original(self, max_factors)
        yield self.ring.variable("y1")

    monkeypatch.setattr(RobertsAction, "_a0_products", with_y1)
    report = roberts_action().an_lemma_checks(1)
    assert _keys(report) == [["part", "i", "j", "g", "remainder"]] * 9
    assert {detail["part"] for detail in report.details} == {"c-forward"}
    assert {detail["g"] for detail in report.details} == {"y1"}
    _cli_fails(["roberts-an", "--n", "1"], capsys, "roberts.an_lemma.1")


def _plinth_sampler(names):
    def sampler(rng):
        p = {n: Fraction(rng.randint(-9, 9)) for n in names}
        for x in ("x1", "x2", "x3"):
            p[x] = Fraction(0)
        return p

    return sampler


def _graph_sampling_run(trials=60):
    ra = roberts_action()
    return separating.graph_vs_separation_sampling(
        ra.D,
        ra.catalog(1),
        trials,
        plinth_indicator=lambda p: all(p[x] == 0 for x in ("x1", "x2", "x3")),
        plinth_sampler=_plinth_sampler(ra.ring.names),
        plinth_unseparated=True,
    )


def test_graph_sampling_random_mode_fails_on_a_blind_evaluation(monkeypatch, capsys):
    # an evaluation that never finds a witness: every random pair comes back
    # unseparated, and almost none lies on one orbit.  Flow pairs and
    # plinth pairs are unseparated anyway, and the equivalence check sees
    # two equally blind sets.
    monkeypatch.setattr(separating, "_witness", lambda G, at_v, at_w: None)
    report = _graph_sampling_run()
    assert set(map(tuple, _keys(report))) == {("mode", "v", "vp", "detail")}
    assert {detail["mode"] for detail in report.details} == {"random"}
    assert len(report.details) > 10
    _cli_fails(["separating", "--trials", "60"], capsys, "separating.graph")


def test_graph_sampling_plinth_mode_fails_on_a_sampler_off_the_locus(monkeypatch, capsys):
    # a plinth sampler that forgets x3: its pairs are off the locus x = 0,
    # where S_1 tells points apart
    original = separating.graph_vs_separation_sampling

    def with_x3(*args, plinth_sampler=None, **kwargs):
        def off_locus(rng):
            p = plinth_sampler(rng)
            p["x3"] = Fraction(rng.randint(1, 9))
            return p

        return original(*args, plinth_sampler=off_locus, **kwargs)

    monkeypatch.setattr(separating, "graph_vs_separation_sampling", with_x3)
    report = _graph_sampling_run()
    assert set(map(tuple, _keys(report))) == {("mode", "v", "vp", "witness")}
    assert {detail["mode"] for detail in report.details} == {"plinth"}
    assert len(report.details) > 10
    _cli_fails(["separating", "--trials", "60"], capsys, "separating.graph")
