"""Planted defects: every FAIL path whose input the library builds through
``polyring.combination`` or the closed-form raising derivation reports the
failure it exists for.

Each test plants one defect, requires the report to FAIL with exactly the
detail keys of its failure branch, and requires the CLI command that runs
the check to exit 1 with one line per report and no traceback.
"""

from dataclasses import replace

from plinth import sl2
from plinth.casebook import QuadricRing, sl2_mod_n_checks
from plinth.cli import main
from plinth.derivation import Derivation
from plinth.roberts import RobertsAction, roberts_action


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
    # a normal form that leaves y^2 = y + x*z unapplied
    monkeypatch.setattr(QuadricRing, "reduce", lambda self, f: f)
    report = sl2_mod_n_checks()
    assert _keys(report) == [["part", "observed_dim", "expected_dim"]]
    [detail] = report.details
    assert detail["part"] == "quotient-ring"
    assert detail["observed_dim"] > detail["expected_dim"] == 4
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
    _cli_fails(["sl2", "--rep", "V[4]+V[2]", "--samples", "40"], capsys, "sl2.components.V[4]+V[2]")


def test_positive_weight_check_fails_on_a_mislabelled_piece(monkeypatch, capsys):
    # A homogeneous polynomial of positive weight always restricts to zero,
    # whatever the derivation, so the vanishing branch is reached only by an
    # element whose piece label is wrong: here the zero-weight coordinate of
    # the first summand, listed as a degree-1 invariant of weight 2.
    original = sl2.invariants_up_to_degree

    def with_intruder(rep, D, degree_bound):
        intruder = rep.ambient.variable(rep.zero_weight_coordinates()[0])
        return original(rep, D, degree_bound) + [(1, 2, intruder)]

    monkeypatch.setattr(sl2, "invariants_up_to_degree", with_intruder)
    report = sl2.positive_weight_vanishing_check(sl2.RepSum.parse("V[4]+V[2]"))
    assert _keys(report) == [["part", "degree", "weight", "invariant", "restriction"]]
    assert report.details[0]["part"] == "vanishing"
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
