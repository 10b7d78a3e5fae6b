import json
import time

import pytest

from plinth.cli import MAX_CATALOG_N, build_parser, main
from plinth.derivation import MAX_KERNEL_COLUMNS, Derivation
from plinth.polyring import MAX_PIECE_MONOMIALS, PolyError, VariableSet, WeightSystem
from plinth.report import VerificationReport, reports_to_json
from plinth.sl2 import MAX_INVARIANT_MONOMIALS


def test_invariants_subcommand(capsys):
    assert main(["roberts-invariants"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] roberts.invariants" in out


def test_beta_subcommand_prints_polynomial(capsys):
    assert main(["roberts-beta", "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert "b1_2 =" in out
    assert "z^2*x1" in out


def test_kernel_subcommand_roberts(capsys):
    assert main(["kernel", "--ring", "roberts", "--degree", "3,2,2"]) == 0
    out = capsys.readouterr().out
    assert "dimension 2" in out or "[PASS]" in out
    lines = [l for l in out.splitlines() if l and not l.startswith("[")]
    assert len(lines) == 2  # two basis polynomials printed


def test_kernel_subcommand_sl2(capsys):
    assert main(["kernel", "--ring", "sl2:V[2]", "--degree", "2,0"]) == 0
    out = capsys.readouterr().out
    assert "x1^2" in out


def test_example1_and_json_round_trip(tmp_path, capsys):
    path = tmp_path / "reports.json"
    assert main(["example1", "--json", str(path)]) == 0
    text = path.read_text()
    data = json.loads(text)
    assert json.dumps(data, indent=2) == text
    assert len(data) == 4 and all(d["status"] == "pass" for d in data)
    assert data[-1]["id"] == "example1.phi"
    for d in data:
        assert list(d.keys()) == ["id", "anchor", "status", "params", "details", "ms"]
        assert isinstance(d["ms"], float) and d["anchor"] and d["details"]


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-check"])
    assert exc.value.code == 2


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["roberts-y1", "--bogus"])
    assert exc.value.code == 2


def test_parser_lists_all_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for name in (
        "roberts-invariants",
        "roberts-beta",
        "roberts-y1",
        "roberts-sagbi",
        "roberts-an",
        "roberts-radical",
        "roberts-fixed",
        "sl2",
        "separating",
        "danielewski",
        "example1",
        "kernel",
        "all",
    ):
        assert name in text
    for name in ("roberts-beta", "roberts-sagbi", "roberts-an"):
        assert parser.parse_args([name, "--n", str(MAX_CATALOG_N)]).n == MAX_CATALOG_N


def test_failure_exit_code_propagates(capsys, monkeypatch):
    # force a failing report through the danielewski path
    import plinth.cli as cli
    from plinth.report import VerificationReport

    monkeypatch.setattr(
        cli.casebook,
        "danielewski_checks",
        lambda: VerificationReport("x", "forced", "fail", {}, "forced failure"),
    )
    assert main(["danielewski"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL]" in out


def test_sl2_subcommand(capsys):
    assert main(["sl2", "--rep", "V[2]", "--degree", "2", "--samples", "40"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out


def test_separating_subcommand(capsys):
    assert main(["separating", "--trials", "60", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["separating", "--trials", "0"],
        ["sl2", "--samples", "0"],
        ["sl2", "--degree", "-1"],
        ["sl2", "--degree", "0"],
        ["roberts-beta", "--n", "-1"],
        ["roberts-an", "--n", "-3"],
        ["roberts-sagbi", "--n", "x"],
        ["roberts-sagbi", "--bound", "-1"],
        ["sl2", "--rep", "V[x]"],
        ["sl2", "--rep", "V[-1]"],
        ["sl2", "--rep", "V[2000000000]", "--degree", "1", "--samples", "1"],
        ["kernel", "--ring", "sl2:V[2]+V[65]", "--degree", "2,0"],
        ["kernel", "--ring", "bogus", "--degree", "1"],
        ["kernel", "--ring", "sl2:W[2]", "--degree", "2,0"],
        ["kernel", "--ring", "roberts", "--degree", "1,2"],
        ["kernel", "--ring", "sl2:V[2]", "--degree", "2,0,1"],
        ["kernel", "--degree", "1,a"],
        ["kernel", "--ring", "roberts", "--degree", "3000000000,0,0"],
        ["kernel", "--ring", "sl2:V[2]", "--degree", "3000000000,0"],
        ["example1", "--json", "/nonexistent/x.json"],
        ["roberts-sagbi", "--n", "3", "--bound", "16"],
        ["roberts-beta", "--n", str(MAX_CATALOG_N + 1)],
        ["roberts-sagbi", "--n", str(MAX_CATALOG_N + 1)],
        ["roberts-an", "--n", str(MAX_CATALOG_N + 1)],
        ["roberts-an", "--n", "30"],
    ],
)
def test_usage_errors_exit_2_with_one_line(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and errors[0].startswith(f"plinth {argv[0]}: error:")


def test_failing_fixed_report_lists_only_failed_lines(monkeypatch):
    import plinth.cli as cli

    monkeypatch.setattr(cli.roberts_action(), "fixed_point_collapse", lambda N: False)
    [report] = cli.run_roberts_fixed()
    assert not report.ok
    assert report.details == ["all S_4 generators constant on x = 0: False"]


def test_all_reports_a_raising_suite_and_keeps_going(monkeypatch, capsys, tmp_path):
    import plinth.cli as cli
    from plinth.report import VerificationReport

    ran = []

    def stub(*args):
        ran.append(args)
        return [VerificationReport(f"stub.{len(ran)}", "stub", "pass")]

    def broken():
        raise ZeroDivisionError("planted")

    for name in dir(cli):
        if name.startswith("run_") and name != "run_all":
            monkeypatch.setattr(cli, name, stub)
    monkeypatch.setattr(cli, "run_roberts_y1", broken)
    path = tmp_path / "all.json"
    assert main(["all", "--json", str(path)]) == 1
    assert len(ran) == 11
    reports = json.loads(path.read_text())
    assert [r["status"] for r in reports] == ["pass", "pass", "fail"] + ["pass"] * 9
    failed = reports[2]
    assert failed["id"] == "all.roberts-y1"
    [detail] = failed["details"]
    assert detail.startswith("roberts-y1 raised ZeroDivisionError: planted (")
    assert "in broken)" in detail and "\n" not in detail
    out = capsys.readouterr().out
    assert out.count("[FAIL]") == 1 and "[FAIL] all.roberts-y1" in out


def test_oversized_graded_piece_is_a_quick_usage_error(capsys):
    # plinth kernel --ring 'sl2:V[64]' --degree 6,0 once ran out of memory
    # enumerating a piece of over 100,000 monomials; the walk now stops
    # as soon as it passes MAX_PIECE_MONOMIALS
    start = time.perf_counter()
    ws = WeightSystem(VariableSet(("a", "b", "c", "d")), [(1,)] * 4)
    with pytest.raises(PolyError, match=f"over {MAX_PIECE_MONOMIALS} monomials"):
        ws.monomial_basis((70,))  # 62,196 monomials
    with pytest.raises(SystemExit) as exc:
        main(["kernel", "--ring", "roberts", "--degree", "60,60,60"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.splitlines()[-1] == (
        f"plinth kernel: error: graded piece (60, 60, 60): over {MAX_PIECE_MONOMIALS} monomials"
    )
    assert time.perf_counter() - start < 1.0


def test_piece_too_large_to_eliminate_is_a_quick_usage_error(capsys):
    # the walk passes its 11,963 monomials in a fraction of a second, but
    # the elimination on them ran for minutes
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(["kernel", "--ring", "sl2:V[6]", "--degree", "24,0"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.splitlines()[-1] == (
        "plinth kernel: error: graded piece (24, 144): 11963 monomials, "
        f"over the {MAX_KERNEL_COLUMNS} an elimination takes"
    )
    assert time.perf_counter() - start < 3.0


def test_sl2_oversized_degree_is_refused_before_any_elimination(monkeypatch, capsys):
    # the sizes of the pieces come from a table, so no piece is solved before
    # the refusal: V[8] up to degree 10 once eliminated for 10 s first
    solved = []
    real = Derivation.graded_kernel
    monkeypatch.setattr(
        Derivation, "graded_kernel", lambda self, *args: solved.append(args) or real(self, *args)
    )
    with pytest.raises(SystemExit) as exc:
        main(["sl2", "--rep", "V[8]", "--degree", "10"])
    assert exc.value.code == 2 and solved == []
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.splitlines()[-1] == (
        "plinth sl2: error: invariants of V[8] up to degree 10: the graded pieces "
        f"hold over {MAX_INVARIANT_MONOMIALS} monomials"
    )
    # a piece of positive weight too large to eliminate is refused from its
    # size in the table, with graded_kernel's message, and nothing is solved:
    # weight 1 in degree 3 of 20 V[1] and a V[0] holds 4,220 monomials
    rep = "+".join(["V[1]"] * 20 + ["V[0]"])
    with pytest.raises(SystemExit) as exc:
        main(["sl2", "--rep", rep, "--degree", "3"])
    assert exc.value.code == 2 and solved == []
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines()[-1] == (
        "plinth sl2: error: graded piece (3, 4): 4220 monomials, "
        f"over the {MAX_KERNEL_COLUMNS} an elimination takes"
    )


def test_sl2_degree_is_bounded_by_the_monomials_of_its_pieces(capsys):
    # the pieces of V[1]+V[1] up to degree 31 hold 26,927 monomials, and
    # up to degree 32 30,344; V[8] at degree 10 (47,946) once ran 11.8 s
    args = ["sl2", "--rep", "V[1]+V[1]", "--samples", "5"]
    assert main(args + ["--degree", "31"]) == 0
    assert "[FAIL]" not in capsys.readouterr().out
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(args + ["--degree", "32"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.splitlines()[-1] == (
        "plinth sl2: error: invariants of V[1]+V[1] up to degree 32: the graded pieces "
        f"hold over {MAX_INVARIANT_MONOMIALS} monomials"
    )
    assert MAX_INVARIANT_MONOMIALS == 30_000
    assert time.perf_counter() - start < 3.0


def test_json_writes_ints_past_the_int_digit_limit_exactly():
    big = 7 * 10**5000 + 3
    report = VerificationReport("id", "anchor", "pass", {"n": big, "k": [1, -big, "\x01"]})
    text = reports_to_json([report])
    digits = "7" + "0" * 4999 + "3"
    assert f'"n": {digits},' in text and f"-{digits}," in text
    small = VerificationReport("id", "anchor", "pass", {"n": 12, "k": [1, -12, "\x01"]})
    assert text.replace(digits, "12") == reports_to_json([small])
    assert json.loads(reports_to_json([small]))[0]["params"] == small.params
