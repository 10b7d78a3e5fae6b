import json

import pytest

from plinth.cli import build_parser, main
from plinth.report import reports_from_json, reports_to_json


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
    parsed = reports_from_json(text)
    assert all(r.ok for r in parsed)
    assert reports_to_json(parsed) == text
    data = json.loads(text)
    assert list(data[0].keys()) == ["id", "anchor", "status", "params", "details", "ms"]


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
        ["kernel", "--ring", "bogus", "--degree", "1"],
        ["kernel", "--ring", "sl2:W[2]", "--degree", "2,0"],
        ["kernel", "--ring", "roberts", "--degree", "1,2"],
        ["kernel", "--ring", "sl2:V[2]", "--degree", "2,0,1"],
        ["kernel", "--degree", "1,a"],
        ["kernel", "--ring", "roberts", "--degree", "3000000000,0,0"],
        ["kernel", "--ring", "sl2:V[2]", "--degree", "3000000000,0"],
        ["example1", "--json", "/nonexistent/x.json"],
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
    reports = reports_from_json(path.read_text())
    assert [r.ok for r in reports] == [True, True, False] + [True] * 9
    failed = reports[2]
    assert failed.check_id == "all.roberts-y1"
    [detail] = failed.details
    assert detail.startswith("roberts-y1 raised ZeroDivisionError: planted (")
    assert "in broken)" in detail and "\n" not in detail
    out = capsys.readouterr().out
    assert out.count("[FAIL]") == 1 and "[FAIL] all.roberts-y1" in out
