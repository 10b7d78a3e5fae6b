"""Batch driver: every verification suite as a subcommand.

Reports go to standard output, one line per check, and optionally to a
JSON file.  Exit codes: 0 when all requested checks pass, 1 on a check
failure, 2 on a usage error.  Seeds default to a fixed constant so ``all``
is reproducible by default.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback

from . import casebook, separating, sl2
from .polyring import PolyError
from .report import Checker, VerificationReport, reports_to_json
from .roberts import Y0_RELATION, Y1_GENERATORS, roberts_action
from .sagbi import verify_sagbi

DEFAULT_SEED = 1729
# Largest roberts-sagbi --bound: the pair count, and with it the work,
# about doubles per unit of bound (verify_sagbi on S_3 took 0.9 s at bound
# 12, 1.9 s at 13); the acceptance criteria use at most 10.
MAX_SAGBI_BOUND = 12
# Largest --n of roberts-beta, roberts-sagbi and roberts-an: cold beta(1, n)
# grows about threefold per 2 added to n (1.0 s at 14, 2.6 s at 16, 6.5 s
# at 18) and catalog(n) builds every beta(i, n' <= n).  At 12, cold:
# roberts-beta 2.3 s, roberts-an 9.6 s, roberts-sagbi (bound 8) 10.7 s.
MAX_CATALOG_N = 12


def run_roberts_invariants() -> list[VerificationReport]:
    ra = roberts_action()
    checker = Checker(
        "roberts.invariants",
        "the six generating invariants are flow-constant and satisfy "
        "the hypersurface relation",
    )
    for name, f in (
        ("u12", ra.u12),
        ("u13", ra.u13),
        ("u23", ra.u23),
        ("b1_1", ra.beta(1, 1)),
        ("b2_1", ra.beta(2, 1)),
        ("b3_1", ra.beta(3, 1)),
    ):
        invariant = ra.D.apply(f).is_zero()
        line = f"D({name}) = 0: {invariant}; {name} = {f}"
        checker.require(invariant, line)
        checker.note(line)
    y0 = ra.y0_relation_check()
    line = f"{Y0_RELATION} -> 0 under substitution: {y0}"
    checker.require(y0, line)
    checker.note(line)
    return [checker.report()]


def run_roberts_beta(n: int) -> list[VerificationReport]:
    ra = roberts_action()
    reports = []
    for i in (1, 2, 3):
        for k in range(n + 1):
            reports.append(ra.verify_beta_form(i, k))
    printed = ra.beta(1, n)
    print(f"b1_{n} = {printed}")
    return reports


def run_roberts_y1() -> list[VerificationReport]:
    ra = roberts_action()
    for idx, text in enumerate(Y1_GENERATORS, 1):
        print(f"relation {idx}: {text}")
    return [ra.y1_ideal_check()]


def run_roberts_sagbi(n: int, bound: int) -> list[VerificationReport]:
    ra = roberts_action()
    reports = [
        verify_sagbi(
            ra.catalog(n),
            bound,
            check_id=f"roberts.sagbi.{n}",
            anchor=f"S_{n} tete-a-tete differences subduct to zero "
            f"(bound {bound})",
        ),
        ra.sagbi_family_checks(n),
    ]
    return reports


def run_roberts_an(n: int) -> list[VerificationReport]:
    ra = roberts_action()
    return [ra.an_lemma_checks(k) for k in range(n + 1)]


def run_roberts_radical() -> list[VerificationReport]:
    return [roberts_action().radical_structure_check()]


def run_roberts_fixed() -> list[VerificationReport]:
    ra = roberts_action()
    checker = Checker(
        "roberts.fixed",
        "the fixed-point locus x = 0 collapses to one image point",
        {"N": 4},
    )
    collapsed = ra.fixed_point_collapse(4)
    # the flow fixes x = 0 when every c_k, k >= 1, of exp(s*D) vanishes there
    xs = [name for name in ra.ring.names if name.startswith("x")]
    fixed = all(
        c.restrict_to_zero(xs).is_zero()
        for series in ra.D.flow_coefficients().values()
        for c in series[1:]
    )
    for ok, line in (
        (collapsed, f"all S_4 generators constant on x = 0: {collapsed}"),
        (fixed, f"flow fixes every point with x = 0: {fixed}"),
    ):
        checker.require(ok, line)
        checker.note(line)
    return [checker.report()]


def run_sl2(rep: str, degree: int, samples: int, seed: int) -> list[VerificationReport]:
    parsed = sl2.RepSum.parse(rep)
    # first, so an oversized --degree is refused before any piece is solved
    checks = [
        sl2.positive_weight_vanishing_check(parsed, degree, seed=seed),
        sl2.component_containment_check(parsed, degree, samples=samples, seed=seed),
    ]
    checker = Checker(
        f"sl2.quadratic.{parsed}",
        "one quadratic invariant per even weight, full support",
        {"rep": rep},
    )
    for n in sorted(set(parsed.degrees)):
        fks = sl2.quadratic_invariants(n)
        checker.note(f"V[{n}]: {len(fks)} quadratic invariants")
        checker.note(f"V[{n}] zero-weight reflection: {sl2.sigma_on_V0(n).value}")
    return [checker.report(), *checks]


def run_separating(trials: int, seed: int) -> list[VerificationReport]:
    ra = roberts_action()
    names = ra.ring.names

    def plinth_sampler(rng):
        p = {n: rng.randint(-9, 9) for n in names}
        for x in ("x1", "x2", "x3"):
            p[x] = 0
        return p

    reports = [
        separating.graph_vs_separation_sampling(
            ra.D,
            ra.catalog(1),
            trials,
            seed=seed,
            plinth_indicator=lambda p: all(p[x] == 0 for x in ("x1", "x2", "x3")),
            plinth_sampler=plinth_sampler,
            plinth_unseparated=True,
        ),
        separating.separating_set_equivalence(
            ra.catalog(1), ra.catalog(4), ra.D, trials, seed=seed
        ),
    ]
    return reports


def run_danielewski() -> list[VerificationReport]:
    return [casebook.danielewski_checks(), casebook.sl2_mod_n_checks()]


def run_example1() -> list[VerificationReport]:
    P = casebook.PLANE
    return [
        casebook.example1_conductor_check(P.poly("x")),
        casebook.example1_conductor_check(P.poly("1 + x*y")),
        casebook.example1_conductor_check(P.poly("y")),
        casebook.example1_phi_separation(),
    ]


def run_kernel(ring: str, degree: tuple[int, ...]) -> list[VerificationReport]:
    checker = Checker(
        f"kernel.{ring}",
        "graded kernel basis computed by exact elimination",
        {"ring": ring, "degree": list(degree)},
    )
    if ring == "roberts":
        if len(degree) != 3:
            raise argparse.ArgumentTypeError("roberts kernel needs a 3-component degree")
        basis = roberts_action().graded_invariants(degree)
    else:
        if len(degree) != 2:
            raise argparse.ArgumentTypeError("sl2 kernel needs degree,weight")
        rep = sl2.RepSum.parse(ring[4:])
        D = sl2.build_raising_derivation(rep)
        basis = D.graded_kernel(rep.weight_system(), rep.piece(*degree))
    for p in basis:
        print(p)
    checker.note(f"dimension {len(basis)} at degree {degree}")
    return [checker.report()]


def run_all(seed: int) -> list[VerificationReport]:
    suites = (
        ("roberts-invariants", run_roberts_invariants),
        ("roberts-beta", lambda: run_roberts_beta(3)),
        ("roberts-y1", run_roberts_y1),
        ("roberts-sagbi", lambda: run_roberts_sagbi(2, 8)),
        ("roberts-an", lambda: run_roberts_an(2)),
        ("roberts-radical", run_roberts_radical),
        ("roberts-fixed", run_roberts_fixed),
        ("sl2", lambda: run_sl2("V[4]+V[2]", 3, 100, seed)),
        ("separating", lambda: run_separating(300, seed)),
        ("danielewski", run_danielewski),
        ("example1", run_example1),
        ("kernel", lambda: run_kernel("roberts", (3, 2, 2))),
    )
    reports = []
    for name, run in suites:
        checker = Checker(f"all.{name}", f"the {name} suite runs to completion")
        try:
            reports += run()
        except Exception as exc:  # one failing suite must not stop the rest
            frame = traceback.extract_tb(exc.__traceback__)[-1]
            checker.require(
                False,
                f"{name} raised {type(exc).__name__}: {exc} "
                f"({os.path.basename(frame.filename)}:{frame.lineno} in {frame.name})",
            )
            reports.append(checker.report())
    return reports


def _int_at_least(minimum: int, maximum: int | None = None):
    """argparse type: an integer no smaller than ``minimum`` (and no larger
    than ``maximum``, if given)."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"must be <= {maximum}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its messages
    return parse


def _rep(text: str) -> str:
    """argparse type: a representation like 'V[4]+V[2]', kept as typed."""
    try:
        sl2.RepSum.parse(text)
    except PolyError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _ring(text: str) -> str:
    """argparse type: 'roberts' or 'sl2:<representation>'."""
    if text.startswith("sl2:"):
        _rep(text[4:])
    elif text != "roberts":
        raise argparse.ArgumentTypeError(f"unknown ring {text!r}")
    return text


def _degree(text: str) -> tuple[int, ...]:
    """argparse type: comma-separated integers."""
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plinth",
        description="exact verification suites for additive-group invariants",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", metavar="PATH", help="also write reports as JSON")
    sub = parser.add_subparsers(dest="command", required=True)
    level, positive = _int_at_least(0, MAX_CATALOG_N), _int_at_least(1)

    def command(name: str, run) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[common])
        p.set_defaults(run=run, usage_error=p.error)
        return p

    command("roberts-invariants", run_roberts_invariants)
    p = command("roberts-beta", run_roberts_beta)
    p.add_argument("--n", type=level, default=3)
    command("roberts-y1", run_roberts_y1)
    p = command("roberts-sagbi", run_roberts_sagbi)
    p.add_argument("--n", type=level, default=2)
    p.add_argument(
        "--bound",
        type=_int_at_least(0, MAX_SAGBI_BOUND),
        default=8,
        help=f"total degree bound of the tete-a-tetes, at most {MAX_SAGBI_BOUND}",
    )
    command("roberts-an", run_roberts_an).add_argument("--n", type=level, default=2)
    command("roberts-radical", run_roberts_radical)
    command("roberts-fixed", run_roberts_fixed)
    p = command("sl2", run_sl2)
    p.add_argument("--rep", type=_rep, default="V[4]+V[2]")
    p.add_argument("--degree", type=positive, default=3)
    p.add_argument("--samples", type=positive, default=200)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p = command("separating", run_separating)
    p.add_argument("--trials", type=positive, default=500)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    command("danielewski", run_danielewski)
    command("example1", run_example1)
    p = command("kernel", run_kernel)
    p.add_argument("--ring", type=_ring, default="roberts")
    p.add_argument("--degree", type=_degree, required=True)
    command("all", run_all).add_argument("--seed", type=int, default=DEFAULT_SEED)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = vars(parser.parse_args(argv))
    del args["command"]
    run, usage_error = args.pop("run"), args.pop("usage_error")
    json_path = args.pop("json")
    if json_path:
        # fail before the suites run, not after; append mode keeps the file
        try:
            open(json_path, "a", encoding="utf-8").close()
        except OSError as exc:
            usage_error(f"cannot write --json file: {exc}")
    try:
        reports = run(**args)
    except (argparse.ArgumentTypeError, PolyError) as exc:
        usage_error(str(exc))
    for r in reports:
        print(r.text_line())
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(reports_to_json(reports))
    return 0 if all(r.ok for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
