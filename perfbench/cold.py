"""One cold run of one workload, in the interpreter it was started in.

    python3 perfbench/cold.py --workload NAME --seed N --trace 0|1 --spawned-at T

``--spawned-at`` is the parent's ``time.monotonic()`` just before it
started this interpreter (CLOCK_MONOTONIC is system-wide on Linux), so
``setup_s`` covers interpreter start, importing ``plinth``, a fresh
``RobertsAction()`` and the workload's set-up.  The timed region is the
workload's verification calls only; the correctness gate runs after it,
untimed and untraced.  The last line of standard output is one JSON
object with the measurements and the gate's verdicts.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"


def import_plinth():
    """Import plinth from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import plinth

    if Path(plinth.__file__).resolve().parent != src / "plinth":
        raise ImportError(f"plinth imported from {plinth.__file__}, not {src}")
    return plinth


def gate(wl, ra, state, reports, reference: dict, seed: int) -> tuple[int, list[str]]:
    """Compare verdicts and content with the reference; (attempted, failures)."""
    from workloads import content, digest, expected_digests

    entry = reference[wl.name]
    expected = expected_digests(wl, entry, seed)
    got = content(wl, ra, state, reports)
    keys = sorted(set(expected) | set(got))
    if entry["params"] != wl.params:
        return len(keys), [f"reference recorded for params {entry['params']}, not {wl.params}"]
    failures = []
    for key in keys:
        if key not in expected:
            failures.append(f"{key}: not in the reference")
        elif key not in got:
            failures.append(f"{key}: not produced")
        elif not got[key][0]:
            failures.append(f"{key}: check failed")
        elif digest(got[key][1]) != expected[key]:
            failures.append(f"{key}: content differs from the reference")
    return len(keys), failures


def run(workload: str, seed: int, trace: bool, spawned_at: float, spans: Path | None) -> dict:
    import_plinth()
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    from plinth import roberts
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    ra = roberts.RobertsAction()
    state = wl.setup(ra, seed)
    setup_s = time.monotonic() - spawned_at

    start = time.perf_counter()
    reports = wl.run(ra, state)
    wall_s = time.perf_counter() - start
    usage = resource.getrusage(resource.RUSAGE_SELF)

    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "items": wl.items(reference[wl.name]),
    }
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.metrics()
        if spans is not None:
            tracer.write_spans(spans)
    out["attempted"], out["failures"] = gate(wl, ra, state, reports, reference, seed)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, bool(args.trace), args.spawned_at, args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
