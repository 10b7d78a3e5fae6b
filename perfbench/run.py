"""Benchmark of plinth's verification workloads, each run cold.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S     # every workload

Every repetition starts a fresh interpreter (cold.py) with a fresh
``RobertsAction()``: the program's caches only grow, so a second run in
one process would time dictionary lookups.  Repetitions continue until
``--seconds`` is used up (at least three); each end-to-end metric is the
median over them.  With ``--trace 1`` one traced repetition comes first
and the output holds the per-layer metrics instead, plus the tracing
overhead against the untraced median.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / ".out"
WORKLOAD_NAMES = ("sagbi-pairs", "conductor-sweep", "beta-construct", "orbit-sampling")
MIN_REPS = 3
# every repetition, and so the whole run, ends well inside 180 s
HARD_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


def spawn(workload: str, seed: int, trace: bool, timeout: float) -> dict | None:
    """One cold repetition; None if it crashed or timed out."""
    cmd = [sys.executable, str(HERE / "cold.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace))]
    if trace:
        OUT.mkdir(exist_ok=True)
        cmd += ["--spans", str(OUT / f"spans-{workload}.tsv")]
    # a fixed hash seed keeps set and dict orders, and so the per-layer
    # counts, identical from one interpreter to the next
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--spawned-at", repr(spawned_at)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        print(f"{workload}: repetition timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload}: repetition exited {proc.returncode}\n{proc.stderr[-2000:]}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def reference_checks(workload: str) -> int:
    """Checks one repetition makes, counted from the reference."""
    entry = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))[workload]
    digests = entry.get("digests") or next(iter(entry["seeds"].values()))
    return len(digests)


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    start = time.monotonic()

    def left() -> float:
        return HARD_LIMIT_S - (time.monotonic() - start)

    traced = spawn(workload, seed, True, left()) if trace else None
    reps: list[dict | None] = []
    durations: list[float] = []
    while left() > 0:
        t0 = time.monotonic()
        reps.append(spawn(workload, seed, False, left()))
        durations.append(time.monotonic() - t0)
        next_end = time.monotonic() - start + statistics.median(durations)
        if next_end > HARD_LIMIT_S or (len(reps) >= MIN_REPS and next_end > seconds):
            break

    checks = reference_checks(workload)
    attempted = failed = 0
    for rep in reps + ([traced] if trace else []):
        if rep is None:
            attempted += checks
            failed += checks
        else:
            attempted += rep["attempted"]
            failed += len(rep["failures"])
            for failure in rep["failures"]:
                print(f"{workload}: FAILED {failure}", file=sys.stderr)
    done = [rep for rep in reps if rep is not None]
    for k, rep in enumerate(done, 1):
        print(f"rep {k} " + " ".join(
            f"{name}={rep[name]:.4f}" for name in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")))
    result = {"attempted": attempted, "failed": failed, "reps": len(done), "metrics": {}}
    if not done or (trace and traced is None):
        return result
    if trace:
        result["metrics"] = dict(traced["layers"])
        result["metrics"]["trace_overhead_s"] = (
            traced["wall_s"] - statistics.median(rep["wall_s"] for rep in done))
        return result
    result["metrics"] = {
        "setup_s": statistics.median(rep["setup_s"] for rep in done),
        "wall_s": statistics.median(rep["wall_s"] for rep in done),
        "items_per_s": statistics.median(rep["items"] / rep["wall_s"] for rep in done),
        "cpu_s": statistics.median(rep["cpu_s"] for rep in done),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in done),
    }
    return result


def per_layer_units() -> dict[str, str]:
    sys.path.insert(0, str(HERE))
    from tracing import metric_units

    return {**metric_units(), "trace_overhead_s": "s"}


def run_record(workloads: list[str], seed: int, seconds: int, trace: bool) -> dict:
    """Machine, interpreter, source revision and size of this run."""
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((ROOT / "src").rglob("*.py"))
    )
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "git_sha": sha,
        "src_lines": src_lines,
        "workloads": workloads,
        "seed": seed,
        "seed_effect": {
            name: ("derives every sample" if name == "orbit-sampling" else "none: inputs are fixed")
            for name in workloads
        },
        "seconds": seconds,
        "trace": trace,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1729)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "plinth").is_dir():
        print(f"no plinth source tree under {ROOT}", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    workloads = list(WORKLOAD_NAMES) if args.workload == "all" else [args.workload]
    print("record " + json.dumps(run_record(workloads, args.seed, args.seconds, trace)))
    units = per_layer_units() if trace else END_TO_END_UNITS
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    for workload in workloads:
        result = measure(workload, args.seed, args.seconds, trace)
        if not result["metrics"]:
            print(f"{workload}: no repetition completed", file=sys.stderr)
            return 1
        attempted += result["attempted"]
        failed += result["failed"]
        fail_ratio = result["failed"] / result["attempted"]
        print(f"metric {workload} fail_ratio {fail_ratio} ratio "
              f"({result['failed']} of {result['attempted']} checks, {result['reps']} reps)")
        for name, unit in units.items():
            value = result["metrics"][name]
            print(f"metric {workload} {name} {value} {unit}")
            key = name if len(workloads) == 1 else f"{workload}.{name}"
            metrics[key] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
