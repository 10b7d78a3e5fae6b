"""Self-test of the benchmark: cold runs repeat, the gate compares content.

    python3 -m pytest perfbench/tests -q

Two traced cold runs of one workload must give identical per-layer counts
(calls, pairs, steps, distinct factorization queries); if state leaked
between runs, or a run were not cold, the counts would differ.
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import cold  # noqa: E402
import run  # noqa: E402
from tracing import metric_units  # noqa: E402

WORKLOAD = "conductor-sweep"


def _counts(layers: dict) -> dict:
    units = metric_units()
    return {k: v for k, v in layers.items() if units[k] in ("count", "ratio")}


@pytest.fixture(scope="module")
def traced_pair():
    return [run.spawn(WORKLOAD, 1, True, run.HARD_LIMIT_S) for _ in range(2)]


def test_traced_counts_repeat_exactly(traced_pair):
    first, second = traced_pair
    assert first is not None and second is not None
    assert first["failures"] == [] and second["failures"] == []
    assert _counts(first["layers"]) == _counts(second["layers"])


def test_traced_run_reports_every_layer_metric(traced_pair):
    layers = traced_pair[0]["layers"]
    assert set(layers) == set(metric_units())
    assert layers["sagbi.factorization.calls"] > 0
    assert layers["roberts.an_lemma_checks.calls"] == 1
    # the conductor sweep never reaches the separating layer
    assert layers["separating.separates.calls"] == 0
    assert layers["separating.solve_group_element.calls"] == 0


def test_gate_counts_every_mismatch():
    cold.import_plinth()
    from plinth.report import FAIL, PASS, VerificationReport
    from workloads import WORKLOADS, digest, report_text

    wl = WORKLOADS[WORKLOAD]
    good = VerificationReport("c", "anchor", PASS, {"n": 1}, "all sub-checks passed", 12.5)
    slower = VerificationReport("c", "anchor", PASS, {"n": 1}, "all sub-checks passed", 99.0)
    reference = {wl.name: {"params": wl.params, "digests": {"c": digest(report_text(good))}}}

    def gate(reports, ref=reference):
        return cold.gate(wl, None, None, reports, ref, 1)

    assert gate([good]) == (1, [])
    assert gate([slower]) == (1, [])  # timings are not content
    changed = VerificationReport("c", "anchor", PASS, {"n": 2}, "all sub-checks passed", 12.5)
    assert gate([changed])[1] == ["c: content differs from the reference"]
    failing = VerificationReport("c", "anchor", FAIL, {"n": 1}, ["detail"], 12.5)
    assert gate([failing])[1] == ["c: check failed"]
    assert gate([])[1] == ["c: not produced"]
    assert gate([good, VerificationReport("d", "a", PASS)]) == (2, ["d: not in the reference"])
    other = {wl.name: {**reference[wl.name], "params": {"N": 0}}}
    attempted, failures = gate([good], other)
    assert attempted == 1 and len(failures) == 1
