"""The four benchmark workloads.

Each workload has a set-up step (everything the timed calls need that is
not the verification itself), the timed verification calls, and the
content the correctness gate digests and compares with the reference
recorded at the seed commit.  Functions are reached through their module
(``sagbi.verify_sagbi``, not a name imported at load time), so the
tracer's patches are seen.  Why each workload exists is in README.md.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from plinth import sagbi, separating, sl2
from plinth.report import VerificationReport

# sagbi-pairs: tete-a-tetes of S_0..S_2 up to total degree 7
SAGBI_LEVELS = 2
SAGBI_BOUND = 7
# conductor-sweep: an_lemma_checks(1, degree_bound=5)
CONDUCTOR_N = 1
CONDUCTOR_BOUND = 5
# beta-construct: cold catalog(4), then radical_structure_check(N=2)
BETA_LEVEL = 4
RADICAL_N = 2
RADICAL_DEGREE_BOUND = 6
# orbit-sampling: trials per sampling driver, samples per sl2 module
ORBIT_TRIALS = 300
ORBIT_SAMPLES = 50
ORBIT_MODULES = ("V[4]+V[2]", "V[4]+V[4]")
# the reference holds one digest set per workload seed in range(ORBIT_SEEDS)
ORBIT_SEEDS = 64

X_NAMES = ("x1", "x2", "x3")


@dataclass(frozen=True)
class Workload:
    name: str
    params: dict[str, Any]
    seeded: bool
    setup: Callable[[Any, int], Any]
    run: Callable[[Any, Any], list[VerificationReport]]
    # items one run covers, counted from the inputs and the reference entry
    items: Callable[[dict], int]
    extra_content: Callable[[Any, Any], dict[str, tuple[bool, str]]] | None = None


def report_text(report: VerificationReport) -> str:
    """The report's JSON with the timing field removed."""
    d = report.to_dict()
    del d["ms"]
    return json.dumps(d, separators=(",", ":"))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def content(wl: Workload, ra, state, reports: list[VerificationReport]) -> dict[str, tuple[bool, str]]:
    """Check name -> (verdict ok, canonical text) for everything the gate compares."""
    out = {r.check_id: (r.ok, report_text(r)) for r in reports}
    if wl.extra_content is not None:
        out.update(wl.extra_content(ra, state))
    return out


# -- sagbi-pairs ---------------------------------------------------------------


def _sagbi_setup(ra, seed):
    return [ra.catalog(n) for n in range(SAGBI_LEVELS + 1)]


def _sagbi_run(ra, catalogs):
    reports = []
    for n, G in enumerate(catalogs):
        reports.append(sagbi.verify_sagbi(G, SAGBI_BOUND, check_id=f"sagbi.{n}"))
        reports.append(ra.sagbi_family_checks(n))
    return reports


# -- conductor-sweep -------------------------------------------------------------


def _conductor_setup(ra, seed):
    ra.catalog(CONDUCTOR_N)
    for j in (1, 2, 3):
        ra.beta(j, CONDUCTOR_N + 1)


def _conductor_run(ra, state):
    return [ra.an_lemma_checks(CONDUCTOR_N, degree_bound=CONDUCTOR_BOUND)]


# -- beta-construct --------------------------------------------------------------


def _beta_setup(ra, seed):
    return None


def _beta_run(ra, state):
    ra.catalog(BETA_LEVEL)
    return [ra.radical_structure_check(N=RADICAL_N, degree_bound=RADICAL_DEGREE_BOUND)]


def _beta_content(ra, state):
    out = {}
    for i in (1, 2, 3):
        for n in range(BETA_LEVEL + 1):
            out[f"beta.{i}.{n}"] = (True, str(ra.beta(i, n)))
    for i in (1, 2, 3):
        for n in range(1, RADICAL_N + 1):
            cert = ra.square_in_x_ideal(i, n)
            replays = cert.replay(ra.catalog(2 * n)) == ra.beta(i, n) ** 2
            out[f"square.{i}.{n}"] = (cert.ok and replays, json.dumps(cert.to_dict()))
    return out


# -- orbit-sampling --------------------------------------------------------------


def orbit_call_seeds(seed: int) -> list[int]:
    """Seeds of the four sampling calls, derived from the workload seed."""
    rng = random.Random(seed % ORBIT_SEEDS)
    return [rng.randrange(2**31) for _ in range(2 + len(ORBIT_MODULES))]


def _orbit_setup(ra, seed):
    ra.D.flow_images()
    return {
        "small": ra.catalog(1),
        "big": ra.catalog(4),
        "modules": [sl2.RepSum.parse(spec) for spec in ORBIT_MODULES],
        "seeds": orbit_call_seeds(seed),
    }


def _on_plinth(p) -> bool:
    return all(p[x] == 0 for x in X_NAMES)


def _orbit_run(ra, state):
    names = ra.ring.names

    def plinth_sampler(rng):
        p = {n: Fraction(rng.randint(-9, 9)) for n in names}
        for x in X_NAMES:
            p[x] = Fraction(0)
        return p

    graph_seed, equivalence_seed, *module_seeds = state["seeds"]
    reports = [
        separating.graph_vs_separation_sampling(
            ra.D,
            state["small"],
            trials=ORBIT_TRIALS,
            seed=graph_seed,
            plinth_indicator=_on_plinth,
            plinth_sampler=plinth_sampler,
            plinth_unseparated=True,
        ),
        separating.separating_set_equivalence(
            state["small"], state["big"], ra.D, trials=ORBIT_TRIALS, seed=equivalence_seed
        ),
    ]
    for rep, seed in zip(state["modules"], module_seeds):
        reports.append(
            sl2.component_containment_check(rep, 3, samples=ORBIT_SAMPLES, seed=seed)
        )
    return reports


WORKLOADS: dict[str, Workload] = {
    wl.name: wl
    for wl in (
        Workload(
            "sagbi-pairs",
            {"levels": SAGBI_LEVELS, "degree_bound": SAGBI_BOUND},
            False,
            _sagbi_setup,
            _sagbi_run,
            lambda ref: ref["pairs"],
        ),
        Workload(
            "conductor-sweep",
            {"N": CONDUCTOR_N, "degree_bound": CONDUCTOR_BOUND},
            False,
            _conductor_setup,
            _conductor_run,
            lambda ref: (CONDUCTOR_BOUND + 1) ** 3 - 1,
        ),
        Workload(
            "beta-construct",
            {
                "catalog": BETA_LEVEL,
                "radical_N": RADICAL_N,
                "radical_degree_bound": RADICAL_DEGREE_BOUND,
            },
            False,
            _beta_setup,
            _beta_run,
            lambda ref: 3 * (BETA_LEVEL + 1) + 3 * RADICAL_N,
            _beta_content,
        ),
        Workload(
            "orbit-sampling",
            {
                "trials": ORBIT_TRIALS,
                "samples": ORBIT_SAMPLES,
                "modules": list(ORBIT_MODULES),
                "reference_seeds": ORBIT_SEEDS,
            },
            True,
            _orbit_setup,
            _orbit_run,
            lambda ref: 2 * ORBIT_TRIALS + len(ORBIT_MODULES) * ORBIT_SAMPLES,
        ),
    )
}


def expected_digests(wl: Workload, reference_entry: dict, seed: int) -> dict[str, str]:
    if wl.seeded:
        return reference_entry["seeds"][str(seed % ORBIT_SEEDS)]
    return reference_entry["digests"]
