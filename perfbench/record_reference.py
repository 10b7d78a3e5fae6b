"""Record the correctness gate's reference from the current source tree.

    python3 perfbench/record_reference.py

Runs every workload once (orbit-sampling once per reference seed), each on
a fresh ``RobertsAction()``, and writes ``reference.json``: per workload
its parameters and the SHA-256 of each report's JSON without ``ms`` and of
each extra piece of content (beta(i, n) text, square certificates).  The
committed file was recorded at the seed commit; re-record only when a
change is meant to alter verdicts or certificates.
"""

from __future__ import annotations

import json
import sys

from cold import REFERENCE, import_plinth


def main() -> int:
    import_plinth()
    from plinth import roberts, sagbi
    from workloads import ORBIT_SEEDS, SAGBI_BOUND, WORKLOADS, content, digest

    def digests(wl, seed):
        ra = roberts.RobertsAction()
        state = wl.setup(ra, seed)
        got = content(wl, ra, state, wl.run(ra, state))
        bad = sorted(key for key, (ok, _) in got.items() if not ok)
        if bad:
            raise SystemExit(f"{wl.name} (seed {seed}): checks failed: {bad}")
        return {key: digest(text) for key, (_, text) in sorted(got.items())}

    reference = {}
    for wl in WORKLOADS.values():
        entry = {"params": wl.params}
        if wl.seeded:
            entry["seeds"] = {str(s): digests(wl, s) for s in range(ORBIT_SEEDS)}
        else:
            entry["digests"] = digests(wl, 0)
        if wl.name == "sagbi-pairs":
            ra = roberts.RobertsAction()
            entry["pairs"] = sum(
                len(sagbi.tete_a_tetes(G, SAGBI_BOUND)) for G in wl.setup(ra, 0)
            )
        reference[wl.name] = entry
        print(f"recorded {wl.name}", file=sys.stderr)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
