"""``plinth all --json`` is byte-identical to its recorded output outside ``ms``.

``golden_all.json`` holds one (check id, digest) pair per report, in output
order.  A digest is the SHA-256 of the report's JSON object with ``ms``
removed, written compactly in the report's own key order, as the
benchmark's correctness gate writes it.  To re-record after an intended
change of report text::

    PYTHONPATH=src python tests/test_golden.py > tests/golden_all.json
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden_all.json"


def all_digests(tmp_dir: Path) -> list[list[str]]:
    """(check id, digest) for each report of a fresh ``plinth all --json`` run."""
    path = tmp_dir / "all.json"
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "plinth.cli", "all", "--json", str(path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = []
    for report in json.loads(path.read_text(encoding="utf-8")):
        del report["ms"]
        text = json.dumps(report, separators=(",", ":"))
        out.append([report["id"], hashlib.sha256(text.encode("utf-8")).hexdigest()])
    return out


def test_plinth_all_matches_recorded_digests(tmp_path):
    assert all_digests(tmp_path) == json.loads(GOLDEN.read_text(encoding="utf-8"))


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        pairs = all_digests(Path(tmp))
    print("[\n" + ",\n".join(f"  {json.dumps(pair)}" for pair in pairs) + "\n]")
