"""Line coverage of ``src/plinth`` under the test suite, with the stdlib only.

    PYTHONPATH=src python tests/linecov.py [pytest arguments] [--missed]

runs pytest in this process under a ``sys.settrace`` hook and prints, per
module and in total, how many executable lines ran.  ``--missed`` also
lists the line ranges that never ran.  A line is executable when some code
object of the compiled module maps an instruction to it.  Work done in
subprocesses (the CLI runs of ``tests/test_golden.py``) is not seen, and
a test with a wall-clock bound may fail, since the tracer slows ``src``
several times over.

This is a diagnostic, not a gate: its exit status is pytest's.  The file
name does not match ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import os
import sys
import threading
from types import CodeType

SRC = os.path.realpath(os.path.join(os.path.dirname(__file__), "..", "src", "plinth"))


def executable_lines(path: str) -> set[int]:
    with open(path, encoding="utf-8") as fh:
        code = compile(fh.read(), path, "exec")
    lines: set[int] = set()
    stack = [code]
    while stack:
        co = stack.pop()
        lines.update(line for _, _, line in co.co_lines() if line is not None)
        stack.extend(c for c in co.co_consts if isinstance(c, CodeType))
    return lines


def _ranges(lines: list[int]) -> str:
    out, start = [], None
    for a, b in zip(lines, lines[1:] + [None]):
        start = a if start is None else start
        if b != a + 1:
            out.append(str(a) if start == a else f"{start}-{a}")
            start = None
    return ", ".join(out)


def main(argv: list[str]) -> int:
    import pytest

    show_missed = "--missed" in argv
    argv = [a for a in argv if a != "--missed"]
    hit: dict[str, set[int]] = {}
    watched: dict[str, bool] = {}

    def local(frame, event, arg):
        if event == "line":
            hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        mine = watched.get(name)
        if mine is None:
            mine = watched[name] = os.path.realpath(name).startswith(SRC + os.sep)
        if not mine:
            return None
        hit.setdefault(name, set()).add(frame.f_lineno)
        return local

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(argv + ["-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    ran = {os.path.realpath(k): v for k, v in hit.items()}
    total_hit = total_lines = 0
    for fname in sorted(os.listdir(SRC)):
        if not fname.endswith(".py"):
            continue
        path = os.path.join(SRC, fname)
        lines = executable_lines(path)
        covered = lines & ran.get(path, set())
        total_hit += len(covered)
        total_lines += len(lines)
        print(f"{fname:16} {len(covered):5} / {len(lines):5}  {100 * len(covered) / len(lines):5.1f}%")
        if show_missed and lines - covered:
            print(f"    missed: {_ranges(sorted(lines - covered))}")
    print(f"{'total':16} {total_hit:5} / {total_lines:5}  {100 * total_hit / total_lines:5.1f}%")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
