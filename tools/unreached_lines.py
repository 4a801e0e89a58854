"""Lines of ``src/ywx`` that no tier-1 test reaches, checked against a list.

Runs the tier-1 suite in this process under a ``sys.settrace`` line tracer
that records lines in ``src/ywx`` only, then compares the executable lines
no test reached with ``tools/unreached_lines.txt``. That file gives one
line per entry, ``FILE:LINE: reason``; ``#`` starts a comment. Exits 1 when
a test fails or the two lists differ, printing each difference with the
source line, so a change that leaves a new line unreached, or reaches a
listed one, updates the list.

    python tools/unreached_lines.py

Line tables differ between Python versions: the list is kept for 3.11.
Hypothesis runs with a fixed seed and an empty example database, and the
hash seed is fixed, so a run reaches the same lines each time.
``test_no_collection_starts_during_a_command`` runs plain, in its own
interpreter, after the traced run: it sets a collector threshold of 50
allocations, which the tracer's own allocations would exceed.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ywx"
LISTED = Path(__file__).with_suffix(".txt")
PLAIN = "tests/test_command_cost.py::test_no_collection_starts_during_a_command"
PYTEST = ["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0"]


def executable_lines(path: Path) -> set[int]:
    """Every line some instruction of the module's code starts on."""
    lines: set[int] = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def traced_run() -> tuple[int, set[tuple[str, int]]]:
    """Tier-1's exit status under the tracer, without ``PLAIN``, and the
    ``(file name, line)`` pairs it reached in the package."""
    import pytest

    prefix = str(PACKAGE) + os.sep
    reached: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(calls)
    try:
        status = pytest.main([*PYTEST, "--deselect", PLAIN, "tests"])
    finally:
        sys.settrace(None)
    return status, {(Path(f).name, line) for f, line in reached}


def listed() -> dict[tuple[str, int], str]:
    entries = {}
    for raw in LISTED.read_text(encoding="utf-8").splitlines():
        if raw.strip() and not raw.startswith("#"):
            file, line, reason = raw.split(":", 2)
            entries[(file, int(line))] = reason.strip()
    return entries


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = {**os.environ, "PYTHONHASHSEED": "0"}
        return subprocess.call([sys.executable, *sys.argv], env=env)
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as examples:
        os.environ["HYPOTHESIS_STORAGE_DIRECTORY"] = examples
        status, reached = traced_run()
        plain = subprocess.call([sys.executable, "-m", "pytest", *PYTEST, PLAIN])
    if status or plain:
        print(f"tier-1 failed: traced run exit {status}, plain run exit {plain}")
        return 1
    unreached = {
        (path.name, line)
        for path in sorted(PACKAGE.glob("*.py"))
        for line in executable_lines(path)
        if (path.name, line) not in reached
    }
    expected = listed()
    new = sorted(unreached - expected.keys())
    gone = sorted(expected.keys() - unreached)

    def show(file: str, line: int) -> str:
        return (PACKAGE / file).read_text(encoding="utf-8").splitlines()[line - 1].strip()

    for file, line in new:
        print(f"unreached, not listed: {file}:{line}: {show(file, line)}")
    for file, line in gone:
        print(f"listed, now reached or not a line: {file}:{line}: {expected[file, line]}")
    print(f"{len(unreached)} unreached lines; {len(new)} not listed, "
          f"{len(gone)} listed but reached")
    return 1 if new or gone else 0


if __name__ == "__main__":
    sys.exit(main())
