"""Comments the Python scanner invents or misses in real code, against a ledger.

Compares the line comments ``comments._scan`` finds with the ``COMMENT``
tokens of the stdlib ``tokenize`` module, by line and text, over every
top-level ``.py`` module of the running interpreter's standard library. A
comment only the scanner finds is invented, one only ``tokenize`` finds is
missed. Each is put down to a cause by where its ``#`` stands among
``tokenize``'s string tokens:

- ``plain-triple``: inside a ``'''`` or ``\"\"\"`` string without a prefix;
- ``prefixed-triple``: inside a prefixed one (``r'''``, ``f\"\"\"``, ...);
- ``after-string``: after a string that ends on the same line;
- ``other``: anywhere else.

The report gives the counts per cause, how many of those comments hold
``@``, and each of those by module and line. It is compared with
``tools/scan_ledger.txt``; the script exits 1 and prints the difference when
they differ, so a scanner change that moves a count updates the ledger. The
standard library differs between patch releases, so the report starts with
the interpreter version, and the ledger is kept for that one version.

    python tools/scan_ledger.py
"""

from __future__ import annotations

import difflib
import io
import re
import sys
import sysconfig
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LEDGER = Path(__file__).with_suffix(".txt")
CAUSES = ("plain-triple", "prefixed-triple", "after-string", "other")
TRIPLE = re.compile(r"([A-Za-z]*)('''|\"\"\")")

sys.path.insert(0, str(ROOT / "src"))
from ywx.comments import LANGUAGES, _scan  # noqa: E402


def cause(strings: list[tokenize.TokenInfo], where: tuple[int, int]) -> str:
    """Why a ``#`` at ``(line, column)`` is read differently: the string
    token it stands in, or one that ends before it on its line."""
    for tok in strings:
        if tok.start <= where < tok.end:
            triple = TRIPLE.match(tok.string)
            if triple is None:
                return "other"
            return "prefixed-triple" if triple.group(1) else "plain-triple"
    if any(tok.end[0] == where[0] and tok.end[1] <= where[1] for tok in strings):
        return "after-string"
    return "other"


def module_ledger(path: Path) -> tuple[int, list[tuple[str, str, int, str]]]:
    """The module's comment count by ``tokenize``, and each comment read
    differently as ``(invented or missed, cause, line, text)``."""
    with tokenize.open(path) as handle:
        source = handle.read()
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    strings = [tok for tok in tokens if tok.type == tokenize.STRING]
    found = {
        (tok.start[0], tok.string[1:]): tok.start for tok in tokens if tok.type == tokenize.COMMENT
    }
    scanned = {}
    for kind, start, _, inner_start, inner_end, line, _ in _scan(
        source, LANGUAGES["python"], path.name
    ):
        if kind == "line":
            column = start - (source.rfind("\n", 0, start) + 1)
            scanned[(line, source[inner_start:inner_end])] = (line, column)
    differ = [
        ("invented", cause(strings, where), *key)
        for key, where in scanned.items()
        if key not in found
    ]
    differ += [
        ("missed", cause(strings, where), *key) for key, where in found.items() if key not in scanned
    ]
    return len(found), differ


def report() -> list[str]:
    stdlib = Path(sysconfig.get_paths()["stdlib"])
    modules = sorted(stdlib.glob("*.py"))
    comments = 0
    counts = {(side, c): 0 for side in ("invented", "missed") for c in CAUSES}
    with_at = []
    for path in modules:
        found, differ = module_ledger(path)
        comments += found
        for side, why, line, text in differ:
            counts[(side, why)] += 1
            if "@" in text:
                with_at.append(f"  {side} {why} {path.name}:{line}")
    lines = [
        "# Line comments of ywx's Python scanner against tokenize's COMMENT tokens",
        "# over the top-level modules of the standard library: tools/scan_ledger.py.",
        f"python {sys.version.split()[0]}",
        f"modules {len(modules)}",
        f"comments {comments}",
    ]
    for side in ("invented", "missed"):
        lines.append(f"{side} {sum(counts[(side, c)] for c in CAUSES)}")
        lines += [f"  {c} {counts[(side, c)]}" for c in CAUSES]
    lines.append(f"holding @ {len(with_at)}")
    return lines + sorted(with_at)


def main() -> int:
    got = report()
    print("\n".join(got))
    expected = LEDGER.read_text(encoding="utf-8").splitlines()
    if got == expected:
        return 0
    diff = difflib.unified_diff(expected, got, str(LEDGER.name), "this run", lineterm="")
    print("\n".join(diff), file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
