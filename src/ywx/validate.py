"""Consistency checks over annotated scripts, with stable diagnostic codes.

Scripts are read, scanned, tagged and bracketed by the code every command
uses, each problem it would raise reported (YW001-YW008), so a script with
no error-severity diagnostics is guaranteed to build, render, and answer
queries without raising; only ``derivation`` refuses a feedback loop, which
has no order of steps. Cross-checks against the code (YW010) and the
channel-level checks (YW020/YW030/YW031) run only once the structure holds.

Codes form a documented closed set:

=====  ========  ===================================================
code   severity  meaning
=====  ========  ===================================================
YW001  error     @end without a matching @begin
YW002  error     @end names a block other than the open one
YW003  error     block never closed
YW004  error     port annotation outside any block
YW005  error     unreadable annotation or unterminated block comment
YW006  error     duplicate port name/direction on one block
YW007  error     duplicate qualified block name
YW008  error     the annotation stream defines no blocks
YW010  warning   port name absent from the block's code
YW020  error     no dependency chain from an output back to inputs
YW030  error     one data name written by several blocks in a scope
YW031  warning   output never consumed / workflow input never used
=====  ========  ===================================================

YW04x is reserved for checks on function declarations, which this toolchain
does not model.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from . import queries
from .annotations import _script_tags
from .comments import CommentSyntax, _blanked, _read_scripts
from .errors import (
    DuplicateBlockName,
    DuplicatePort,
    InvalidValue,
    MismatchedEndName,
    MissingValue,
    NoBlocks,
    PortOutsideBlock,
    UnbalancedEnd,
    UnclosedBlock,
    UnterminatedBlockComment,
    YwxError,
)
from .model import Block, Direction, WorkflowModel, _Group, _joined, _tree, iter_blocks

ERROR = "error"
WARNING = "warning"

# The code of each problem the script reader and the tree step collect.
_CODES = {
    UnbalancedEnd: "YW001",
    MismatchedEndName: "YW002",
    UnclosedBlock: "YW003",
    PortOutsideBlock: "YW004",
    MissingValue: "YW005",
    InvalidValue: "YW005",
    UnterminatedBlockComment: "YW005",
    DuplicatePort: "YW006",
    DuplicateBlockName: "YW007",
    NoBlocks: "YW008",
}


@dataclass(frozen=True)
class Diagnostic:
    severity: str
    code: str
    message: str
    file: str
    line: int

    def render(self) -> str:
        return f"{self.file}:{self.line}: {self.severity} {self.code} {self.message}"


def has_errors(diagnostics: Sequence[Diagnostic]) -> bool:
    return any(d.severity == ERROR for d in diagnostics)


def format_diagnostics(diagnostics: Sequence[Diagnostic]) -> str:
    return "\n".join(d.render() for d in diagnostics)


def diagnostics_as_dicts(diagnostics: Sequence[Diagnostic]) -> list[dict]:
    return [
        {
            "file": d.file,
            "line": d.line,
            "severity": d.severity,
            "code": d.code,
            "message": d.message,
        }
        for d in diagnostics
    ]


def _diagnostic(problem: YwxError) -> Diagnostic:
    """The error diagnostic of a problem the load collected, at its place."""
    return Diagnostic(ERROR, _CODES[type(problem)], problem.message, problem.file, problem.line)


# -- code cross-check ------------------------------------------------------------

_WORD = re.compile(r"[A-Za-z0-9_]+")


def _word_lines(lines: list[str]) -> dict[str, list[int]]:
    """Map each maximal ``[A-Za-z0-9_]+`` run to the sorted lines it is on."""
    index: dict[str, list[int]] = {}
    for lineno, line in enumerate(lines, start=1):
        for word in set(_WORD.findall(line)):
            index.setdefault(word, []).append(lineno)
    return index


def _name_lines(name: str, lines: list[str], index: dict[str, list[int]]) -> list[int]:
    """The sorted lines a name occurs on as a whole word. Every word run
    inside such a match is a maximal run of its line, so only the lines of
    the name's leading word are searched, or every line when the name holds
    no word character."""
    word = _WORD.search(name)
    candidates = range(1, len(lines) + 1) if word is None else index.get(word.group(), ())
    if not candidates:  # a word the file lacks, or a name whose leading word it lacks
        return []
    whole = re.compile(r"(?<![A-Za-z0-9_])" + re.escape(name) + r"(?![A-Za-z0-9_])")
    return [n for n in candidates if whole.search(lines[n - 1])]


def check_port_names_in_code(
    tree: Block, stripped_sources: dict[str, str]
) -> list[Diagnostic]:
    """Warn when a port name never appears in the code its block brackets.

    Matching is lexical: the name must occur as a whole word in the block's
    span with all comments blanked out, so a name mentioned only in other
    annotations does not count. The span's lines are split at newline
    characters only, the lines that annotation line numbers count. This
    stays language-independent; names that are file names rather than
    identifiers simply earn a warning.

    Each file is tokenised once into an index from every word to the lines
    it occurs on, so a name is looked up by bisection; a name cannot cross a
    newline, so this equals a whole-word search of the span. A name the
    index lacks, such as ``results.csv``, enters it from ``_name_lines`` at
    its first lookup in a file. ``stripped_sources`` holds the blanked text
    of every file a block is in.
    """
    found: list[Diagnostic] = []
    files: dict[str, tuple[list[str], dict[str, list[int]]]] = {}
    for block in iter_blocks(tree):
        if block.file not in files:
            lines = stripped_sources[block.file].split("\n")
            files[block.file] = (lines, _word_lines(lines))
        lines, index = files[block.file]
        first, last = max(block.span[0], 1), block.span[1]
        for port in block.ports:
            occurs = index.get(port.name)
            if occurs is None:
                occurs = index[port.name] = _name_lines(port.name, lines, index)
            k = bisect_left(occurs, first)
            if not (k < len(occurs) and occurs[k] <= last):
                found.append(
                    Diagnostic(
                        WARNING,
                        "YW010",
                        f"port name {port.name!r} does not appear in the code "
                        f"of block {block.qualified_name!r}",
                        port.file,
                        port.line,
                    )
                )
    return found


# -- channel-level checks ----------------------------------------------------------

def check_channel_sanity(groups: Sequence[_Group]) -> list[Diagnostic]:
    """Flag data names with several writers and ports nothing ever reads.

    Takes the names the model build appended to ``_bracket``'s ``checks``,
    as ``(scope, data, writers, readers)``: those with a reader and several
    writers, and those nothing reads.
    """
    found: list[Diagnostic] = []
    for scope, data, sources, sinks in groups:
        if len(sources) > 1 and sinks:
            second = sources[1][2]
            message = f"data {data!r} has more than one writer in scope {scope!r}"
            found.append(Diagnostic(ERROR, "YW030", message, second.file, second.line))
        if not sinks:
            for block, _, port in sources:
                if block == scope:
                    message = f"input {data!r} of workflow {scope!r} is never used"
                else:
                    message = f"output {data!r} of block {block!r} is never consumed"
                found.append(Diagnostic(WARNING, "YW031", message, port.file, port.line))
    return found


def check_dependency_chains(model: WorkflowModel) -> list[Diagnostic]:
    """Require a complete chain from every output back to inputs or constants.

    One dependency graph serves every output, and one scan over all chains
    at once clears a model whose chains are all complete.
    """
    graph = queries.build_dependency_graph(model)
    outputs = queries._root_ports(graph.index, Direction.OUT)
    return [
        Diagnostic(
            ERROR,
            "YW020",
            f"output {output!r} has no complete dependency chain: "
            f"port {ref.port.name!r} of block {ref.block!r} is unbound",
            ref.port.file,
            ref.port.line,
        )
        for output, refs in queries._broken_chains(graph, outputs)
        for ref in refs
    ]


# -- orchestration -------------------------------------------------------------------

def validate_sources(
    sources: Sequence[tuple[str, str, CommentSyntax]]
) -> list[Diagnostic]:
    """Run every check over (path, text, syntax) triples, in document order.

    Several files are read as one workflow, but each file must bracket its
    blocks completely: block stacks do not span files. The files are read as
    every command reads them, by ``_script_tags`` and ``model._tree``, which
    here collect each problem a command would refuse them for instead of
    raising it. Each file is scanned once: its spans give its annotations and
    the blanked code YW010 searches. The one bracketing pass names the root
    as a model load does, and gives the tree, its channels, and the data
    names YW030 and YW031 flag.
    """
    paths = [path for path, _, _ in sources]
    problems: list[YwxError] = []
    merged, spans = _script_tags(sources, problems)
    checks: list[_Group] = []
    tree, slots = _tree(merged, None, paths, problems, checks)
    diagnostics = [_diagnostic(problem) for problem in problems]
    if tree is not None:
        sanity = check_channel_sanity(checks)
        diagnostics.extend(sanity)
        stripped = {path: _blanked(text, at) for (path, text, _), at in zip(sources, spans)}
        diagnostics.extend(check_port_names_in_code(tree, stripped))
        if not any(d.code == "YW030" for d in sanity):
            model = WorkflowModel(tree, _joined(slots), tuple(paths))
            diagnostics.extend(check_dependency_chains(model))

    file_order = {path: i for i, path in enumerate(paths)}
    diagnostics.sort(
        key=lambda d: (file_order.get(d.file, len(file_order)), d.line, d.code, d.message)
    )
    return diagnostics


def validate_scripts(
    paths: Sequence[str | Path], language: str | None = None
) -> list[Diagnostic]:
    """Validate script files from disk; language may override detection."""
    return validate_sources(list(_read_scripts(paths, language)))
