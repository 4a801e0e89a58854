"""Consistency checks over annotated scripts, with stable diagnostic codes.

Structural problems in the annotation stream (the YW001 family) are found by
simulating the same begin/end stack the model builder uses, so a script with
no error-severity diagnostics is guaranteed to build, render, and answer
queries without raising. Cross-checks against the host code (YW010) and the
channel-level checks (YW020/YW030/YW031) run only once the structure holds.

Codes form a documented closed set:

=====  ========  ==================================================
code   severity  meaning
=====  ========  ==================================================
YW001  error     @end without a matching @begin
YW002  error     @end names a block other than the open one
YW003  error     block never closed
YW004  error     port annotation outside any block
YW005  error     unreadable annotation or comment
YW006  error     duplicate port name/direction on one block
YW007  error     duplicate block name among siblings
YW010  warning   port name absent from the block's code
YW020  error     no dependency chain from output back to inputs
YW030  error     one data name written by several ports in a scope
YW031  warning   output never consumed / workflow input never used
=====  ========  ==================================================

YW04x is reserved for checks on function declarations, which this toolchain
does not model.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from . import queries
from .annotations import Annotation, Tag, parse_annotations_lenient
from .comments import CommentSyntax, detect_language, extract_comments, strip_comments
from .errors import DuplicateBlockName, DuplicatePort, UnterminatedBlockComment
from .model import (
    Block,
    Direction,
    WorkflowModel,
    build_blocks,
    channel_groups,
    infer_channels,
    iter_blocks,
)

ERROR = "error"
WARNING = "warning"

STRUCTURE_CODES = ("YW001", "YW002", "YW003", "YW004", "YW006", "YW007")


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


# -- structural checks ---------------------------------------------------------

@dataclass
class _Frame:
    name: str
    file: str
    line: int
    ports: set
    child_names: set


def check_structure(annotations: Sequence[Annotation]) -> list[Diagnostic]:
    """Simulate block bracketing over one file's annotation stream.

    Reports every problem it can recover from: an unmatched @end is skipped,
    a wrongly named @end still closes the open block, and so on. When this
    returns no diagnostics, building the block tree from the same stream
    cannot fail.
    """
    found: list[Diagnostic] = []
    stack: list[_Frame] = []
    top_names: set[str] = set()

    def report(code: str, message: str, ann: Annotation) -> None:
        found.append(Diagnostic(ERROR, code, message, ann.file, ann.line))

    for ann in annotations:
        if ann.tag is Tag.BEGIN:
            sibling_names = stack[-1].child_names if stack else top_names
            if ann.value in sibling_names:
                report(
                    "YW007",
                    f"block name {ann.value!r} is declared twice in the same scope",
                    ann,
                )
            sibling_names.add(ann.value)
            stack.append(_Frame(ann.value, ann.file, ann.line, set(), set()))
        elif ann.tag is Tag.END:
            if not stack:
                report("YW001", "@end without a matching @begin", ann)
                continue
            if ann.value and ann.value != stack[-1].name:
                report(
                    "YW002",
                    f"@end {ann.value!r} does not close block {stack[-1].name!r}",
                    ann,
                )
            stack.pop()
        else:
            if not stack:
                report(
                    "YW004",
                    f"@{ann.tag.value} {ann.value!r} appears outside any block",
                    ann,
                )
                continue
            direction = Direction.OUT if ann.tag is Tag.OUT else Direction.IN
            key = (ann.value, direction)
            if key in stack[-1].ports:
                report(
                    "YW006",
                    f"block {stack[-1].name!r} already declares "
                    f"{direction.value} port {ann.value!r}",
                    ann,
                )
            stack[-1].ports.add(key)
    while stack:
        frame = stack.pop()
        found.append(
            Diagnostic(
                ERROR,
                "YW003",
                f"block {frame.name!r} is never closed",
                frame.file,
                frame.line,
            )
        )
    return found


# -- code cross-check ------------------------------------------------------------

def check_port_names_in_code(
    tree: Block, stripped_sources: dict[str, str]
) -> list[Diagnostic]:
    """Warn when a port name never appears in the code its block brackets.

    Matching is lexical: the name must occur as a whole word in the block's
    span with all comments blanked out, so a name mentioned only in other
    annotations does not count. This stays language-independent; names that
    are file names rather than identifiers simply earn a warning.
    """
    found: list[Diagnostic] = []
    line_cache = {path: text.splitlines() for path, text in stripped_sources.items()}
    for block in iter_blocks(tree):
        lines = line_cache.get(block.file)
        if lines is None:
            continue
        start = max(block.span[0], 1)
        segment = "\n".join(lines[start - 1 : block.span[1]])
        for port in block.ports:
            pattern = re.compile(
                r"(?<![A-Za-z0-9_])" + re.escape(port.name) + r"(?![A-Za-z0-9_])"
            )
            if not pattern.search(segment):
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

def check_channel_sanity(tree: Block) -> list[Diagnostic]:
    """Flag data names with several writers and ports nothing ever reads."""
    found: list[Diagnostic] = []
    for group in channel_groups(tree):
        if len(group.sources) > 1 and group.sinks:
            _, second = group.sources[1]
            found.append(
                Diagnostic(
                    ERROR,
                    "YW030",
                    f"data {group.data!r} has more than one writer "
                    f"in scope {group.scope!r}",
                    second.file,
                    second.line,
                )
            )
        if group.sources and not group.sinks:
            for endpoint, port in group.sources:
                if endpoint.block == group.scope:
                    message = (
                        f"input {group.data!r} of workflow {group.scope!r} "
                        "is never used"
                    )
                else:
                    message = (
                        f"output {group.data!r} of block {endpoint.block!r} "
                        "is never consumed"
                    )
                found.append(
                    Diagnostic(WARNING, "YW031", message, port.file, port.line)
                )
    return found


def check_dependency_chains(model: WorkflowModel) -> list[Diagnostic]:
    """Require a complete chain from every output back to inputs or constants.

    One dependency graph serves every output, and one scan over all chains
    at once clears a model whose chains are all complete.
    """
    graph = queries.build_dependency_graph(model)
    outputs = [p.name for p in model.root.ports if p.direction is Direction.OUT]
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
    blocks completely: block stacks do not span files.
    """
    diagnostics: list[Diagnostic] = []
    streams: list[list[Annotation]] = []
    stripped: dict[str, str] = {}
    for path, text, syntax in sources:
        try:
            comments = extract_comments(text, syntax, file=path)
        except UnterminatedBlockComment as exc:
            diagnostics.append(
                Diagnostic(ERROR, "YW005", exc.message, path, exc.line or 1)
            )
            comments = []
        annotations, problems = parse_annotations_lenient(comments)
        for problem in problems:
            diagnostics.append(
                Diagnostic(
                    ERROR,
                    "YW005",
                    problem.message,
                    problem.file or path,
                    problem.line or 1,
                )
            )
        diagnostics.extend(check_structure(annotations))
        streams.append(annotations)
        try:
            stripped[path] = strip_comments(text, syntax, file=path)
        except UnterminatedBlockComment:
            stripped[path] = text

    merged = [ann for stream in streams for ann in stream]
    structure_broken = any(d.code in STRUCTURE_CODES for d in diagnostics)
    if not structure_broken and any(a.tag is Tag.BEGIN for a in merged):
        first = sources[0][0]
        try:
            tree = build_blocks(merged, root_name=Path(first).stem)
        except (DuplicatePort, DuplicateBlockName) as exc:
            code = "YW006" if isinstance(exc, DuplicatePort) else "YW007"
            diagnostics.append(
                Diagnostic(ERROR, code, exc.message, exc.file or first, exc.line or 1)
            )
            tree = None
        if tree is not None:
            sanity = check_channel_sanity(tree)
            diagnostics.extend(sanity)
            diagnostics.extend(check_port_names_in_code(tree, stripped))
            if not any(d.code == "YW030" for d in sanity):
                model = WorkflowModel(
                    tree, infer_channels(tree), tuple(path for path, _, _ in sources)
                )
                diagnostics.extend(check_dependency_chains(model))

    file_order = {path: i for i, (path, _, _) in enumerate(sources)}
    diagnostics.sort(
        key=lambda d: (
            file_order.get(d.file, len(file_order)),
            d.line,
            d.code,
            d.message,
        )
    )
    return diagnostics


def validate_scripts(
    paths: Sequence[str | Path], language: str | None = None
) -> list[Diagnostic]:
    """Validate script files from disk; language may override detection."""
    sources = []
    for path in paths:
        syntax = detect_language(path, language)
        sources.append((str(path), Path(path).read_text(), syntax))
    return validate_sources(sources)
