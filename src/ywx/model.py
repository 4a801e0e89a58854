"""Hierarchical workflow model recovered from an annotation stream.

Blocks nest via ``@begin``/``@end`` pairs; ``@in``/``@out``/``@param``
declare ports on the innermost open block. Channels connect ports that
share a data name within one workflow scope: the writer is either the
workflow's own input or exactly one child's output, and every matching
reader becomes a sink. Nested workflows re-declare ports at each level,
so channel inference never looks across more than one boundary at a time.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from enum import Enum
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Sequence, TypeVar

from .annotations import IDENTIFIER_RE, Annotation, Tag, _check_unicode, _decode_json
from .errors import (
    AmbiguousWriter,
    DuplicateBlockName,
    DuplicatePort,
    MalformedModel,
    MismatchedEndName,
    ModelError,
    NoBlocks,
    PortOutsideBlock,
    UnbalancedEnd,
    UnclosedBlock,
)


class Direction(Enum):
    IN = "in"
    OUT = "out"


class Role(Enum):
    DATA = "data"
    PARAMETER = "parameter"


@dataclass(frozen=True)
class Port:
    """A named input or output declared on a block."""

    name: str
    direction: Direction
    role: Role
    file: str
    line: int
    description: str | None = None


@dataclass(frozen=True)
class Block:
    """A program or workflow; a block with children is a workflow."""

    name: str
    qualified_name: str
    description: str | None
    ports: tuple[Port, ...]
    children: tuple["Block", ...]
    span: tuple[int, int]
    file: str

    @property
    def is_workflow(self) -> bool:
        return bool(self.children)


@dataclass(frozen=True)
class Endpoint:
    """One end of a channel: a block plus the direction of its port there."""

    block: str  # qualified name
    direction: Direction


@dataclass(frozen=True)
class Channel:
    """A single-writer dataflow connection within one workflow scope."""

    data: str
    scope: str  # qualified name of the enclosing workflow
    role: Role
    source: Endpoint
    sinks: tuple[Endpoint, ...]


@dataclass(frozen=True)
class WorkflowModel:
    root: Block
    channels: tuple[Channel, ...]
    source_files: tuple[str, ...]


# -- tree helpers -----------------------------------------------------------

def iter_blocks(root: Block) -> Iterator[Block]:
    """Yield ``root`` and every descendant in pre-order."""
    stack = [root]
    while stack:
        block = stack.pop()
        yield block
        stack.extend(reversed(block.children))


class ModelIndex:
    """Lookup tables over one model, built once per command and shared.

    ``blocks`` and ``parents`` are keyed by qualified name, ``chan`` by
    ``(scope, data)`` and ``ports`` by ``(block, name, direction)``;
    ``programs`` holds the qualified names of the blocks without children.

    It is also the one boundary resolver. ``writer`` and ``readers`` follow
    a channel through workflow boundaries, up to a stopping scope, to the
    ends that really write and read its data, and ``outer`` gives the
    same-named channel one scope out. Resolved ends are memoised per index,
    and ``across`` steps over each channel end at most once.
    """

    def __init__(self, model: WorkflowModel) -> None:
        self.root_q = model.root.qualified_name
        self.blocks: dict[str, Block] = {}
        self.parents: dict[str, str | None] = {self.root_q: None}
        self.ports: dict[tuple[str, str, Direction], Port] = {}
        self.programs: set[str] = set()
        for block in iter_blocks(model.root):
            q = block.qualified_name
            self.blocks[q] = block
            if not block.children:
                self.programs.add(q)
            for child in block.children:
                self.parents[child.qualified_name] = q
            for port in block.ports:
                self.ports[(q, port.name, port.direction)] = port
        self.chan: dict[tuple[str, str], Channel] = {
            (ch.scope, ch.data): ch for ch in model.channels
        }
        self._links: dict[tuple[str, str, bool], list] = {}
        self._ends: dict[tuple, tuple[Endpoint, ...]] = {}

    def across(self, ch: Channel, end: Endpoint) -> Channel | None:
        """The channel on the far side of ``end``, an endpoint of ``ch``.

        The scope's own port leads out to the parent scope's channel of the
        same name; a child workflow's port leads into the child's own one.
        A program, the root, or a port with nothing connected on the far
        side gives None. Channels are derived from the tree, so a far
        channel that exists always has the boundary port as its matching
        endpoint.
        """
        if end.block == ch.scope:
            outer = self.parents[ch.scope]
            return None if outer is None else self.chan.get((outer, ch.data))
        if end.block in self.programs:
            return None
        return self.chan.get((end.block, ch.data))

    def outer(self, ch: Channel) -> Channel | None:
        """The same-named channel one scope out that ``ch`` passes data to or
        from: None unless the scope's own port is one of ``ch``'s ends."""
        for end in (ch.source, *ch.sinks):
            if end.block == ch.scope:
                return self.across(ch, end)
        return None

    def writer(self, ch: Channel, stop: str) -> Endpoint:
        """The end that really writes ``ch``'s data; see ``readers``."""
        return self._resolve(ch, stop, True)[0]

    def readers(self, ch: Channel, stop: str) -> tuple[Endpoint, ...]:
        """The ends that really read ``ch``'s data, through workflow boundaries.

        Each sink is followed through the boundaries it crosses to a
        program's port, or to a boundary port the walk does not pass: a port
        of ``stop``, one with nothing connected beyond it, or one leading
        straight back to the channel the walk came from.
        """
        return self._resolve(ch, stop, False)

    def _resolve(self, ch: Channel, stop: str, writers: bool) -> tuple[Endpoint, ...]:
        """Resolve the source (or the sinks) of ``ch``, memoised, without recursion.

        For one data name a boundary joins a scope only to its parent, so a
        walk that never turns straight back meets no channel twice. What a
        channel resolves to depends on the walk only through the scope it
        came from, and the memo is keyed by that.
        """

        def frame(channel: Channel, came: str | None) -> list:
            link_key = (channel.scope, data, writers)
            links = self._links.get(link_key)
            if links is None:
                ends = (channel.source,) if writers else channel.sinks
                links = self._links[link_key] = [(e, self.across(channel, e)) for e in ends]
            return [(channel.scope, came, data, stop, writers), iter(links), []]

        data, memo = ch.data, self._ends
        top = (ch.scope, None, data, stop, writers)
        stack = [] if top in memo else [frame(ch, None)]
        while stack:
            key, pending, found = stack[-1]
            scope, came = key[:2]
            for end, far in pending:
                if far is None or far.scope == came or end.block == stop:
                    found.append(end)
                elif (step := (far.scope, scope, data, stop, writers)) in memo:
                    found.extend(memo[step])
                else:
                    stack.append(frame(far, scope))
                    break
            else:
                stack.pop()
                memo[key] = tuple(found)
                if stack:
                    stack[-1][2].extend(memo[key])
        return memo[top]


def sanitize_name(raw: str) -> str:
    """Coerce an arbitrary string (e.g. a file stem) into a block name."""
    cleaned = re.sub(r"[^A-Za-z0-9_]", "_", raw)
    if not cleaned:
        return "script"
    if not re.match(r"[A-Za-z_]", cleaned[0]):
        cleaned = "_" + cleaned
    return cleaned


# -- building the block tree ------------------------------------------------

@dataclass
class _OpenBlock:
    name: str
    path: str  # dotted names from the top level down
    file: str
    line: int
    description: str | None
    ports: list[Port] = field(default_factory=list)
    port_keys: set[tuple[str, Direction]] = field(default_factory=set)
    children: list["_Closed"] = field(default_factory=list)


@dataclass
class _Closed:
    name: str
    file: str
    description: str | None
    ports: list[Port]
    children: list["_Closed"]
    span: tuple[int, int]


_PORT_TAGS = {
    Tag.IN: (Direction.IN, Role.DATA),
    Tag.OUT: (Direction.OUT, Role.DATA),
    Tag.PARAM: (Direction.IN, Role.PARAMETER),
}


def _bracket(
    annotations: Sequence[Annotation], root_name: str | None = None
) -> tuple[list[ModelError], Block | None]:
    """Match a document-ordered stream's ``@begin``/``@end`` pairs into blocks.

    The one begin/end stack of the toolchain. It returns every structural
    problem, in document order, and the block tree, which is None when there
    is a problem or no block at all. Each problem is recovered from: an
    unmatched ``@end`` or a port outside any block is skipped, a wrongly
    named ``@end`` still closes the open block, and a duplicate port or
    block name is passed over. Blocks never span files: those still open
    when the file changes or the stream ends are reported innermost first,
    and closed. Two blocks may not share a dotted path from the top level,
    which is their qualified name below the root.
    """
    problems: list[ModelError] = []
    stack: list[_OpenBlock] = []
    top_level: list[_Closed] = []
    paths: dict[str, tuple[_OpenBlock | None, Annotation]] = {}  # first declarations
    max_line = 0

    def close_open_blocks() -> None:
        while stack:
            open_block = stack.pop()
            problems.append(UnclosedBlock(
                f"block {open_block.name!r} is never closed",
                file=open_block.file,
                line=open_block.line,
            ))

    for ann in annotations:
        if stack and ann.file != stack[-1].file:
            close_open_blocks()
        max_line = max(max_line, ann.line)
        if ann.tag is Tag.BEGIN:
            owner = stack[-1] if stack else None
            path = f"{owner.path}.{ann.value}" if owner else ann.value
            first = paths.get(path)
            if first is None:
                paths[path] = (owner, ann)
            else:
                # A name may hold dots: A's child B and a sibling A.B collide.
                problems.append(DuplicateBlockName(
                    f"block name {ann.value!r} is declared twice in the same scope"
                    if first[0] is owner
                    else f"block {ann.value!r} and the block declared at "
                    f"{first[1].file}:{first[1].line} share the qualified name {path!r}",
                    file=ann.file,
                    line=ann.line,
                ))
            stack.append(_OpenBlock(ann.value, path, ann.file, ann.line, ann.description))
        elif ann.tag is Tag.END:
            if not stack:
                problems.append(UnbalancedEnd(
                    "@end without a matching @begin", file=ann.file, line=ann.line
                ))
                continue
            if ann.value and ann.value != stack[-1].name:
                problems.append(MismatchedEndName(
                    f"@end {ann.value!r} does not close block {stack[-1].name!r}",
                    file=ann.file,
                    line=ann.line,
                ))
            open_block = stack.pop()
            closed = _Closed(
                open_block.name,
                open_block.file,
                open_block.description,
                open_block.ports,
                open_block.children,
                (open_block.line, ann.line),
            )
            (stack[-1].children if stack else top_level).append(closed)
        else:
            if not stack:
                problems.append(PortOutsideBlock(
                    f"@{ann.tag.value} {ann.value!r} appears outside any block",
                    file=ann.file,
                    line=ann.line,
                ))
                continue
            direction, role = _PORT_TAGS[ann.tag]
            owner = stack[-1]
            key = (ann.value, direction)
            if key in owner.port_keys:
                problems.append(DuplicatePort(
                    f"block {owner.name!r} already declares {direction.value} "
                    f"port {ann.value!r}",
                    file=ann.file,
                    line=ann.line,
                ))
                continue
            owner.port_keys.add(key)
            owner.ports.append(
                Port(ann.value, direction, role, ann.file, ann.line, ann.description)
            )
    close_open_blocks()
    if problems or not top_level:
        return problems, None

    if len(top_level) == 1 and top_level[0].children:
        root_skeleton = top_level[0]
    else:
        first_file = annotations[0].file
        name = sanitize_name(root_name or Path(first_file).stem)
        root_skeleton = _Closed(name, first_file, None, [], top_level, (0, max_line + 1))
    return problems, _freeze(root_skeleton)


def build_blocks(annotations: Sequence[Annotation], root_name: str | None = None) -> Block:
    """Assemble the nested block tree from a document-ordered stream.

    If the stream yields a single top-level block that has children, that
    block is the root. Otherwise an implicit root workflow wraps the
    top-level blocks; its name is ``root_name`` or the first file's stem.
    A stream with structural problems raises the first in document order;
    a block that opens in one file and ends in another is one of them.
    """
    problems, root = _bracket(annotations, root_name)
    if problems:
        raise problems[0]
    if root is None:
        raise NoBlocks("the annotation stream defines no blocks")
    return root


_Node = TypeVar("_Node")
_Head = TypeVar("_Head")
_DONE = object()


def _fold_tree(
    top: _Node,
    enter: Callable[[_Node, str], tuple[str, _Head, Sequence[_Node]]],
    leave: Callable[[str, _Head, list[Block]], Block],
) -> Block:
    """Build a Block tree depth first with an explicit stack, not recursion.

    ``enter(node, prefix)`` checks a node in pre-order, before any of its
    children, and returns its qualified name, what ``leave`` needs of it and
    its children. ``leave(qualified, head, children)`` makes the node's
    Block once all its children are built, so checks run in the order a
    recursive walk would run them, and no nesting depth is too deep.
    """
    qualified, head, children = enter(top, "")
    stack = [(qualified, head, iter(children), [])]
    while True:
        qualified, head, pending, built = stack[-1]
        child = next(pending, _DONE)
        if child is not _DONE:
            child_q, child_head, grandchildren = enter(child, qualified)
            stack.append((child_q, child_head, iter(grandchildren), []))
            continue
        stack.pop()
        block = leave(qualified, head, built)
        if not stack:
            return block
        stack[-1][3].append(block)


def _freeze(top: _Closed) -> Block:
    """Turn a closed skeleton into a frozen Block, qualifying names on the way."""

    def enter(skeleton: _Closed, prefix: str) -> tuple[str, _Closed, list[_Closed]]:
        qualified = f"{prefix}.{skeleton.name}" if prefix else skeleton.name
        return qualified, skeleton, skeleton.children

    def leave(qualified: str, skeleton: _Closed, children: list[Block]) -> Block:
        return Block(
            skeleton.name,
            qualified,
            skeleton.description,
            tuple(skeleton.ports),
            tuple(children),
            skeleton.span,
            skeleton.file,
        )

    return _fold_tree(top, enter, leave)


# -- channel inference ------------------------------------------------------

class ChannelGroup(NamedTuple):
    """All candidate writers and readers for one data name in one scope.

    Each writer and reader is a ``(block qualified name, port)`` pair; the
    port's direction is the endpoint's.
    """

    scope: str
    data: str
    sources: list[tuple[str, Port]]
    sinks: list[tuple[str, Port]]


def channel_groups(root: Block) -> list[ChannelGroup]:
    """Enumerate per-scope name matches before any single-writer check.

    Within a workflow W and data name d: candidate writers are W's own
    in/param ports named d plus each child's out ports named d; candidate
    readers are the children's in/param ports named d plus W's own out
    ports named d. A name nothing writes forms no group, since it is
    neither a channel nor the subject of a check. Groups come per workflow
    in pre-order, and by name within one.
    """
    groups: list[ChannelGroup] = []
    for workflow in iter_blocks(root):
        if not workflow.is_workflow:
            continue
        scope = workflow.qualified_name
        sources: dict[str, list[tuple[str, Port]]] = {}
        sinks: dict[str, list[tuple[str, Port]]] = {}
        for port in workflow.ports:
            side = sources if port.direction is Direction.IN else sinks
            side.setdefault(port.name, []).append((scope, port))
        for child in workflow.children:
            block = child.qualified_name
            for port in child.ports:
                side = sources if port.direction is Direction.OUT else sinks
                side.setdefault(port.name, []).append((block, port))
        for name in sorted(sources):
            groups.append(ChannelGroup(scope, name, sources[name], sinks.get(name, [])))
    return groups


def infer_channels(root: Block) -> tuple[Channel, ...]:
    """Derive every channel in every scope; single writer per name and scope."""
    return _channels(channel_groups(root))


def _channels(groups: Sequence[ChannelGroup]) -> tuple[Channel, ...]:
    """The channels of the groups that have readers, or AmbiguousWriter.

    A block has at most one port per name and direction, so no block is
    two readers of one group, and sorting the readers by block name is
    sorting them by endpoint.
    """
    channels: list[Channel] = []
    for group in groups:
        if not group.sinks:
            continue
        if len(group.sources) > 1:
            writers = ", ".join(
                f"{block} ({port.file}:{port.line})" for block, port in group.sources
            )
            second = group.sources[1][1]
            raise AmbiguousWriter(
                f"data {group.data!r} has several writers in scope "
                f"{group.scope!r}: {writers}",
                file=second.file,
                line=second.line,
            )
        block, port = group.sources[0]
        role = (
            Role.PARAMETER
            if port.role is Role.PARAMETER
            or any(p.role is Role.PARAMETER for _, p in group.sinks)
            else Role.DATA
        )
        sinks = tuple(
            Endpoint(b, p.direction) for b, p in sorted(group.sinks, key=itemgetter(0))
        )
        channels.append(
            Channel(group.data, group.scope, role, Endpoint(block, port.direction), sinks)
        )
    return tuple(channels)


def build_model(
    annotations: Sequence[Annotation],
    root_name: str | None = None,
    source_files: Sequence[str] | None = None,
) -> WorkflowModel:
    """Build the complete model (block tree plus channels) in one step."""
    root = build_blocks(annotations, root_name=root_name)
    files: tuple[str, ...]
    if source_files is not None:
        files = tuple(source_files)
    else:
        ordered: list[str] = []
        for ann in annotations:
            if ann.file not in ordered:
                ordered.append(ann.file)
        files = tuple(ordered)
    return WorkflowModel(root, infer_channels(root), files)


# -- serialization ----------------------------------------------------------

def _port_dict(port: Port) -> dict:
    return {
        "name": port.name,
        "direction": port.direction.value,
        "role": port.role.value,
        "line": port.line,
        "description": port.description,
        "file": port.file,
    }


def _block_dict(block: Block) -> dict:
    return {
        "name": block.name,
        "qualified_name": block.qualified_name,
        "description": block.description,
        "ports": [_port_dict(p) for p in block.ports],
        "children": [_block_dict(c) for c in block.children],
        "span": list(block.span),
        "file": block.file,
    }


def _channel_dict(ch: Channel) -> dict:
    return {
        "data": ch.data,
        "scope": ch.scope,
        "role": ch.role.value,
        "source": {
            "block": ch.source.block,
            "port_direction": ch.source.direction.value,
        },
        "sinks": [
            {"block": sink.block, "port_direction": sink.direction.value}
            for sink in ch.sinks
        ],
    }


def serialize_model(model: WorkflowModel) -> str:
    payload = {
        "root": _block_dict(model.root),
        "channels": [_channel_dict(ch) for ch in model.channels],
        "source_files": list(model.source_files),
    }
    return json.dumps(payload, indent=2) + "\n"


def _fail(message: str) -> MalformedModel:
    return MalformedModel(message)


_DIRECTIONS = {d.value: d for d in Direction}
_ROLES = {r.value: r for r in Role}


def _parse_port(raw: object, owner: str) -> Port:
    if not isinstance(raw, dict):
        raise _fail(f"port of {owner!r} must be an object")
    name = raw.get("name")
    if not (isinstance(name, str) and IDENTIFIER_RE.match(name)):
        raise _fail(f"bad port name {name!r} on {owner!r}")
    direction = raw.get("direction")
    role = raw.get("role")
    # Only strings are looked up: a list or dict value is unhashable.
    direction = _DIRECTIONS.get(direction) if isinstance(direction, str) else None
    role = _ROLES.get(role) if isinstance(role, str) else None
    if direction is None or role is None:
        raise _fail(f"bad port direction/role on {owner!r}")
    line = raw.get("line")
    if not isinstance(line, int):
        raise _fail(f"port {name!r} on {owner!r} needs an integer line")
    description = raw.get("description")
    if description is not None and not isinstance(description, str):
        raise _fail(f"port {name!r} on {owner!r} has a non-string description")
    file = raw.get("file")
    if not isinstance(file, str):
        file = "<model>"
    if direction is Direction.OUT and role is Role.PARAMETER:
        raise _fail(f"port {name!r} on {owner!r} cannot be an out parameter")
    return Port(name, direction, role, file, line, description)


_BlockHead = tuple[str, "str | None", tuple[Port, ...], tuple[int, int], str]


def _enter_block(raw: object, prefix: str) -> tuple[str, _BlockHead, list]:
    """Check one serialized block, all but its children; see ``_fold_tree``."""
    if not isinstance(raw, dict):
        raise _fail("block must be an object")
    name = raw.get("name")
    if not (isinstance(name, str) and IDENTIFIER_RE.match(name)):
        raise _fail(f"bad block name {name!r}")
    qualified = raw.get("qualified_name")
    expected = f"{prefix}.{name}" if prefix else name
    if qualified != expected:
        raise _fail(f"qualified name {qualified!r} should be {expected!r}")
    description = raw.get("description")
    if description is not None and not isinstance(description, str):
        raise _fail(f"block {name!r} has a non-string description")
    span = raw.get("span")
    if not (
        isinstance(span, list)
        and len(span) == 2
        and all(isinstance(v, int) for v in span)
    ):
        raise _fail(f"block {name!r} needs a [begin, end] span")
    file = raw.get("file")
    if not isinstance(file, str):
        file = "<model>"
    raw_ports = raw.get("ports")
    if not isinstance(raw_ports, list):
        raise _fail(f"block {name!r} needs a port list")
    ports = tuple(_parse_port(p, expected) for p in raw_ports)
    if len({(p.name, p.direction) for p in ports}) != len(ports):
        raise _fail(f"block {expected!r} declares a duplicate port")
    raw_children = raw.get("children")
    if not isinstance(raw_children, list):
        raise _fail(f"block {name!r} needs a child list")
    return expected, (name, description, ports, (span[0], span[1]), file), raw_children


def parse_model(text: str) -> WorkflowModel:
    """Parse a model file's JSON text back into a model.

    The text is decoded once, and ``_model_from_json`` makes every check on
    the payload. The CLI calls that with the payload it decoded to tell the
    two intermediate kinds apart, so a file is never decoded twice.
    """
    return _model_from_json(text, _decode_json(text, MalformedModel))


def _model_from_json(text: str, payload: object) -> WorkflowModel:
    """Check and convert a model file's payload, already decoded from ``text``.

    Channels are a function of the tree: they are re-derived rather than
    trusted, and the file's list must equal them, so every later walk can
    rely on them matching the ports.
    """
    _check_unicode(text, payload, MalformedModel)
    if not isinstance(payload, dict):
        raise _fail("top level must be an object")
    seen: set[str] = set()

    def leave(qualified: str, head: _BlockHead, children: list[Block]) -> Block:
        # A name may hold dots, so a child B of A and a sibling A.B collide.
        for child in children:
            if child.qualified_name in seen:
                raise _fail(
                    f"block {qualified!r} has children with duplicate "
                    f"qualified name {child.qualified_name!r}"
                )
            seen.add(child.qualified_name)
        name, description, ports, span, file = head
        return Block(name, qualified, description, ports, tuple(children), span, file)

    root = _fold_tree(payload.get("root"), _enter_block, leave)
    if not root.children:
        raise _fail("root block must be a workflow (have children)")
    raw_files = payload.get("source_files", [])
    if not (isinstance(raw_files, list) and all(isinstance(f, str) for f in raw_files)):
        raise _fail("'source_files' must be a list of strings")

    raw_channels = payload.get("channels")
    if not isinstance(raw_channels, list):
        raise _fail("'channels' must be a list")
    try:
        channels = infer_channels(root)
    except AmbiguousWriter as exc:
        raise _fail(f"block tree is ambiguous: {exc}") from exc
    if raw_channels != [_channel_dict(ch) for ch in channels]:
        raise _fail("'channels' differs from the channels inferred from 'root'")
    return WorkflowModel(root, channels, tuple(raw_files))
