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
from pathlib import Path
from typing import Iterator, Sequence

from .annotations import IDENTIFIER_RE, Annotation, Tag
from .errors import (
    AmbiguousWriter,
    DuplicateBlockName,
    DuplicatePort,
    MalformedModel,
    MismatchedEndName,
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


def find_block(root: Block, qualified_name: str) -> Block | None:
    for block in iter_blocks(root):
        if block.qualified_name == qualified_name:
            return block
    return None


def parent_map(root: Block) -> dict[str, str | None]:
    """Map each block's qualified name to its parent workflow's, root to None."""
    parents: dict[str, str | None] = {root.qualified_name: None}
    for block in iter_blocks(root):
        for child in block.children:
            parents[child.qualified_name] = block.qualified_name
    return parents


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
    file: str
    line: int
    description: str | None
    ports: list[Port] = field(default_factory=list)
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


def ensure_balanced(annotations: Sequence[Annotation]) -> None:
    """Check that every ``@begin`` in the stream has a matching ``@end``.

    Used per file before streams from several files are concatenated,
    because a block may not start in one file and end in another.
    """
    stack: list[Annotation] = []
    for ann in annotations:
        if ann.tag is Tag.BEGIN:
            stack.append(ann)
        elif ann.tag is Tag.END:
            if not stack:
                raise UnbalancedEnd(
                    "@end without a matching @begin", file=ann.file, line=ann.line
                )
            stack.pop()
    if stack:
        open_ann = stack[-1]
        raise UnclosedBlock(
            f"block {open_ann.value!r} is never closed",
            file=open_ann.file,
            line=open_ann.line,
        )


def build_blocks(annotations: Sequence[Annotation], root_name: str | None = None) -> Block:
    """Assemble the nested block tree from a document-ordered stream.

    If the stream yields a single top-level block that has children, that
    block is the root. Otherwise an implicit root workflow wraps the
    top-level blocks; its name is ``root_name`` or the first file's stem.
    """
    stack: list[_OpenBlock] = []
    top_level: list[_Closed] = []
    max_line = 0
    first_file: str | None = None
    for ann in annotations:
        if first_file is None:
            first_file = ann.file
        max_line = max(max_line, ann.line)
        if ann.tag is Tag.BEGIN:
            stack.append(_OpenBlock(ann.value, ann.file, ann.line, ann.description))
        elif ann.tag is Tag.END:
            if not stack:
                raise UnbalancedEnd(
                    "@end without a matching @begin", file=ann.file, line=ann.line
                )
            if ann.value and ann.value != stack[-1].name:
                raise MismatchedEndName(
                    f"@end {ann.value!r} does not close block {stack[-1].name!r}",
                    file=ann.file,
                    line=ann.line,
                )
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
                raise PortOutsideBlock(
                    f"@{ann.tag.value} {ann.value!r} appears outside any block",
                    file=ann.file,
                    line=ann.line,
                )
            direction, role = _PORT_TAGS[ann.tag]
            owner = stack[-1]
            if any(p.name == ann.value and p.direction == direction for p in owner.ports):
                raise DuplicatePort(
                    f"block {owner.name!r} already declares {direction.value} "
                    f"port {ann.value!r}",
                    file=ann.file,
                    line=ann.line,
                )
            owner.ports.append(
                Port(ann.value, direction, role, ann.file, ann.line, ann.description)
            )
    if stack:
        open_block = stack[-1]
        raise UnclosedBlock(
            f"block {open_block.name!r} is never closed",
            file=open_block.file,
            line=open_block.line,
        )
    if not top_level:
        raise NoBlocks("the annotation stream defines no blocks", file=first_file)

    if len(top_level) == 1 and top_level[0].children:
        root_skeleton = top_level[0]
    else:
        name = sanitize_name(root_name or Path(first_file or "script").stem)
        root_skeleton = _Closed(name, first_file or "<source>", None, [], top_level,
                                (0, max_line + 1))

    seen: dict[str, _Closed] = {}

    def freeze(skeleton: _Closed, prefix: str) -> Block:
        qualified = f"{prefix}.{skeleton.name}" if prefix else skeleton.name
        if qualified in seen:
            raise DuplicateBlockName(
                f"block name {skeleton.name!r} is declared twice in the same scope",
                file=skeleton.file,
                line=skeleton.span[0],
            )
        seen[qualified] = skeleton
        children = tuple(freeze(child, qualified) for child in skeleton.children)
        return Block(
            skeleton.name,
            qualified,
            skeleton.description,
            tuple(skeleton.ports),
            children,
            skeleton.span,
            skeleton.file,
        )

    return freeze(root_skeleton, "")


# -- channel inference ------------------------------------------------------

@dataclass(frozen=True)
class ChannelGroup:
    """All candidate writers and readers for one data name in one scope."""

    scope: str
    data: str
    sources: tuple[tuple[Endpoint, Port], ...]
    sinks: tuple[tuple[Endpoint, Port], ...]


def channel_groups(root: Block) -> list[ChannelGroup]:
    """Enumerate per-scope name matches before any single-writer check.

    Within a workflow W and data name d: candidate writers are W's own
    in/param ports named d plus each child's out ports named d; candidate
    readers are the children's in/param ports named d plus W's own out
    ports named d.
    """
    groups: list[ChannelGroup] = []
    for workflow in iter_blocks(root):
        if not workflow.is_workflow:
            continue
        sources: dict[str, list[tuple[Endpoint, Port]]] = {}
        sinks: dict[str, list[tuple[Endpoint, Port]]] = {}
        for port in workflow.ports:
            entry = (Endpoint(workflow.qualified_name, port.direction), port)
            if port.direction is Direction.IN:
                sources.setdefault(port.name, []).append(entry)
            else:
                sinks.setdefault(port.name, []).append(entry)
        for child in workflow.children:
            for port in child.ports:
                entry = (Endpoint(child.qualified_name, port.direction), port)
                if port.direction is Direction.OUT:
                    sources.setdefault(port.name, []).append(entry)
                else:
                    sinks.setdefault(port.name, []).append(entry)
        for name in sorted(set(sources) | set(sinks)):
            groups.append(
                ChannelGroup(
                    workflow.qualified_name,
                    name,
                    tuple(sources.get(name, ())),
                    tuple(sinks.get(name, ())),
                )
            )
    return groups


def infer_channels(root: Block) -> tuple[Channel, ...]:
    """Derive every channel in every scope; single writer per name and scope."""
    channels: list[Channel] = []
    for group in channel_groups(root):
        if not group.sources or not group.sinks:
            continue
        if len(group.sources) > 1:
            writers = ", ".join(
                f"{endpoint.block} ({port.file}:{port.line})"
                for endpoint, port in group.sources
            )
            second = group.sources[1][1]
            raise AmbiguousWriter(
                f"data {group.data!r} has several writers in scope "
                f"{group.scope!r}: {writers}",
                file=second.file,
                line=second.line,
            )
        source_endpoint, source_port = group.sources[0]
        ports = [source_port] + [port for _, port in group.sinks]
        role = (
            Role.PARAMETER
            if any(port.role is Role.PARAMETER for port in ports)
            else Role.DATA
        )
        sink_endpoints = tuple(
            endpoint
            for endpoint, _ in sorted(
                group.sinks, key=lambda pair: (pair[0].block, pair[0].direction.value)
            )
        )
        channels.append(
            Channel(group.data, group.scope, role, source_endpoint, sink_endpoints)
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


def serialize_model(model: WorkflowModel) -> str:
    payload = {
        "root": _block_dict(model.root),
        "channels": [
            {
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
            for ch in model.channels
        ],
        "source_files": list(model.source_files),
    }
    return json.dumps(payload, indent=2) + "\n"


def _fail(message: str) -> MalformedModel:
    return MalformedModel(message)


def _parse_port(raw: object, owner: str) -> Port:
    if not isinstance(raw, dict):
        raise _fail(f"port of {owner!r} must be an object")
    name = raw.get("name")
    if not (isinstance(name, str) and IDENTIFIER_RE.match(name)):
        raise _fail(f"bad port name {name!r} on {owner!r}")
    try:
        direction = Direction(raw.get("direction"))
        role = Role(raw.get("role"))
    except ValueError as exc:
        raise _fail(f"bad port direction/role on {owner!r}") from exc
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


def _parse_block(raw: object, expected_prefix: str) -> Block:
    if not isinstance(raw, dict):
        raise _fail("block must be an object")
    name = raw.get("name")
    if not (isinstance(name, str) and IDENTIFIER_RE.match(name)):
        raise _fail(f"bad block name {name!r}")
    qualified = raw.get("qualified_name")
    expected = f"{expected_prefix}.{name}" if expected_prefix else name
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
    keys = [(p.name, p.direction) for p in ports]
    if len(set(keys)) != len(keys):
        raise _fail(f"block {expected!r} declares a duplicate port")
    raw_children = raw.get("children")
    if not isinstance(raw_children, list):
        raise _fail(f"block {name!r} needs a child list")
    children = tuple(_parse_block(c, expected) for c in raw_children)
    if len({c.name for c in children}) != len(children):
        raise _fail(f"block {expected!r} has children with duplicate names")
    return Block(name, expected, description, ports, children, (span[0], span[1]), file)


def parse_model(text: str) -> WorkflowModel:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedModel(f"not valid JSON: {exc.msg}", line=exc.lineno) from exc
    if not isinstance(payload, dict):
        raise _fail("top level must be an object")
    root = _parse_block(payload.get("root"), "")
    if not root.children:
        raise _fail("root block must be a workflow (have children)")
    raw_files = payload.get("source_files", [])
    if not (isinstance(raw_files, list) and all(isinstance(f, str) for f in raw_files)):
        raise _fail("'source_files' must be a list of strings")

    blocks = {b.qualified_name: b for b in iter_blocks(root)}
    parents = parent_map(root)
    declared = {
        (q, port.name, port.direction) for q, b in blocks.items() for port in b.ports
    }
    raw_channels = payload.get("channels")
    if not isinstance(raw_channels, list):
        raise _fail("'channels' must be a list")
    channels: list[Channel] = []
    for raw in raw_channels:
        if not isinstance(raw, dict):
            raise _fail("channel must be an object")
        data = raw.get("data")
        scope = raw.get("scope")
        if not (isinstance(data, str) and IDENTIFIER_RE.match(data)):
            raise _fail(f"bad channel data name {data!r}")
        scope_block = blocks.get(scope) if isinstance(scope, str) else None
        if scope_block is None or not scope_block.is_workflow:
            raise _fail(f"channel {data!r} names unknown scope {scope!r}")
        try:
            role = Role(raw.get("role"))
        except ValueError as exc:
            raise _fail(f"channel {data!r} has a bad role") from exc

        def endpoint(raw_ep: object, writes: bool) -> Endpoint:
            if not isinstance(raw_ep, dict):
                raise _fail(f"channel {data!r} has a malformed endpoint")
            block_q = raw_ep.get("block")
            try:
                direction = Direction(raw_ep.get("port_direction"))
            except ValueError as exc:
                raise _fail(f"channel {data!r} endpoint has a bad direction") from exc
            if block_q not in blocks:
                raise _fail(f"channel {data!r} endpoint names unknown block {block_q!r}")
            if block_q != scope and parents.get(block_q) != scope:
                raise _fail(
                    f"channel {data!r} endpoint {block_q!r} is not in scope {scope!r}"
                )
            if (block_q, data, direction) not in declared:
                raise _fail(
                    f"channel {data!r} endpoint {block_q!r} has no "
                    f"{direction.value} port {data!r}"
                )
            # A scope's own in port and its children's out ports write to the
            # scope; the children's in ports and the scope's out port read.
            if writes != ((block_q == scope) == (direction is Direction.IN)):
                side = "source" if writes else "sink"
                raise _fail(f"channel {data!r} endpoint {block_q!r} cannot be a {side}")
            return Endpoint(block_q, direction)

        source = endpoint(raw.get("source"), writes=True)
        raw_sinks = raw.get("sinks")
        if not (isinstance(raw_sinks, list) and raw_sinks):
            raise _fail(f"channel {data!r} needs a non-empty sink list")
        sinks = tuple(endpoint(s, writes=False) for s in raw_sinks)
        channels.append(Channel(data, scope, role, source, sinks))
    return WorkflowModel(root, tuple(channels), tuple(raw_files))
