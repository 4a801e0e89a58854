"""Hierarchical workflow model recovered from an annotation stream.

Blocks nest via ``@begin``/``@end`` pairs; ``@in``/``@out``/``@param``
declare ports on the innermost open block. Channels connect ports that
share a data name within one workflow scope: the writer is either the
workflow's own input or exactly one child's output, and every matching
reader becomes a sink. Nested workflows re-declare ports at each level,
so channel inference never looks across more than one boundary at a time.
"""

from __future__ import annotations

import re
from enum import Enum
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Sequence, TypeVar

from ._record import record
from .annotations import (
    _FIELDS,
    IDENTIFIER_RE,
    Annotation,
    Tag,
    _Tagged,
    _check_unicode,
    _decode_json,
    _json_int,
    _json_items,
    _json_list,
    _json_opt,
    _json_str,
)
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

    __hash__ = object.__hash__  # identity, as for annotations.Tag


class Role(Enum):
    DATA = "data"
    PARAMETER = "parameter"

    __hash__ = object.__hash__  # identity, as for annotations.Tag


@record
class Port:
    """A named input or output declared on a block."""

    name: str
    direction: Direction
    role: Role
    file: str
    line: int
    description: str | None = None


@record
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


@record
class Endpoint:
    """One end of a channel: a block plus the direction of its port there."""

    block: str  # qualified name
    direction: Direction


@record
class Channel:
    """A single-writer dataflow connection within one workflow scope."""

    data: str
    scope: str  # qualified name of the enclosing workflow
    role: Role
    source: Endpoint
    sinks: tuple[Endpoint, ...]


@record
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
        self._links: dict[tuple[str, str, bool], list | None] = {}
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
        came from, and the memo is keyed by that. A channel none of whose
        ends crosses a boundary resolves to those ends, whatever the walk,
        and is neither walked nor memoised.
        """
        links = self._crossings(ch, writers)
        if links is None:
            return (ch.source,) if writers else ch.sinks
        data, memo = ch.data, self._ends
        top = (ch.scope, None, data, stop, writers)
        stack = [] if top in memo else [[top, iter(links), []]]
        while stack:
            key, pending, found = stack[-1]
            scope, came = key[:2]
            for end, far in pending:
                if far is None or far.scope == came or end.block == stop:
                    found.append(end)
                elif (links := self._crossings(far, writers)) is None:
                    found.extend((far.source,) if writers else far.sinks)
                elif (step := (far.scope, scope, data, stop, writers)) in memo:
                    found.extend(memo[step])
                else:
                    stack.append([step, iter(links), []])
                    break
            else:
                stack.pop()
                memo[key] = tuple(found)
                if stack:
                    stack[-1][2].extend(memo[key])
        return memo[top]

    def _crossings(self, ch: Channel, writers: bool) -> list | None:
        """The source (or the sinks) of ``ch``, each with the channel across
        it, or None when no end crosses a boundary; memoised."""
        key = (ch.scope, ch.data, writers)
        try:
            return self._links[key]
        except KeyError:
            pass
        links = [(e, self.across(ch, e)) for e in ((ch.source,) if writers else ch.sinks)]
        if all(far is None for _, far in links):
            links = None
        self._links[key] = links
        return links


def sanitize_name(raw: str) -> str:
    """Coerce an arbitrary string (e.g. a file stem) into a block name."""
    cleaned = re.sub(r"[^A-Za-z0-9_]", "_", raw)
    if not cleaned:
        return "script"
    if not re.match(r"[A-Za-z_]", cleaned[0]):
        cleaned = "_" + cleaned
    return cleaned


# -- building the block tree ------------------------------------------------

class _Skeleton:
    """A block while its stream is bracketed: open until ``end`` is set."""

    __slots__ = (
        "name", "path", "file", "line", "description", "ports", "port_keys", "children", "end"
    )

    def __init__(
        self,
        name: str,
        path: str,  # dotted names from the top level down
        file: str,
        line: int,
        description: str | None,
        children: list[_Skeleton] | None = None,
    ) -> None:
        self.name = name
        self.path = path
        self.file = file
        self.line = line
        self.description = description
        self.ports: list[Port] = []
        self.port_keys: set[tuple[str, Direction]] = set()
        self.children: list[_Skeleton] = [] if children is None else children
        self.end = 0


_PORT_TAGS = {
    Tag.IN: (Direction.IN, Role.DATA),
    Tag.OUT: (Direction.OUT, Role.DATA),
    Tag.PARAM: (Direction.IN, Role.PARAMETER),
}


def _bracket(
    annotations: Sequence[_Tagged], root_name: str | None = None
) -> tuple[list[ModelError], Block | None]:
    """Match a document-ordered stream's ``@begin``/``@end`` pairs into blocks.

    The stream is the tag walk's ``(tag, value, description, file, line)``
    tuples; ``_FIELDS`` reads them off ``Annotation`` records.

    The one begin/end stack of the toolchain. It returns every structural
    problem, in document order, and the block tree, which is None when there
    is a problem or no block at all. Each problem is recovered from: an
    unmatched ``@end`` or a port outside any block is skipped, a wrongly
    named ``@end`` still closes the open block, and a duplicate port or
    block name is passed over. Blocks never span files: those still open
    when the file changes or the stream ends are reported innermost first,
    and closed. Two blocks may not share a dotted path from the top level,
    which is their qualified name below the root; the message names it below
    the root this walk builds, which under an implicit root is ``root_name``
    or the stream's first file's stem.
    """
    problems: list[ModelError] = []
    stack: list[_Skeleton] = []
    top_level: list[_Skeleton] = []
    # First declarations, as (owner, file, line).
    paths: dict[str, tuple[_Skeleton | None, str, int]] = {}
    # Dotted-name collisions, as (problem index, path, first declaration's
    # file and line, name, file, line): their qualified name waits for the root.
    collisions: list[tuple[int, str, str, int, str, str, int]] = []
    max_line = 0

    def close_open_blocks() -> None:
        while stack:
            open_block = stack.pop()
            problems.append(UnclosedBlock(
                f"block {open_block.name!r} is never closed",
                file=open_block.file,
                line=open_block.line,
            ))

    for tag, value, description, file, line in annotations:
        if stack and file != stack[-1].file:
            close_open_blocks()
        if line > max_line:
            max_line = line
        if tag is Tag.BEGIN:
            owner = stack[-1] if stack else None
            path = f"{owner.path}.{value}" if owner else value
            first = paths.get(path)
            if first is None:
                paths[path] = (owner, file, line)
            elif first[0] is owner:
                problems.append(DuplicateBlockName(
                    f"block name {value!r} is declared twice in the same scope",
                    file=file,
                    line=line,
                ))
            else:
                # A name may hold dots: A's child B and a sibling A.B collide.
                collisions.append((len(problems), path, *first[1:], value, file, line))
                problems.append(DuplicateBlockName("", file=file, line=line))
            stack.append(_Skeleton(value, path, file, line, description))
        elif tag is Tag.END:
            if not stack:
                problems.append(UnbalancedEnd(
                    "@end without a matching @begin", file=file, line=line
                ))
                continue
            if value and value != stack[-1].name:
                problems.append(MismatchedEndName(
                    f"@end {value!r} does not close block {stack[-1].name!r}",
                    file=file,
                    line=line,
                ))
            closed = stack.pop()
            closed.end = line
            (stack[-1].children if stack else top_level).append(closed)
        else:
            if not stack:
                problems.append(PortOutsideBlock(
                    f"@{tag.value} {value!r} appears outside any block",
                    file=file,
                    line=line,
                ))
                continue
            direction, role = _PORT_TAGS[tag]
            owner = stack[-1]
            key = (value, direction)
            if key in owner.port_keys:
                problems.append(DuplicatePort(
                    f"block {owner.name!r} already declares {direction.value} "
                    f"port {value!r}",
                    file=file,
                    line=line,
                ))
                continue
            owner.port_keys.add(key)
            owner.ports.append(Port(value, direction, role, file, line, description))
    close_open_blocks()
    first_file = annotations[0][3] if annotations else ""
    if len(top_level) == 1 and top_level[0].children:
        root_skeleton, prefix = top_level[0], ""
    else:
        name = sanitize_name(root_name or Path(first_file).stem)
        root_skeleton = _Skeleton(name, "", first_file, 0, None, top_level)
        root_skeleton.end = max_line + 1
        prefix = f"{name}."
    for index, path, at_file, at_line, value, file, line in collisions:
        problems[index] = DuplicateBlockName(
            f"block {value!r} and the block declared at {at_file}:"
            f"{at_line} share the qualified name {prefix + path!r}",
            file=file,
            line=line,
        )
    if problems or not top_level:
        return problems, None
    return problems, _freeze(root_skeleton)


def build_blocks(annotations: Sequence[Annotation], root_name: str | None = None) -> Block:
    """Assemble the nested block tree from a document-ordered stream.

    If the stream yields a single top-level block that has children, that
    block is the root. Otherwise an implicit root workflow wraps the
    top-level blocks; its name is ``root_name`` or the first file's stem.
    A stream with structural problems raises the first in document order;
    a block that opens in one file and ends in another is one of them.
    """
    return _blocks(list(map(_FIELDS, annotations)), root_name)


def _blocks(annotations: Sequence[_Tagged], root_name: str | None) -> Block:
    """``build_blocks`` of a stream of tag-walk tuples."""
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


def _freeze(top: _Skeleton) -> Block:
    """Turn a closed skeleton into a frozen Block, qualifying names on the way."""

    def enter(skeleton: _Skeleton, prefix: str) -> tuple[str, _Skeleton, list[_Skeleton]]:
        qualified = f"{prefix}.{skeleton.name}" if prefix else skeleton.name
        return qualified, skeleton, skeleton.children

    def leave(qualified: str, skeleton: _Skeleton, children: list[Block]) -> Block:
        return Block(
            skeleton.name,
            qualified,
            skeleton.description,
            tuple(skeleton.ports),
            tuple(children),
            (skeleton.line, skeleton.end),
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
        readers = group.sinks
        if len(readers) > 1:
            readers = sorted(readers, key=itemgetter(0))
        sinks = tuple([Endpoint(b, p.direction) for b, p in readers])
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
    stream = list(map(_FIELDS, annotations))
    if source_files is None:
        source_files = list(dict.fromkeys(item[3] for item in stream))
    return _build_model(stream, root_name, source_files)


def _build_model(
    annotations: Sequence[_Tagged], root_name: str | None, source_files: Sequence[str]
) -> WorkflowModel:
    """``build_model`` of a stream of tag-walk tuples, as the CLI reads a script."""
    root = _blocks(annotations, root_name)
    return WorkflowModel(root, infer_channels(root), tuple(source_files))


# -- serialization ----------------------------------------------------------

def serialize_model(model: WorkflowModel) -> str:
    """Render a model as its JSON model file."""
    return "".join(_model_chunks(model))


def _model_chunks(model: WorkflowModel) -> Iterator[str]:
    """The JSON text of a model file, one chunk per record: a block's head
    and tail (one chunk for a block without children) and a channel. See
    ``annotations._document_chunks``."""
    yield '{\n  "root": '
    yield from _block_chunks(model.root)
    yield ',\n  "channels": '
    yield from _json_items(map(_channel_json, model.channels), "  ")
    files = _json_list([_json_str(f) for f in model.source_files], "  ")
    yield f',\n  "source_files": {files}\n}}\n'


def _block_chunks(root: Block) -> Iterator[str]:
    """The JSON of a block tree, walked depth first with an explicit stack."""
    yield _block_head(root, "    ")
    stack = [(root, "    ", enumerate(root.children))]
    while stack:
        block, key, pending = stack[-1]
        index, child = next(pending, (0, None))
        if child is None:
            stack.pop()
            yield _block_tail(block, key)
            continue
        lead = f"{',' if index else ''}\n{key}  "
        inner = key + "    "
        if child.children:
            yield lead + _block_head(child, inner)
            stack.append((child, inner, enumerate(child.children)))
        else:
            yield lead + _block_head(child, inner) + _block_tail(child, inner)


def _block_head(block: Block, key: str) -> str:
    """A block's JSON up to its open child list; ``key`` indents its keys."""
    ports = _json_list([_port_json(p, key + "  ") for p in block.ports], key)
    return (
        f'{{\n{key}"name": {_json_str(block.name)},\n'
        f'{key}"qualified_name": {_json_str(block.qualified_name)},\n'
        f'{key}"description": {_json_opt(block.description)},\n'
        f'{key}"ports": {ports},\n{key}"children": ['
    )


def _block_tail(block: Block, key: str) -> str:
    """A block's JSON from the close of its child list on."""
    close = f"\n{key}]" if block.children else "]"
    span = _json_list([_json_int(v) for v in block.span], key)
    return (
        f'{close},\n{key}"span": {span},\n'
        f'{key}"file": {_json_str(block.file)}\n{key[:-2]}}}'
    )


def _port_json(port: Port, brace: str) -> str:
    """A port's JSON object; ``brace`` indents its closing brace."""
    return (
        f'{{\n{brace}  "name": {_json_str(port.name)},\n'
        f'{brace}  "direction": "{port.direction._value_}",\n'
        f'{brace}  "role": "{port.role._value_}",\n'
        f'{brace}  "line": {_json_int(port.line)},\n'
        f'{brace}  "description": {_json_opt(port.description)},\n'
        f'{brace}  "file": {_json_str(port.file)}\n{brace}}}'
    )


def _endpoint_json(end: Endpoint, brace: str) -> str:
    return (
        f'{{\n{brace}  "block": {_json_str(end.block)},\n'
        f'{brace}  "port_direction": "{end.direction._value_}"\n{brace}}}'
    )


def _channel_json(ch: Channel) -> str:
    sinks = _json_list([_endpoint_json(e, "        ") for e in ch.sinks], "      ")
    return (
        f'{{\n      "data": {_json_str(ch.data)},\n'
        f'      "scope": {_json_str(ch.scope)},\n'
        f'      "role": "{ch.role._value_}",\n'
        f'      "source": {_endpoint_json(ch.source, "      ")},\n'
        f'      "sinks": {sinks}\n    }}'
    )


def _fail(message: str) -> MalformedModel:
    return MalformedModel(message)


_DIRECTIONS = {d.value: d for d in Direction}
_ROLES = {r.value: r for r in Role}


# A decoded JSON value is of exactly one of the JSON types, so its class is
# tested with ``is``: that is cheaper than ``isinstance``, and it tells a bool,
# which ``isinstance`` takes for an int, from a line number.
def _parse_port(raw: object, owner: str) -> Port:
    if raw.__class__ is not dict:
        raise _fail(f"port of {owner!r} must be an object")
    name = raw.get("name")
    if not (name.__class__ is str and IDENTIFIER_RE.match(name)):
        raise _fail(f"bad port name {name!r} on {owner!r}")
    direction = raw.get("direction")
    role = raw.get("role")
    # Only strings are looked up: a list or dict value is unhashable.
    direction = _DIRECTIONS.get(direction) if direction.__class__ is str else None
    role = _ROLES.get(role) if role.__class__ is str else None
    if direction is None or role is None:
        raise _fail(f"bad port direction/role on {owner!r}")
    line = raw.get("line")
    if line.__class__ is not int:
        raise _fail(f"port {name!r} on {owner!r} needs an integer line")
    description = raw.get("description")
    if description is not None and description.__class__ is not str:
        raise _fail(f"port {name!r} on {owner!r} has a non-string description")
    file = raw.get("file")
    if file.__class__ is not str:
        file = "<model>"
    if direction is Direction.OUT and role is Role.PARAMETER:
        raise _fail(f"port {name!r} on {owner!r} cannot be an out parameter")
    return Port(name, direction, role, file, line, description)


_BlockHead = tuple[str, "str | None", tuple[Port, ...], tuple[int, int], str]


def _enter_block(raw: object, prefix: str) -> tuple[str, _BlockHead, list]:
    """Check one serialized block, all but its children; see ``_fold_tree``."""
    if raw.__class__ is not dict:
        raise _fail("block must be an object")
    name = raw.get("name")
    if not (name.__class__ is str and IDENTIFIER_RE.match(name)):
        raise _fail(f"bad block name {name!r}")
    qualified = raw.get("qualified_name")
    expected = f"{prefix}.{name}" if prefix else name
    if qualified != expected:
        raise _fail(f"qualified name {qualified!r} should be {expected!r}")
    description = raw.get("description")
    if description is not None and description.__class__ is not str:
        raise _fail(f"block {name!r} has a non-string description")
    span = raw.get("span")
    if not (
        span.__class__ is list
        and len(span) == 2
        and span[0].__class__ is int
        and span[1].__class__ is int
    ):
        raise _fail(f"block {name!r} needs a [begin, end] span")
    file = raw.get("file")
    if file.__class__ is not str:
        file = "<model>"
    raw_ports = raw.get("ports")
    if raw_ports.__class__ is not list:
        raise _fail(f"block {name!r} needs a port list")
    ports = tuple([_parse_port(p, expected) for p in raw_ports])
    if len(ports) > 1 and len({(p.name, p.direction) for p in ports}) != len(ports):
        raise _fail(f"block {expected!r} declares a duplicate port")
    raw_children = raw.get("children")
    if raw_children.__class__ is not list:
        raise _fail(f"block {name!r} needs a child list")
    return expected, (name, description, ports, tuple(span), file), raw_children


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
    # The file's records must be exactly those a model file is written with.
    if len(raw_channels) != len(channels) or not all(
        map(_same_channel, raw_channels, channels)
    ):
        raise _fail("'channels' differs from the channels inferred from 'root'")
    return WorkflowModel(root, channels, tuple(raw_files))


def _same_channel(raw: object, ch: Channel) -> bool:
    """Whether ``raw`` equals the record a model file is written with for ``ch``."""
    if not (
        raw.__class__ is dict
        and len(raw) == 5
        and raw.get("data") == ch.data
        and raw.get("scope") == ch.scope
        and raw.get("role") == ch.role._value_
        and _same_end(raw.get("source"), ch.source)
    ):
        return False
    sinks = raw.get("sinks")
    return (
        sinks.__class__ is list
        and len(sinks) == len(ch.sinks)
        and all(map(_same_end, sinks, ch.sinks))
    )


def _same_end(raw: object, end: Endpoint) -> bool:
    return (
        raw.__class__ is dict
        and len(raw) == 2
        and raw.get("block") == end.block
        and raw.get("port_direction") == end.direction._value_
    )
