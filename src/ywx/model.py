"""Hierarchical workflow model recovered from an annotation stream.

Blocks nest via ``@begin``/``@end`` pairs; ``@in``/``@out``/``@param``
declare ports on the innermost open block. Channels connect ports that
share a data name within one workflow scope: the writer is either the
workflow's own input or exactly one child's output, and every matching
reader becomes a sink. Nested workflows re-declare ports at each level,
so channel inference never looks across more than one boundary at a time.

Every load makes each Block, frozen, at its ``@end`` in one pass over the
tags, listing the blocks in pre-order (``_bracket``). Channels are derived
once, from that list, after the last ``@end`` (``_joined``). A model file is
read as the tag stream its tree describes, so the same passes build it.
Records are frozen, so equal ``Endpoint``s of one model may be one object.
"""

from __future__ import annotations

import re
from enum import Enum
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Sequence

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
    YwxError,
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
    It keeps no set of root names: a query resolves a data name against
    the dependency graph's nodes, and a root port by its ``ports`` key.

    It is also the one boundary resolver. ``ends`` follows a channel through
    workflow boundaries, up to a stopping scope, to the ends that really
    write or read its data, and ``outer`` gives the same-named channel one
    scope out. Resolved ends are memoised per index, and ``across`` steps
    over each channel end at most once.
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

    def is_bound(self, block_q: str, port: Port) -> bool:
        """Whether a channel feeds this In/Param port of the block."""
        return (self.parents[block_q], port.name) in self.chan

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

    def ends(self, ch: Channel, stop: str, writers: bool) -> tuple[Endpoint, ...]:
        """The ends that really write (the one writer) or read ``ch``'s data.

        The source (or each sink) is followed through the boundaries it
        crosses to a program's port, or to a boundary port the walk does not
        pass: a port of ``stop``, one with nothing connected beyond it, or
        one leading straight back to the channel the walk came from. For one
        data name a boundary joins a scope only to its parent, so a walk that
        never turns straight back meets no channel twice and needs no
        recursion. What a channel resolves to depends on the walk only
        through the scope it came from, and the memo is keyed by that.
        """
        data, memo = ch.data, self._ends
        top = (ch.scope, None, data, stop, writers)
        stack = [] if top in memo else [[top, iter(self._crossings(ch, writers)), []]]
        while stack:
            key, pending, found = stack[-1]
            scope, came = key[:2]
            for end, far in pending:
                if far is None or far.scope == came or end.block == stop:
                    found.append(end)
                elif (step := (far.scope, scope, data, stop, writers)) in memo:
                    found.extend(memo[step])
                else:
                    stack.append([step, iter(self._crossings(far, writers)), []])
                    break
            else:
                stack.pop()
                memo[key] = tuple(found)
                if stack:
                    stack[-1][2].extend(memo[key])
        return memo[top]

    def _crossings(self, ch: Channel, writers: bool) -> list:
        """The source (or the sinks) of ``ch``, each with the channel across
        it or None; memoised."""
        key = (ch.scope, ch.data, writers)
        links = self._links.get(key)
        if links is None:
            ends = (ch.source,) if writers else ch.sinks
            links = self._links[key] = [(e, self.across(ch, e)) for e in ends]
        return links


# Compiled at import, not through the ``re`` cache by a process's first load.
_NON_NAME = re.compile(r"[^A-Za-z0-9_]")


def sanitize_name(raw: str) -> str:
    """Coerce an arbitrary string (e.g. a file stem) into a block name."""
    cleaned = _NON_NAME.sub("_", raw)
    if not cleaned:
        return "script"
    if cleaned[0].isdigit():  # only ASCII letters, digits and "_" are left
        cleaned = "_" + cleaned
    return cleaned


# -- building the model -----------------------------------------------------

class _Skeleton:
    """A block between its ``@begin`` and its ``@end``; see ``_bracket``."""

    __slots__ = ("name", "qualified", "file", "line", "description", "slot", "ports",
                 "port_keys", "children")

    def __init__(
        self, name: str, qualified: str, file: str, line: int, description: str | None, slot: int
    ) -> None:
        self.name, self.qualified, self.file, self.line = name, qualified, file, line
        self.description, self.slot = description, slot
        self.ports: list[Port] = []
        self.port_keys: set[tuple[str, Direction]] = set()
        self.children: list[Block] = []


_PORT_TAGS = {
    Tag.IN: (Direction.IN, Role.DATA),
    Tag.OUT: (Direction.OUT, Role.DATA),
    Tag.PARAM: (Direction.IN, Role.PARAMETER),
}

# A port as a writer or reader of a data name in a scope: its block's
# qualified name, its block's endpoint on its side, and the port.
_PortAt = tuple[str, Endpoint, Port]
# A data name ``validate`` checks: (scope, data, writers, readers).
_Group = tuple[str, str, list[_PortAt], list[_PortAt]]


def _explicit_root(annotations: Sequence[_Tagged]) -> bool:
    """Whether the stream's one top-level block has children, and so is the
    root: exactly one ``@begin`` at depth 0 and at least one below it. The
    depth count is right for a stream without structural problems, the only
    kind that builds a tree; it reports nothing and matches no names."""
    begin_tag, end_tag = Tag.BEGIN, Tag.END  # read once: see _scope_channels
    depth = 0
    nested = top = False
    for tag, _, _, _, _ in annotations:
        if tag is begin_tag:
            if depth:
                nested = True
            elif top:
                return False
            top = True
            depth += 1
        elif tag is end_tag and depth:
            depth -= 1
    return nested


def _bracket(
    annotations: Sequence[_Tagged],
    root_name: str | None = None,
    *,
    files: Sequence[str] = (),
) -> tuple[list[ModelError], Block | None, list[Block]]:
    """Match a document-ordered stream's ``@begin``/``@end`` pairs into blocks.

    The stream is the tag walk's ``(tag, value, description, file, line)``
    tuples; ``_FIELDS`` reads them off ``Annotation`` records. This is the
    one begin/end stack of the toolchain, and the one pass from tags to
    tree. The root is decided first (``_explicit_root``), so a qualified
    name is final at its ``@begin``. Each Block is made at its ``@end`` and
    put in the slot its ``@begin`` reserved, so the slots list the blocks in
    pre-order, the root first, with no walk over the tree. No channel is
    derived here: ``_joined`` derives them from the slots.

    It returns every structural problem in document order, the block tree
    (None when there is a problem or no block at all) and the slots. Each
    problem is recovered from: an unmatched ``@end`` or a port outside any
    block is skipped, a wrongly named ``@end`` still closes the open block,
    and a duplicate port or block name is passed over. Blocks never span
    files: those still open when the file changes or the stream ends are
    reported innermost first, and closed. Two blocks may not share a dotted
    path from the top level; the message names it below the root the whole
    stream gives: its one top-level block if it alone was closed and has
    children, else the implicit one. Only this names that root: ``root_name``,
    else the first of ``files``' stem (the inputs, in order), else the first
    annotated file's.
    """
    begin_tag, end_tag = Tag.BEGIN, Tag.END  # read once: see _scope_channels
    problems: list[ModelError] = []
    stack: list[_Skeleton] = []
    top_level: list[Block] = []
    first_file = annotations[0][3] if annotations else ""
    implicit = sanitize_name(root_name or Path(files[0] if files else first_file).stem)
    explicit = _explicit_root(annotations)
    prefix = "" if explicit else f"{implicit}."
    slots: list[Block | None] = [] if explicit else [None]
    # First declarations by qualified name, as (owner, file, line).
    first: dict[str, tuple[_Skeleton | None, str, int]] = {}
    # Dotted-name collisions, as (problem index, qualified name, first
    # declaration's file and line, name, file, line), named once the stream ends.
    collisions: list[tuple[int, str, str, int, str, str, int]] = []
    max_line = 0

    def close_open_blocks() -> None:
        while stack:
            open_block = stack.pop()
            problems.append(UnclosedBlock(
                f"block {open_block.name!r} is never closed",
                file=open_block.file, line=open_block.line,
            ))

    for tag, value, description, file, line in annotations:
        if stack and file != stack[-1].file:
            close_open_blocks()
        if line > max_line:
            max_line = line
        if tag is begin_tag:
            owner = stack[-1] if stack else None
            qualified = f"{owner.qualified}.{value}" if owner else prefix + value
            declared = first.get(qualified)
            if declared is None:
                first[qualified] = (owner, file, line)
            elif declared[0] is owner:
                problems.append(DuplicateBlockName(
                    f"block name {value!r} is declared twice in the same scope",
                    file=file, line=line,
                ))
            else:
                # A name may hold dots: A's child B and a sibling A.B collide.
                collisions.append((len(problems), qualified, *declared[1:], value, file, line))
                problems.append(DuplicateBlockName("", file=file, line=line))
            stack.append(_Skeleton(value, qualified, file, line, description, len(slots)))
            slots.append(None)
        elif tag is end_tag:
            if not stack:
                problems.append(UnbalancedEnd(
                    "@end without a matching @begin", file=file, line=line
                ))
                continue
            if value and value != stack[-1].name:
                problems.append(MismatchedEndName(
                    f"@end {value!r} does not close block {stack[-1].name!r}",
                    file=file, line=line,
                ))
            closed = stack.pop()
            block = Block(
                closed.name, closed.qualified, closed.description, tuple(closed.ports),
                tuple(closed.children), (closed.line, line), closed.file,
            )
            slots[closed.slot] = block
            (stack[-1].children if stack else top_level).append(block)
        else:
            if not stack:
                problems.append(PortOutsideBlock(
                    f"@{tag.value} {value!r} appears outside any block",
                    file=file, line=line,
                ))
                continue
            direction, role = _PORT_TAGS[tag]
            owner = stack[-1]
            key = (value, direction)
            if key in owner.port_keys:
                problems.append(DuplicatePort(
                    f"block {owner.name!r} already declares {direction.value} port {value!r}",
                    file=file, line=line,
                ))
                continue
            owner.port_keys.add(key)
            owner.ports.append(Port(value, direction, role, file, line, description))
    close_open_blocks()
    if collisions:
        named = "" if len(top_level) == 1 and top_level[0].children else f"{implicit}."
        for index, qualified, at_file, at_line, value, file, line in collisions:
            problems[index] = DuplicateBlockName(
                f"block {value!r} and the block declared at {at_file}:{at_line} "
                f"share the qualified name {named + qualified[len(prefix):]!r}",
                file=file, line=line,
            )
    if problems or not top_level:
        return problems, None, []
    if explicit:
        return problems, top_level[0], slots
    slots[0] = Block(implicit, implicit, None, (), tuple(top_level), (0, max_line + 1), first_file)
    return problems, slots[0], slots


def build_blocks(annotations: Sequence[Annotation], root_name: str | None = None) -> Block:
    """Assemble the nested block tree from a document-ordered stream.

    If the stream yields a single top-level block that has children, that
    block is the root. Otherwise an implicit root workflow wraps the
    top-level blocks; its name is ``root_name`` or the first file's stem.
    A stream with structural problems raises the first in document order;
    a block that opens in one file and ends in another is one of them.
    """
    return _tree(list(map(_FIELDS, annotations)), root_name, ())[0]


def _tree(
    annotations: Sequence[_Tagged], root_name: str | None, files: Sequence[str],
    problems: list[YwxError] | None = None,
) -> tuple[Block | None, list[Block]]:
    """``_bracket``'s block tree and slots. With ``problems`` None it raises
    the first structural problem, then refuses a stream with no block naming
    ``files``. Otherwise it appends them there, the no-block one at the first
    of ``files`` and only if nothing else explains it; the tree is then None
    if there is one."""
    found, root, slots = _bracket(annotations, root_name, files=files)
    names = ", ".join(files)
    if problems is not None:
        problems += found
        if root is None and files and not problems:
            text = f"the annotation stream of {names} defines no blocks"
            problems.append(NoBlocks(text, file=files[0], line=1))
    elif found:
        raise found[0]
    elif root is None:
        raise NoBlocks("the annotation stream defines no blocks", file=names or None)
    return root, slots


# -- channel inference ------------------------------------------------------

def _scope_channels(
    workflow: Block, ends: dict[str, tuple[Endpoint, Endpoint]], checks: list[_Group] | None
) -> list[Channel]:
    """The channels of one workflow's scope, in data name order.

    Within a workflow W and data name d: candidate writers are W's own
    in/param ports named d plus each child's out ports named d; candidate
    readers are the children's in/param ports named d plus W's own out ports
    named d. One writer and a reader make a channel, a parameter one if a
    parameter port is among them. Several writers and a reader make d
    ambiguous: with ``checks`` None the first such name raises
    AmbiguousWriter. A name nothing writes is neither a channel nor checked.
    With ``checks`` a list, every ambiguous name and every name nothing
    reads is appended to it instead. ``ends`` holds the load's in and out
    endpoints by block, so equal endpoints are one object. A block has at
    most one port per name and direction, so sorting the readers by block
    name is sorting them by endpoint.
    """
    # Enum members are read once: on Python 3.11 each read goes through the
    # metaclass's __getattr__ hook.
    into, out_of = Direction.IN, Direction.OUT
    parameter, plain = Role.PARAMETER, Role.DATA
    scope = workflow.qualified_name
    writers: dict[str, list[_PortAt]] = {}
    readers: dict[str, list[_PortAt]] = {}
    params: set[str] = set()
    writes = into  # the workflow's own in ports write, and its children's out ports
    for block in (workflow, *workflow.children):
        q = block.qualified_name
        pair = ends.get(q)
        if pair is None:
            pair = ends[q] = (Endpoint(q, into), Endpoint(q, out_of))
        for port in block.ports:
            name, direction = port.name, port.direction
            item = (q, pair[0] if direction is into else pair[1], port)
            side = writers if direction is writes else readers
            group = side.get(name)
            if group is None:
                side[name] = [item]
            else:
                group.append(item)
            if port.role is parameter:
                params.add(name)
        writes = out_of
    channels: list[Channel] = []
    for data in sorted(writers):
        sources = writers[data]
        sinks = readers.get(data)
        if sinks is None or len(sources) > 1:
            if checks is not None:
                checks.append((scope, data, sources, sinks or []))
            elif sinks is not None:
                listed = ", ".join(f"{b} ({p.file}:{p.line})" for b, _, p in sources)
                second = sources[1][2]
                raise AmbiguousWriter(
                    f"data {data!r} has several writers in scope {scope!r}: {listed}",
                    file=second.file,
                    line=second.line,
                )
            continue
        if len(sinks) > 1:
            sinks.sort(key=itemgetter(0))
        channels.append(Channel(
            data,
            scope,
            parameter if data in params else plain,
            sources[0][1],
            tuple([end for _, end, _ in sinks]),
        ))
    return channels


def _joined(blocks: Iterable[Block], checks: list[_Group] | None = None) -> tuple[Channel, ...]:
    """The one channel pass: every channel of each workflow among ``blocks``,
    in order. ``checks`` is as for ``_scope_channels``."""
    ends: dict[str, tuple[Endpoint, Endpoint]] = {}
    channels: list[Channel] = []
    for block in blocks:
        if block.children:
            channels += _scope_channels(block, ends, checks)
    return tuple(channels)


def infer_channels(root: Block) -> tuple[Channel, ...]:
    """Derive every channel in every scope; single writer per name and scope.

    This is for a tree built some other way: every load, a model file's
    included, passes ``_bracket``'s pre-order slots to ``_joined`` instead.
    """
    return _joined(iter_blocks(root))


def build_model(
    annotations: Sequence[Annotation],
    root_name: str | None = None,
    source_files: Sequence[str] | None = None,
) -> WorkflowModel:
    """Build the complete model (block tree plus channels) in one step.

    ``source_files`` defaults to the stream's files in order; an implicit
    root is named ``root_name`` or after the first of them."""
    stream = list(map(_FIELDS, annotations))
    if source_files is None:
        source_files = list(dict.fromkeys(item[3] for item in stream))
    return _build_model(stream, root_name, source_files)


def _build_model(
    annotations: Sequence[_Tagged], root_name: str | None, source_files: Sequence[str]
) -> WorkflowModel:
    """``build_model`` of a stream of tag-walk tuples, the one builder of a
    script, a listing and a model file; see ``_tree`` for its refusals."""
    root, slots = _tree(annotations, root_name, source_files)
    return WorkflowModel(root, _joined(slots), tuple(source_files))


# -- serialization ----------------------------------------------------------

def serialize_model(model: WorkflowModel) -> str:
    """Render a model as its JSON model file."""
    return "".join(_model_chunks(model))


def _model_chunks(model: WorkflowModel) -> Iterator[str]:
    """The JSON text of a model file, one chunk per block record (a block's
    head and tail, one chunk for a block without children) and per channel
    record, then the rest."""
    yield '{\n  "root": '
    yield from _block_chunks(model.root)
    yield ',\n  "channels": ['
    for i, ch in enumerate(model.channels):
        yield f"{',' if i else ''}\n    {_channel_json(ch)}"
    close = "\n  ]" if model.channels else "]"
    files = _json_list([_json_str(f) for f in model.source_files], "  ")
    yield f'{close},\n  "source_files": {files}\n}}\n'


def _block_chunks(root: Block) -> Iterator[str]:
    """The JSON of a block tree, walked depth first with an explicit stack.

    Only the open block's indentation ``key`` is held: one per stack entry
    would hold text growing with the square of the depth.
    """
    key = "    "
    yield _block_head(root, key)
    stack = [(root, enumerate(root.children))]
    while stack:
        block, pending = stack[-1]
        index, child = next(pending, (0, None))
        if child is None:
            stack.pop()
            yield _block_tail(block, key)
            key = key[:-4]
            continue
        lead = f"{',' if index else ''}\n{key}  "
        inner = key + "    "
        if child.children:
            yield lead + _block_head(child, inner)
            stack.append((child, enumerate(child.children)))
            key = inner
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


# A port's (direction, role) in a model file, as the tag that declares it.
_PORT_WORDS = {(d._value_, r._value_): tag for tag, (d, r) in _PORT_TAGS.items()}


# A decoded JSON value is of exactly one of the JSON types, so its class is
# tested with ``is``: that is cheaper than ``isinstance``, and it tells a bool,
# which ``isinstance`` takes for an int, from a line number.
def _port_tag(raw: object, owner: str, owner_file: str) -> _Tagged:
    """The tag-walk tuple of one serialized port of block ``owner``. A port
    is on a line of its block's file, 1 or more; one with no file is in it too."""
    if raw.__class__ is not dict:
        raise MalformedModel(f"port of {owner!r} must be an object")
    name = raw.get("name")
    if not (name.__class__ is str and IDENTIFIER_RE.match(name)):
        raise MalformedModel(f"bad port name {name!r} on {owner!r}")
    kind = (raw.get("direction"), raw.get("role"))
    if kind == ("out", "parameter"):
        raise MalformedModel(f"port {name!r} on {owner!r} cannot be an out parameter")
    # Only strings are looked up: a list or dict value is unhashable.
    tag = _PORT_WORDS.get(kind) if kind[0].__class__ is str and kind[1].__class__ is str else None
    if tag is None:
        raise MalformedModel(f"bad port direction/role on {owner!r}")
    line = raw.get("line")
    if line.__class__ is not int:
        raise MalformedModel(f"port {name!r} on {owner!r} needs an integer line")
    if line < 1:
        raise MalformedModel(f"port {name!r} on {owner!r} needs a line of 1 or more")
    description = raw.get("description")
    if description is not None and description.__class__ is not str:
        raise MalformedModel(f"port {name!r} on {owner!r} has a non-string description")
    file = raw.get("file")
    if file.__class__ is str and file != owner_file:
        raise MalformedModel(
            f"port {name!r} on {owner!r} is in file {file!r}, but its block is in {owner_file!r}"
        )
    return tag, name, description, owner_file, line


def _block_tags(
    raw: object, prefix: str, parent_file: str, in_parent_file: bool
) -> tuple[str, list[_Tagged], _Tagged, list]:
    """Check one serialized block, all but its children: its qualified name,
    its ``@begin`` and port tuples, its ``@end`` tuple and its children. A
    span starts at a ``@begin`` line, 1 or more, or at the implicit root's 0,
    and ends at or after it.
    A block with no file is in its parent's; with ``in_parent_file`` every
    block is, as only the root and an implicit root's children may be in a
    file of their own.
    """
    if raw.__class__ is not dict:
        raise MalformedModel("block must be an object")
    name = raw.get("name")
    if not (name.__class__ is str and IDENTIFIER_RE.match(name)):
        raise MalformedModel(f"bad block name {name!r}")
    qualified = raw.get("qualified_name")
    expected = f"{prefix}.{name}" if prefix else name
    if qualified != expected:
        raise MalformedModel(f"qualified name {qualified!r} should be {expected!r}")
    description = raw.get("description")
    if description is not None and description.__class__ is not str:
        raise MalformedModel(f"block {name!r} has a non-string description")
    span = raw.get("span")
    if not (
        span.__class__ is list
        and len(span) == 2
        and span[0].__class__ is int
        and span[1].__class__ is int
    ):
        raise MalformedModel(f"block {name!r} needs a [begin, end] span")
    if span[0] < 1 and (prefix or span[0]):
        raise MalformedModel(f"block {name!r} needs a span starting at line 1 or later")
    if span[1] < span[0]:
        raise MalformedModel(f"block {name!r} needs a span that ends at or after its start")
    file = raw.get("file")
    if file.__class__ is not str:
        file = parent_file
    elif in_parent_file and file != parent_file:
        raise MalformedModel(
            f"child {expected!r} is in file {file!r}, but its parent {prefix!r} "
            f"is in {parent_file!r}"
        )
    raw_ports = raw.get("ports")
    if raw_ports.__class__ is not list:
        raise MalformedModel(f"block {name!r} needs a port list")
    tags = [(Tag.BEGIN, name, description, file, span[0])]
    tags += [_port_tag(p, expected, file) for p in raw_ports]
    children = raw.get("children")
    if children.__class__ is not list:
        raise MalformedModel(f"block {name!r} needs a child list")
    return expected, tags, (Tag.END, name, None, file, span[1]), children


def _tags_from_json(raw: object) -> tuple[list[_Tagged], list[_Tagged], _Tagged]:
    """The tag stream a serialized block tree describes, then the root's own
    ``@begin`` and port tuples and its ``@end`` tuple.

    Each block gives its ``@begin`` and ports, its children's tags, then its
    ``@end``. Blocks are checked in pre-order, without recursion, so no
    nesting depth is too deep. A root whose span starts at 0 is implicit:
    its own tuples are left out, and its children are the top level.
    """
    qualified, head, tail, children = _block_tags(raw, "", "<model>", False)
    if not children:
        raise MalformedModel("root block must be a workflow (have children)")
    implicit = head[0][4] == 0
    stream = [] if implicit else head[:]
    stack = [(qualified, tail, iter(children), implicit)]
    while stack:
        prefix, end, pending, implicit = stack[-1]
        for child in pending:
            qualified, tags, child_end, grandchildren = _block_tags(
                child, prefix, end[3], not implicit
            )
            stream += tags
            stack.append((qualified, child_end, iter(grandchildren), False))
            break
        else:
            stack.pop()
            if not implicit:
                stream.append(end)
    return stream, head, tail


def parse_model(text: str) -> WorkflowModel:
    """Parse a model file's JSON text back into a model.

    The text is decoded once and checked for lone surrogates, and
    ``_model_from_json`` makes every other check on the payload. The CLI
    calls that with the payload it decoded to tell the two intermediate
    kinds apart, so a file is never decoded twice.
    """
    payload = _decode_json(text, MalformedModel)
    _check_unicode(text, payload, MalformedModel)
    return _model_from_json(payload)


def _model_from_json(payload: object) -> WorkflowModel:
    """Check and convert a model file's decoded payload, already checked
    for lone surrogates (``_check_unicode``).

    The listing route's builder, ``_build_model``, builds the model from the
    tag stream the file's tree describes, so only the file's format is
    checked here. An implicit root must be the one its children make, and
    the file's channels must equal the derived ones, so every later walk
    can rely on them matching the ports. ``"root"`` is taken out of the
    payload, so the tree's dicts are freed once they are the tag stream.
    """
    if not isinstance(payload, dict):
        raise MalformedModel("top level must be an object")
    stream, head, tail = _tags_from_json(payload.pop("root", None))
    raw_files = payload.get("source_files", [])
    if not (isinstance(raw_files, list) and all(isinstance(f, str) for f in raw_files)):
        raise MalformedModel("'source_files' must be a list of strings")
    raw_channels = payload.get("channels")
    if not isinstance(raw_channels, list):
        raise MalformedModel("'channels' must be a list")

    name = head[0][1]
    try:
        model = _build_model(stream, name, raw_files)
    except AmbiguousWriter as exc:
        raise MalformedModel(f"block tree is ambiguous: {exc}") from exc
    except ModelError as exc:
        raise MalformedModel(str(exc)) from exc
    root = model.root
    # An implicit root's own tags are those of the root its children make.
    made = root.name, None, root.file
    implicit = [(Tag.BEGIN, *made, 0), (Tag.END, *made, root.span[1])]
    if head[0][4] == 0 and [*head, tail] != implicit:
        raise MalformedModel(
            f"root {name!r} spans from line 0 but is not the implicit root its "
            f"children make: {root.name!r}, span {list(root.span)}, file {root.file!r}, "
            "no description and no ports"
        )
    # The file's records must be exactly those a model file is written with.
    # Every field is a string, so a value of another type differs, and so
    # does a record with a key more or less. The loops are plain: before
    # Python 3.12 a comprehension per channel would cost a call.
    derived = []
    for ch in model.channels:
        source, sinks = ch.source, []
        for end in ch.sinks:
            sinks.append({"block": end.block, "port_direction": end.direction._value_})
        derived.append({
            "data": ch.data,
            "scope": ch.scope,
            "role": ch.role._value_,
            "source": {"block": source.block, "port_direction": source.direction._value_},
            "sinks": sinks,
        })
    if raw_channels != derived:
        raise MalformedModel("'channels' differs from the channels inferred from 'root'")
    return model
