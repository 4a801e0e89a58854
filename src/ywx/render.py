"""DOT rendering of workflow models.

Three views of one model: the process view draws blocks as boxes joined by
edges labeled with data names; the data view promotes the data to nodes and
pushes block names onto edge labels; the combined view shows both as a
bipartite graph. Output is plain DOT text, byte-deterministic for a given
model and option set: nodes appear in source-document order, edges sorted
by (source, sink, label), and every identifier is quoted.

With ``nested=True`` each sub-workflow of the focus becomes a cluster
subgraph. Channels whose endpoint is a sub-workflow boundary port are then
flattened through that boundary to the producing and consuming blocks on
either side; a boundary port with nothing on the far side renders as a
stub terminal inside its cluster.

Every view reads the model through one shared ``ModelIndex``, which is the
one boundary resolver: the process view draws each channel from the writer
and reader ends ``ModelIndex.writer`` and ``ModelIndex.readers`` resolve up
to the focus, and the data views put a channel in the data node of the
channel ``ModelIndex.outer`` names one scope out. Nothing here walks a
boundary itself or recurses, so a nest of any depth renders.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .errors import StyleError, UnknownFocus, _read_text
from .model import (
    Block,
    Channel,
    Direction,
    Endpoint,
    ModelIndex,
    Port,
    Role,
    WorkflowModel,
    iter_blocks,
)

DEFAULT_STYLE: dict[str, str] = {
    "shape.program": "box",
    "shape.data": "oval",
    "shape.input": "circle",
    "shape.output": "circle",
    "param.edge.style": "dashed",
    "param.edge.color": "gray",
    "param.node.color": "gray",
    "param.node.fontcolor": "gray",
}

VIEWS = ("process", "data", "combined")
RANKDIRS = ("LR", "TB")


def load_style_file(path: str | Path) -> dict[str, str]:
    """Read a key=value style file; unknown keys are rejected. Lines end at
    ``\\n`` only, as in every other input; ``strip`` drops a CRLF's ``\\r``."""
    style = dict(DEFAULT_STYLE)
    text = _read_text(path)
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not value:
            raise StyleError(
                f"expected key=value, got {line!r}", file=str(path), line=lineno
            )
        if key not in DEFAULT_STYLE:
            raise StyleError(f"unknown style key {key!r}", file=str(path), line=lineno)
        style[key] = value
    return style


@dataclass(frozen=True)
class RenderOptions:
    view: str = "process"
    rankdir: str = "LR"
    focus: str | None = None
    nested: bool = False
    de_emphasize_params: bool = False


def _q(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


class _Sheet:
    """One drawing: the options and style it is drawn with, the shared
    ``ModelIndex``, the focus, the blocks drawn as boxes and the channels
    drawn (the focus's children and channels, or in a nested view the
    programs and channels of its subtree), and what is gathered before text
    emission: each node as ``(anchor, cluster, DOT text)`` and each cluster
    as ``(anchor, parent, label)``, both by id, and the edges. ``options``
    defaults to ``RenderOptions()`` and ``style`` to ``DEFAULT_STYLE``. Each
    view function draws its own view, so ``options.view`` is not read."""

    def __init__(
        self, model: WorkflowModel, options: RenderOptions | None, style: dict[str, str] | None
    ) -> None:
        options = options or RenderOptions()
        if options.rankdir not in RANKDIRS:
            raise ValueError(f"rankdir must be one of {RANKDIRS}, got {options.rankdir!r}")
        self.style = style or DEFAULT_STYLE
        self.rankdir = options.rankdir
        self.nested = options.nested
        self.de_emphasize_params = options.de_emphasize_params
        self.index = ModelIndex(model)
        focus_q = model.root.qualified_name if options.focus is None else options.focus
        focus = self.index.blocks.get(focus_q)
        if focus is None or not focus.is_workflow:
            raise UnknownFocus(f"{focus_q!r} does not name a workflow")
        self.focus = focus
        self.file_idx = {path: i for i, path in enumerate(model.source_files)}
        self.nodes: dict[str, tuple[tuple, str | None, str]] = {}
        self.clusters: dict[str, tuple[tuple, str | None, str]] = {}
        self.edges: dict[tuple[str, str, str], bool] = {}
        self.blocks: list[Block] = [] if self.nested else list(focus.children)
        scopes = {focus_q}
        # In a nested view each sub-workflow of the focus is a cluster.
        for block in iter_blocks(focus) if self.nested else ():
            qname = block.qualified_name
            if not block.is_workflow:
                self.blocks.append(block)
            elif block is not focus:
                scopes.add(qname)
                self.clusters[qname] = (
                    self.anchor(block.file, block.span[0], "cluster_" + qname),
                    self.cluster(self.index.parents[qname]),
                    block.name,
                )
        self.channels = [ch for ch in model.channels if ch.scope in scopes]

    def anchor(self, file: str, line: int, node_id: str) -> tuple:
        return (self.file_idx.get(file, len(self.file_idx)), line, node_id)

    def cluster(self, workflow_q: str | None) -> str | None:
        """The cluster that draws the members of workflow ``workflow_q``: None
        unless the view is nested, and None for the focus."""
        return workflow_q if self.nested and workflow_q != self.focus.qualified_name else None

    def add_node(
        self, node_id: str, shape_key: str, label: str, anchor: tuple, cluster: str | None,
        param: bool = False,
    ) -> None:
        """Format a node's DOT text at its first add; the first add wins. A
        parameter's node takes the muted colours when they are asked for."""
        if node_id in self.nodes:
            return
        style = self.style
        text = f"{_q(node_id)} [shape={_q(style[shape_key])}, label={_q(label)}"
        if param and self.de_emphasize_params:
            text += f", color={_q(style['param.node.color'])}"
            text += f", fontcolor={_q(style['param.node.fontcolor'])}"
        self.nodes[node_id] = (anchor, cluster, text + "]")

    def add_edge(self, src: str, dst: str, label: str, param: bool) -> None:
        key = (src, dst, label)
        self.edges[key] = self.edges.get(key, False) or param

    def emit(self) -> str:
        lines = [
            f"digraph {_q(self.focus.qualified_name)} {{",
            f"  rankdir={_q(self.rankdir)}",
        ]
        # Each owner's members as (anchor, cluster name or None, node text).
        by_owner: dict[str | None, list] = {}
        for anchor, owner, text in self.nodes.values():
            by_owner.setdefault(owner, []).append((anchor, None, text))
        for qname, (anchor, parent, label) in self.clusters.items():
            by_owner.setdefault(parent, []).append((anchor, qname, label))

        def level(owner: str | None, indent: str) -> tuple:
            return iter(sorted(by_owner.get(owner, []), key=lambda x: x[0])), indent

        # Each cluster's members in anchor order, nested with an explicit stack.
        stack = [level(None, "  ")]
        while stack:
            items, indent = stack[-1]
            item = next(items, None)
            if item is None:
                stack.pop()
                if stack:
                    lines.append(f"{stack[-1][1]}}}")
            elif item[1] is None:  # a node: its text
                lines.append(indent + item[2])
            else:  # a cluster: its name and label
                lines.append(f"{indent}subgraph {_q('cluster_' + item[1])} {{")
                lines.append(f"{indent}  label={_q(item[2])}")
                stack.append(level(item[1], indent + "  "))
        style = self.style
        for (src, dst, label), param in sorted(self.edges.items()):
            attrs = [f"label={_q(label)}"] if label else []
            if param and self.de_emphasize_params:
                attrs.append(f"style={_q(style['param.edge.style'])}")
                attrs.append(f"color={_q(style['param.edge.color'])}")
            rendered = f" [{', '.join(attrs)}]" if attrs else ""
            lines.append(f"  {_q(src)} -> {_q(dst)}{rendered}")
        lines.append("}")
        return "\n".join(lines) + "\n"


def _block_node(sheet: _Sheet, block: Block) -> str:
    node_id = block.qualified_name
    sheet.add_node(
        node_id,
        "shape.program",
        block.name,
        sheet.anchor(block.file, block.span[0], node_id),
        sheet.cluster(sheet.index.parents[node_id]),
    )
    return node_id


# Read once: reading an enum member is a slow class-attribute hook, and
# ``Enum.value`` is a property, so ``_value_`` is read in its place.
_PARAMETER = Role.PARAMETER
_IN = Direction.IN


def _terminal_node(sheet: _Sheet, owner_q: str, port: Port) -> str:
    kind = port.direction._value_
    node_id = f"port:{kind}:{owner_q}:{port.name}"
    sheet.add_node(
        node_id,
        "shape.input" if kind == "in" else "shape.output",
        port.name,
        sheet.anchor(port.file, port.line, node_id),
        sheet.cluster(owner_q),
        port.role is _PARAMETER,
    )
    return node_id


# -- process view -----------------------------------------------------------

def _end_node(sheet: _Sheet, ch: Channel, end: Endpoint) -> str:
    """The node of a drawn channel end: its block's box, or a port terminal.

    A port of the focus is a terminal; so, in a nested view, is a resolved
    end on a sub-workflow, which is a boundary port with nothing beyond it.
    """
    if end.block == sheet.focus.qualified_name or (
        sheet.nested and end.block not in sheet.index.programs
    ):
        port = sheet.index.ports[(end.block, ch.data, end.direction)]
        return _terminal_node(sheet, end.block, port)
    return end.block


def render_process_view(
    model: WorkflowModel,
    options: RenderOptions | None = None,
    style: dict[str, str] | None = None,
) -> str:
    sheet = _Sheet(model, options, style)
    for block in sheet.blocks:
        _block_node(sheet, block)
    for port in sheet.focus.ports:
        _terminal_node(sheet, sheet.focus.qualified_name, port)
    index, focus_q = sheet.index, sheet.focus.qualified_name
    for ch in sheet.channels:
        if sheet.nested:
            writer, readers = index.writer(ch, focus_q), index.readers(ch, focus_q)
        else:
            writer, readers = ch.source, ch.sinks
        src = _end_node(sheet, ch, writer)
        param = ch.role is _PARAMETER
        for end in readers:
            sheet.add_edge(src, _end_node(sheet, ch, end), ch.data, param)
    return sheet.emit()


# -- data flows (shared by data and combined views) ---------------------------

@dataclass(eq=False)
class _DataGroup:
    """One data node: the ports of the channels it stands for, and any port
    of the focus that no channel joins."""

    scope: str
    name: str
    ports: list[Port] = field(default_factory=list)
    param: bool = False

    @property
    def node_id(self) -> str:
        return f"data:{self.scope}:{self.name}"


def _data_flows(sheet: _Sheet) -> list[tuple[Block, list[_DataGroup], list[_DataGroup]]]:
    """Add one node per data group, anchored at its earliest port, and return
    each drawn block with the groups it reads and writes.

    Non-nested: one group per focus-scope name. Nested: a channel that
    passes its data through a boundary port of its own scope joins the
    group of the same-named channel one scope out, unless its scope is the
    focus. Channels come in scope pre-order, so that group is made first,
    and each group is named after its outermost channel. A block has at
    most one port per name and direction, so no group is read or written
    twice by one block.
    """
    index, focus_q = sheet.index, sheet.focus.qualified_name
    groups: dict[tuple[str, str], _DataGroup] = {}
    for ch in sheet.channels:
        key = (ch.scope, ch.data)
        outer = index.outer(ch) if sheet.nested and ch.scope != focus_q else None
        group = _DataGroup(*key) if outer is None else groups[(outer.scope, outer.data)]
        ends = (ch.source, *ch.sinks)
        group.ports += [index.ports[(e.block, ch.data, e.direction)] for e in ends]
        group.param |= ch.role is _PARAMETER
        groups[key] = group
    for port in sheet.focus.ports:
        key = (focus_q, port.name)
        group = groups.setdefault(key, _DataGroup(*key))
        if key not in index.chan:
            group.ports.append(port)
        group.param |= port.role is _PARAMETER
    for group in dict.fromkeys(groups.values()):
        node_id = group.node_id
        anchor = min(sheet.anchor(p.file, p.line, node_id) for p in group.ports)
        cluster = sheet.cluster(group.scope)
        sheet.add_node(node_id, "shape.data", group.name, anchor, cluster, group.param)
    flows = []
    for block in sheet.blocks:
        scope = index.parents[block.qualified_name]
        reads, writes = [], []
        for port in block.ports:
            key = (scope, port.name)
            if key in index.chan:
                (reads if port.direction is _IN else writes).append(groups[key])
        flows.append((block, reads, writes))
    return flows


def render_data_view(
    model: WorkflowModel,
    options: RenderOptions | None = None,
    style: dict[str, str] | None = None,
) -> str:
    sheet = _Sheet(model, options, style)
    for block, reads, writes in _data_flows(sheet):
        for read in reads:
            for write in writes:
                sheet.add_edge(read.node_id, write.node_id, block.name, read.param)
    return sheet.emit()


def render_combined_view(
    model: WorkflowModel,
    options: RenderOptions | None = None,
    style: dict[str, str] | None = None,
) -> str:
    sheet = _Sheet(model, options, style)
    for block, reads, writes in _data_flows(sheet):
        node_id = _block_node(sheet, block)
        for read in reads:
            sheet.add_edge(read.node_id, node_id, "", read.param)
        for write in writes:
            sheet.add_edge(node_id, write.node_id, "", write.param)
    return sheet.emit()


_VIEW_RENDERERS = {
    "process": render_process_view,
    "data": render_data_view,
    "combined": render_combined_view,
}


def render(
    model: WorkflowModel,
    options: RenderOptions | None = None,
    style: dict[str, str] | None = None,
) -> str:
    """Render the view named by ``options.view`` (default: process)."""
    options = options or RenderOptions()
    if options.view not in _VIEW_RENDERERS:
        raise ValueError(f"view must be one of {VIEWS}, got {options.view!r}")
    return _VIEW_RENDERERS[options.view](model, options, style)
