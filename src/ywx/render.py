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
    """Read a key=value style file; unknown keys are rejected."""
    style = dict(DEFAULT_STYLE)
    text = _read_text(path)
    for lineno, raw in enumerate(text.splitlines(), start=1):
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
    """One drawing: the model, options and style it is drawn with, the shared
    ``ModelIndex`` and the focus, and what is gathered before text emission:
    each node as ``(anchor, cluster, DOT text)`` and each cluster as
    ``(anchor, parent, label)``, both by id, and the edges. ``options``
    defaults to ``RenderOptions()`` and ``style`` to ``DEFAULT_STYLE``. Each
    view function draws its own view, so ``options.view`` is not read."""

    def __init__(
        self, model: WorkflowModel, options: RenderOptions | None, style: dict[str, str] | None
    ) -> None:
        options = options or RenderOptions()
        if options.rankdir not in RANKDIRS:
            raise ValueError(f"rankdir must be one of {RANKDIRS}, got {options.rankdir!r}")
        self.model = model
        self.style = style or DEFAULT_STYLE
        self.rankdir = options.rankdir
        self.nested = options.nested
        self.de_emphasize_params = options.de_emphasize_params
        self.index = ModelIndex(model)
        focus_q = options.focus or model.root.qualified_name
        focus = self.index.blocks.get(focus_q)
        if focus is None or not focus.is_workflow:
            raise UnknownFocus(f"{focus_q!r} does not name a workflow")
        self.focus = focus
        self.file_idx = {path: i for i, path in enumerate(model.source_files)}
        self.nodes: dict[str, tuple[tuple, str | None, str]] = {}
        self.clusters: dict[str, tuple[tuple, str | None, str]] = {}
        self.edges: dict[tuple[str, str, str], bool] = {}
        # In a nested view each sub-workflow of the focus is a cluster.
        for wf in iter_blocks(focus) if self.nested else ():
            if wf.is_workflow and wf is not focus:
                qname = wf.qualified_name
                self.clusters[qname] = (
                    self.anchor(wf.file, wf.span[0], "cluster_" + qname),
                    self.cluster(self.index.parents[qname]),
                    wf.name,
                )

    def anchor(self, file: str, line: int, node_id: str) -> tuple:
        return (self.file_idx.get(file, len(self.file_idx)), line, node_id)

    def scoped_channels(self) -> list[Channel]:
        """Channels drawn by the current options: focus scope, or its subtree."""
        scopes = {self.focus.qualified_name}
        if self.nested:
            scopes = {b.qualified_name for b in iter_blocks(self.focus)}
        return [ch for ch in self.model.channels if ch.scope in scopes]

    def drawn_blocks(self) -> list[Block]:
        """Blocks that appear as boxes: children of focus, or subtree programs."""
        if self.nested:
            return [b for b in iter_blocks(self.focus) if not b.is_workflow]
        return list(self.focus.children)

    def cluster(self, workflow_q: str | None) -> str | None:
        """The cluster that draws the members of workflow ``workflow_q``: None
        unless the view is nested, and None for the focus."""
        return workflow_q if self.nested and workflow_q != self.focus.qualified_name else None

    def add_node(
        self, node_id: str, attrs: list[tuple[str, str]], anchor: tuple, cluster: str | None
    ) -> None:
        """Format a node's DOT text at its first add; the first add wins."""
        if node_id not in self.nodes:
            rendered = ", ".join(f"{k}={_q(v)}" for k, v in attrs)
            self.nodes[node_id] = (anchor, cluster, f"{_q(node_id)} [{rendered}]")

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
            attrs: list[tuple[str, str]] = []
            if label:
                attrs.append(("label", label))
            if param and self.de_emphasize_params:
                attrs.append(("style", style["param.edge.style"]))
                attrs.append(("color", style["param.edge.color"]))
            if attrs:
                rendered = ", ".join(f"{k}={_q(v)}" for k, v in attrs)
                lines.append(f"  {_q(src)} -> {_q(dst)} [{rendered}]")
            else:
                lines.append(f"  {_q(src)} -> {_q(dst)}")
        lines.append("}")
        return "\n".join(lines) + "\n"


def _block_node(sheet: _Sheet, block: Block) -> str:
    node_id = block.qualified_name
    sheet.add_node(
        node_id,
        [("shape", sheet.style["shape.program"]), ("label", block.name)],
        sheet.anchor(block.file, block.span[0], node_id),
        sheet.cluster(sheet.index.parents[node_id]),
    )
    return node_id


def _terminal_node(sheet: _Sheet, owner_q: str, port: Port) -> str:
    # The member's own value: ``Enum.value`` is a property, and reading an
    # enum member such as ``Direction.IN`` is a slow class-attribute hook.
    kind = port.direction._value_
    node_id = f"port:{kind}:{owner_q}:{port.name}"
    shape_key = "shape.input" if kind == "in" else "shape.output"
    attrs: list[tuple[str, str]] = [
        ("shape", sheet.style[shape_key]),
        ("label", port.name),
    ]
    if sheet.de_emphasize_params and port.role is Role.PARAMETER:
        attrs.append(("color", sheet.style["param.node.color"]))
        attrs.append(("fontcolor", sheet.style["param.node.fontcolor"]))
    anchor = sheet.anchor(port.file, port.line, node_id)
    sheet.add_node(node_id, attrs, anchor, sheet.cluster(owner_q))
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
    for block in sheet.drawn_blocks():
        _block_node(sheet, block)
    for port in sheet.focus.ports:
        _terminal_node(sheet, sheet.focus.qualified_name, port)
    index, focus_q = sheet.index, sheet.focus.qualified_name
    parameter = Role.PARAMETER  # read once: see _terminal_node
    for ch in sheet.scoped_channels():
        if sheet.nested:
            writer, readers = index.writer(ch, focus_q), index.readers(ch, focus_q)
        else:
            writer, readers = ch.source, ch.sinks
        src = _end_node(sheet, ch, writer)
        param = ch.role is parameter
        for end in readers:
            sheet.add_edge(src, _end_node(sheet, ch, end), ch.data, param)
    return sheet.emit()


# -- data grouping (shared by data and combined views) ------------------------

@dataclass(eq=False)
class _DataGroup:
    """One data node: the (scope, name) keys it stands for, outermost first."""

    scope: str
    name: str
    keys: list[tuple[str, str]] = field(default_factory=list)
    param: bool = False

    @property
    def node_id(self) -> str:
        return f"data:{self.scope}:{self.name}"


def _data_groups(sheet: _Sheet) -> dict[tuple[str, str], _DataGroup]:
    """Map every in-scope (scope, data-name) key to its display group.

    Non-nested: one group per focus-scope name. Nested: a channel that
    passes its data through a boundary port of its own scope joins the
    group of the same-named channel one scope out, unless its scope is the
    focus. Channels come in scope pre-order, so that group is made first,
    and each group is named after its outermost key.
    """
    focus_q = sheet.focus.qualified_name
    parameter = Role.PARAMETER  # read once: see _terminal_node
    groups: dict[tuple[str, str], _DataGroup] = {}
    for ch in sheet.scoped_channels():
        key = (ch.scope, ch.data)
        outer = sheet.index.outer(ch) if sheet.nested and ch.scope != focus_q else None
        group = _DataGroup(*key) if outer is None else groups[(outer.scope, outer.data)]
        group.keys.append(key)
        group.param |= ch.role is parameter
        groups[key] = group
    for port in sheet.focus.ports:
        key = (focus_q, port.name)
        group = groups.get(key)
        if group is None:
            group = groups[key] = _DataGroup(*key, [key])
        group.param |= port.role is parameter
    return groups


def _data_nodes(sheet: _Sheet) -> dict[tuple[str, str], _DataGroup]:
    """Add one node per data group, anchored at its earliest port; return
    ``_data_groups``."""
    groups = _data_groups(sheet)
    for group in dict.fromkeys(groups.values()):
        attrs: list[tuple[str, str]] = [
            ("shape", sheet.style["shape.data"]),
            ("label", group.name),
        ]
        if group.param and sheet.de_emphasize_params:
            attrs.append(("color", sheet.style["param.node.color"]))
            attrs.append(("fontcolor", sheet.style["param.node.fontcolor"]))
        ports: list[Port] = []
        for scope, name in group.keys:
            ch = sheet.index.chan.get((scope, name))
            if ch is None:  # a port of the focus that no channel joins
                ports += [p for p in sheet.focus.ports if p.name == name]
            else:
                ends = (ch.source, *ch.sinks)
                ports += [sheet.index.ports[(e.block, name, e.direction)] for e in ends]
        anchor = min(sheet.anchor(p.file, p.line, group.node_id) for p in ports)
        sheet.add_node(group.node_id, attrs, anchor, sheet.cluster(group.scope))
    return groups


def _block_flows(
    sheet: _Sheet, groups: dict[tuple[str, str], _DataGroup], block: Block
) -> tuple[list[_DataGroup], list[_DataGroup]]:
    """The data groups a drawn block reads and writes, per its scope channels."""
    scope = sheet.index.parents[block.qualified_name]
    reads: dict[_DataGroup, None] = {}
    writes: dict[_DataGroup, None] = {}
    into = Direction.IN  # read once: see _terminal_node
    for port in block.ports:
        key = (scope, port.name)
        if key in sheet.index.chan:
            side = reads if port.direction is into else writes
            side[groups[key]] = None
    return list(reads), list(writes)


def render_data_view(
    model: WorkflowModel,
    options: RenderOptions | None = None,
    style: dict[str, str] | None = None,
) -> str:
    sheet = _Sheet(model, options, style)
    groups = _data_nodes(sheet)
    for block in sheet.drawn_blocks():
        reads, writes = _block_flows(sheet, groups, block)
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
    groups = _data_nodes(sheet)
    for block in sheet.drawn_blocks():
        node_id = _block_node(sheet, block)
        reads, writes = _block_flows(sheet, groups, block)
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
