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

Every view reads the model through one shared ``ModelIndex``, and every
step through a workflow boundary, in the process view's flattening and in
the data views' merging of names, is one ``ModelIndex.across`` lookup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .errors import StyleError, UnknownFocus
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
    text = Path(path).read_text(encoding="utf-8")
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


@dataclass
class _Node:
    id: str
    attrs: tuple[tuple[str, str], ...]
    anchor: tuple
    cluster: str | None


@dataclass
class _ClusterDef:
    qname: str
    label: str
    parent: str | None
    anchor: tuple


class _Sheet:
    """Accumulates nodes, clusters, and edges before text emission."""

    def __init__(self, ctx: "_Ctx") -> None:
        self.ctx = ctx
        self.nodes: dict[str, _Node] = {}
        self.clusters: dict[str, _ClusterDef] = {}
        self.edges: dict[tuple[str, str, str], bool] = {}

    def add_node(self, node: _Node) -> None:
        self.nodes.setdefault(node.id, node)

    def add_edge(self, src: str, dst: str, label: str, param: bool) -> None:
        key = (src, dst, label)
        self.edges[key] = self.edges.get(key, False) or param

    def add_clusters_for_subworkflows(self) -> None:
        ctx = self.ctx
        for wf in iter_blocks(ctx.focus):
            if not wf.is_workflow or wf is ctx.focus:
                continue
            parent = ctx.index.parents[wf.qualified_name]
            self.clusters[wf.qualified_name] = _ClusterDef(
                wf.qualified_name,
                wf.name,
                None if parent == ctx.focus.qualified_name else parent,
                ctx.anchor(wf.file, wf.span[0], "cluster_" + wf.qualified_name),
            )

    def emit(self, rankdir: str) -> str:
        lines = [
            f"digraph {_q(self.ctx.focus.qualified_name)} {{",
            f"  rankdir={_q(rankdir)}",
        ]
        by_cluster: dict[str | None, list] = {}
        for node in self.nodes.values():
            by_cluster.setdefault(node.cluster, []).append(node)
        for cluster in self.clusters.values():
            by_cluster.setdefault(cluster.parent, []).append(cluster)

        def emit_level(owner: str | None, indent: str) -> None:
            for item in sorted(by_cluster.get(owner, []), key=lambda x: x.anchor):
                if isinstance(item, _ClusterDef):
                    lines.append(f"{indent}subgraph {_q('cluster_' + item.qname)} {{")
                    lines.append(f"{indent}  label={_q(item.label)}")
                    emit_level(item.qname, indent + "  ")
                    lines.append(f"{indent}}}")
                else:
                    rendered = ", ".join(f"{k}={_q(v)}" for k, v in item.attrs)
                    lines.append(f"{indent}{_q(item.id)} [{rendered}]")

        emit_level(None, "  ")
        style = self.ctx.style
        for (src, dst, label), param in sorted(self.edges.items()):
            attrs: list[tuple[str, str]] = []
            if label:
                attrs.append(("label", label))
            if param and self.ctx.de_emphasize_params:
                attrs.append(("style", style["param.edge.style"]))
                attrs.append(("color", style["param.edge.color"]))
            if attrs:
                rendered = ", ".join(f"{k}={_q(v)}" for k, v in attrs)
                lines.append(f"  {_q(src)} -> {_q(dst)} [{rendered}]")
            else:
                lines.append(f"  {_q(src)} -> {_q(dst)}")
        lines.append("}")
        return "\n".join(lines) + "\n"


class _Ctx:
    def __init__(self, model: WorkflowModel, options: RenderOptions, style: dict) -> None:
        self.model = model
        self.style = style
        self.nested = options.nested
        self.de_emphasize_params = options.de_emphasize_params
        self.index = ModelIndex(model)
        focus_q = options.focus or model.root.qualified_name
        focus = self.index.blocks.get(focus_q)
        if focus is None or not focus.is_workflow:
            raise UnknownFocus(f"{focus_q!r} does not name a workflow")
        self.focus = focus
        self.file_idx = {path: i for i, path in enumerate(model.source_files)}

    def anchor(self, file: str, line: int, node_id: str) -> tuple:
        return (self.file_idx.get(file, len(self.file_idx)), line, node_id)

    def in_subtree(self, scope_q: str) -> bool:
        focus_q = self.focus.qualified_name
        return scope_q == focus_q or scope_q.startswith(focus_q + ".")

    def scoped_channels(self) -> list[Channel]:
        """Channels drawn by the current options: focus scope, or its subtree."""
        if self.nested:
            return [ch for ch in self.model.channels if self.in_subtree(ch.scope)]
        return [ch for ch in self.model.channels if ch.scope == self.focus.qualified_name]

    def drawn_blocks(self) -> list[Block]:
        """Blocks that appear as boxes: children of focus, or subtree programs."""
        if self.nested:
            return [b for b in iter_blocks(self.focus) if not b.is_workflow]
        return list(self.focus.children)

    def cluster_of(self, block_q: str) -> str | None:
        if not self.nested:
            return None
        parent = self.index.parents[block_q]
        return None if parent == self.focus.qualified_name or parent is None else parent


def _block_node(ctx: _Ctx, sheet: _Sheet, block: Block) -> str:
    node_id = block.qualified_name
    if node_id in sheet.nodes:
        return node_id
    sheet.add_node(
        _Node(
            node_id,
            (("shape", ctx.style["shape.program"]), ("label", block.name)),
            ctx.anchor(block.file, block.span[0], node_id),
            ctx.cluster_of(block.qualified_name),
        )
    )
    return node_id


def _terminal_node(ctx: _Ctx, sheet: _Sheet, owner_q: str, port: Port) -> str:
    kind = port.direction.value
    node_id = f"port:{kind}:{owner_q}:{port.name}"
    shape_key = "shape.input" if port.direction is Direction.IN else "shape.output"
    attrs: list[tuple[str, str]] = [
        ("shape", ctx.style[shape_key]),
        ("label", port.name),
    ]
    if port.role is Role.PARAMETER and ctx.de_emphasize_params:
        attrs.append(("color", ctx.style["param.node.color"]))
        attrs.append(("fontcolor", ctx.style["param.node.fontcolor"]))
    cluster = None
    if ctx.nested and owner_q != ctx.focus.qualified_name:
        cluster = owner_q
    sheet.add_node(
        _Node(node_id, tuple(attrs), ctx.anchor(port.file, port.line, node_id), cluster)
    )
    return node_id


# -- process view -----------------------------------------------------------

def _resolve(ctx: _Ctx, sheet: _Sheet, ch: Channel, writers: bool) -> set[str]:
    """Nodes for the blocks that write (or read) ``ch``, through boundaries.

    Each boundary endpoint leads to the channel on its far side; a boundary
    of the focus itself, or one with nothing beyond it, is a terminal node.
    """
    index = ctx.index
    found: set[str] = set()
    focus_q = ctx.focus.qualified_name
    seen = {(ch.scope, ch.data)}
    todo = [ch]
    while todo:
        ch = todo.pop()
        for end in (ch.source,) if writers else ch.sinks:
            if end.block in index.programs:
                found.add(_block_node(ctx, sheet, index.blocks[end.block]))
                continue
            far = None if end.block == focus_q else index.across(ch, end)
            if far is None or (far.scope, far.data) in seen:
                port = index.ports[(end.block, ch.data, end.direction)]
                found.add(_terminal_node(ctx, sheet, end.block, port))
            else:
                seen.add((far.scope, far.data))
                todo.append(far)
    return found


def _flat_end(ctx: _Ctx, sheet: _Sheet, ch: Channel, end: Endpoint) -> str:
    """A focus-scope channel end: the child block, or the focus's own port."""
    if end.block != ctx.focus.qualified_name:
        return end.block
    port = ctx.index.ports[(end.block, ch.data, end.direction)]
    return _terminal_node(ctx, sheet, end.block, port)


def render_process_view(
    model: WorkflowModel,
    options: RenderOptions | None = None,
    style: dict[str, str] | None = None,
) -> str:
    options = _with_view(options, "process")
    ctx = _Ctx(model, options, style or DEFAULT_STYLE)
    sheet = _Sheet(ctx)
    if ctx.nested:
        sheet.add_clusters_for_subworkflows()
    for block in ctx.drawn_blocks():
        _block_node(ctx, sheet, block)
    for port in ctx.focus.ports:
        _terminal_node(ctx, sheet, ctx.focus.qualified_name, port)
    for ch in ctx.scoped_channels():
        if not ctx.nested:
            sources = {_flat_end(ctx, sheet, ch, ch.source)}
            sinks = {_flat_end(ctx, sheet, ch, sink) for sink in ch.sinks}
        else:
            sources = _resolve(ctx, sheet, ch, writers=True)
            sinks = _resolve(ctx, sheet, ch, writers=False)
        param = ch.role is Role.PARAMETER
        for src in sources:
            for dst in sinks:
                sheet.add_edge(src, dst, ch.data, param)
    return sheet.emit(options.rankdir)


# -- data grouping (shared by data and combined views) ------------------------

@dataclass
class _DataGroup:
    name: str
    keys: set = field(default_factory=set)
    param: bool = False

    rep_scope: str = ""


def _data_groups(ctx: _Ctx) -> dict[tuple[str, str], _DataGroup]:
    """Map every in-scope (scope, data-name) key to its display group.

    Non-nested: one group per focus-scope name. Nested: groups across the
    focus subtree, with keys on either side of a workflow boundary merged
    when a channel actually crosses it; the display scope is the outermost
    member.
    """
    focus_q = ctx.focus.qualified_name
    keys: set[tuple[str, str]] = set()
    for ch in ctx.scoped_channels():
        keys.add((ch.scope, ch.data))
    for port in ctx.focus.ports:
        keys.add((focus_q, port.name))

    parent_of: dict[tuple[str, str], tuple[str, str]] = {k: k for k in keys}

    def find(k: tuple[str, str]) -> tuple[str, str]:
        while parent_of[k] != k:
            parent_of[k] = parent_of[parent_of[k]]
            k = parent_of[k]
        return k

    def union(a: tuple[str, str], b: tuple[str, str]) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent_of[ra] = rb

    if ctx.nested:
        # Merge only where a channel crosses a boundary port of its own
        # scope; a same-named channel one scope up is not enough.
        for ch in ctx.scoped_channels():
            if ch.scope == focus_q:
                continue
            for end in (ch.source, *ch.sinks):
                if end.block == ch.scope:
                    far = ctx.index.across(ch, end)
                    if far is not None:
                        union((ch.scope, ch.data), (far.scope, far.data))

    groups: dict[tuple[str, str], _DataGroup] = {}
    for key in keys:
        root_key = find(key)
        group = groups.get(root_key)
        if group is None:
            group = _DataGroup(name=key[1])
            groups[root_key] = group
        group.keys.add(key)
    for group in groups.values():
        group.rep_scope = min(
            (scope for scope, _ in group.keys),
            key=lambda s: (s.count("."), s),
        )
        for key in group.keys:
            ch = ctx.index.chan.get(key)
            if ch is not None and ch.role is Role.PARAMETER:
                group.param = True
        if not group.param:
            for port in ctx.focus.ports:
                if (focus_q, port.name) in group.keys and port.role is Role.PARAMETER:
                    group.param = True
    return {key: groups[find(key)] for key in keys}


def _data_node(ctx: _Ctx, sheet: _Sheet, group: _DataGroup) -> str:
    node_id = f"data:{group.rep_scope}:{group.name}"
    attrs: list[tuple[str, str]] = [
        ("shape", ctx.style["shape.data"]),
        ("label", group.name),
    ]
    if group.param and ctx.de_emphasize_params:
        attrs.append(("color", ctx.style["param.node.color"]))
        attrs.append(("fontcolor", ctx.style["param.node.fontcolor"]))
    anchors = []
    for scope, name in group.keys:
        ch = ctx.index.chan.get((scope, name))
        if ch is not None:
            for endpoint in [ch.source, *ch.sinks]:
                port = ctx.index.ports[(endpoint.block, name, endpoint.direction)]
                anchors.append(ctx.anchor(port.file, port.line, node_id))
        if scope == ctx.focus.qualified_name:
            for port in ctx.focus.ports:
                if port.name == name:
                    anchors.append(ctx.anchor(port.file, port.line, node_id))
    cluster = None
    if ctx.nested and group.rep_scope != ctx.focus.qualified_name:
        cluster = group.rep_scope
    sheet.add_node(_Node(node_id, tuple(attrs), min(anchors), cluster))
    return node_id


def _block_flows(
    ctx: _Ctx, groups: dict[tuple[str, str], _DataGroup], block: Block
) -> tuple[list[_DataGroup], list[_DataGroup]]:
    """The data groups a drawn block reads and writes, per its scope channels."""
    scope = ctx.index.parents[block.qualified_name]
    reads: list[_DataGroup] = []
    writes: list[_DataGroup] = []
    seen_read: set[int] = set()
    seen_write: set[int] = set()
    for port in block.ports:
        key = (scope, port.name)
        if key not in ctx.index.chan:
            continue
        group = groups[key]
        if port.direction is Direction.IN:
            if id(group) not in seen_read:
                seen_read.add(id(group))
                reads.append(group)
        elif id(group) not in seen_write:
            seen_write.add(id(group))
            writes.append(group)
    return reads, writes


def render_data_view(
    model: WorkflowModel,
    options: RenderOptions | None = None,
    style: dict[str, str] | None = None,
) -> str:
    options = _with_view(options, "data")
    ctx = _Ctx(model, options, style or DEFAULT_STYLE)
    sheet = _Sheet(ctx)
    if ctx.nested:
        sheet.add_clusters_for_subworkflows()
    groups = _data_groups(ctx)
    for group in groups.values():
        _data_node(ctx, sheet, group)
    for block in ctx.drawn_blocks():
        reads, writes = _block_flows(ctx, groups, block)
        for read in reads:
            for write in writes:
                sheet.add_edge(
                    f"data:{read.rep_scope}:{read.name}",
                    f"data:{write.rep_scope}:{write.name}",
                    block.name,
                    read.param,
                )
    return sheet.emit(options.rankdir)


def render_combined_view(
    model: WorkflowModel,
    options: RenderOptions | None = None,
    style: dict[str, str] | None = None,
) -> str:
    options = _with_view(options, "combined")
    ctx = _Ctx(model, options, style or DEFAULT_STYLE)
    sheet = _Sheet(ctx)
    if ctx.nested:
        sheet.add_clusters_for_subworkflows()
    groups = _data_groups(ctx)
    for group in groups.values():
        _data_node(ctx, sheet, group)
    for block in ctx.drawn_blocks():
        node_id = _block_node(ctx, sheet, block)
        reads, writes = _block_flows(ctx, groups, block)
        for read in reads:
            sheet.add_edge(f"data:{read.rep_scope}:{read.name}", node_id, "", read.param)
        for write in writes:
            sheet.add_edge(node_id, f"data:{write.rep_scope}:{write.name}", "", write.param)
    return sheet.emit(options.rankdir)


_VIEW_RENDERERS = {
    "process": render_process_view,
    "data": render_data_view,
    "combined": render_combined_view,
}


def _with_view(options: RenderOptions | None, view: str) -> RenderOptions:
    if options is None:
        options = RenderOptions(view=view)
    if options.view != view:
        options = RenderOptions(
            view,
            options.rankdir,
            options.focus,
            options.nested,
            options.de_emphasize_params,
        )
    if options.rankdir not in RANKDIRS:
        raise ValueError(f"rankdir must be one of {RANKDIRS}, got {options.rankdir!r}")
    return options


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
