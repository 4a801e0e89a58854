"""Structure and provenance queries over a workflow model.

Reachability questions run over a dependency graph whose nodes are program
blocks and per-scope data items. Programs connect to the data they read and
write; workflow boundaries contribute data-to-data pass-through edges where
a channel on one side actually meets the re-declared name on the other.
Names in query arguments resolve at the root scope: data names must name a
root-scope channel or a root port, block names may be qualified or, when
unambiguous, simple.

Each query call builds one lookup index, the shared ``ModelIndex``, and one
dependency graph, which carries the index, and every step of the call
shares them. The graph's nodes are the root data names a query resolves;
its pass-through edges take one ``ModelIndex.across`` lookup per crossing,
not per channel end. A step's input sources read the writer
``ModelIndex.writer`` resolves through the boundaries.
Questions asked about many root outputs at once walk the graph once for all
of them: downstream lineage is a single forward pass from the resolved
inputs, and the completeness check behind lineage and YW020 scans the union
of all chains, walking output by output only to report which chain is
broken.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Iterator, Sequence

from .annotations import _check_unicode, _decode_json
from .errors import (
    AmbiguousLineage,
    CyclicDerivation,
    MalformedManifest,
    UnknownName,
)
from .model import (
    Block,
    Direction,
    ModelIndex,
    Port,
    WorkflowModel,
    iter_blocks,
)

# Node keys: ("block", qualified_name) for programs,
# ("data", scope_qualified_name, data_name) for per-scope data items.
NodeKey = tuple


@dataclass(frozen=True)
class DependencyGraph:
    nodes: frozenset
    forward: dict
    reverse: dict
    index: ModelIndex = field(repr=False, compare=False)

    def reachable(self, start: set, direction: str = "forward") -> set:
        adjacency = self.forward if direction == "forward" else self.reverse
        seen = set(start) & self.nodes
        queue = deque(seen)
        while queue:
            node = queue.popleft()
            for nxt in adjacency.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return seen


def build_dependency_graph(model: WorkflowModel) -> DependencyGraph:
    """The dependency graph of ``model``, with its ``ModelIndex``.

    Each edge is added to ``forward`` and ``reverse`` once, in channel
    order. A boundary's pass-through edge is added from its inner side only,
    at an end on the channel's own scope, as ``across`` makes it the far
    channel's matching end. No reader depends on the order of an adjacency
    list; ``derivation`` orders its steps by node key.
    """
    index = ModelIndex(model)
    nodes: set[NodeKey] = {("block", q) for q in index.programs}
    for port in model.root.ports:
        nodes.add(("data", index.root_q, port.name))
    forward: dict[NodeKey, list[NodeKey]] = {}
    reverse: dict[NodeKey, list[NodeKey]] = {}
    for ch in model.channels:
        dnode = ("data", ch.scope, ch.data)
        nodes.add(dnode)
        for end in (ch.source, *ch.sinks):
            if end.block in index.programs:
                other = ("block", end.block)
            elif end.block != ch.scope or (far := index.across(ch, end)) is None:
                continue  # a child workflow's crossing is added from inside it
            else:
                other = ("data", far.scope, far.data)
            edge = (other, dnode) if end is ch.source else (dnode, other)
            forward.setdefault(edge[0], []).append(edge[1])
            reverse.setdefault(edge[1], []).append(edge[0])
    return DependencyGraph(frozenset(nodes), forward, reverse, index)


# -- name resolution ----------------------------------------------------------

def _resolve_block(index: ModelIndex, name: str) -> Block:
    block = index.blocks.get(name)
    if block is not None:
        return block
    matches = [b for b in index.blocks.values() if b.name == name]
    if len(matches) == 1:
        return matches[0]
    if matches:
        options = ", ".join(sorted(b.qualified_name for b in matches))
        raise UnknownName(f"block name {name!r} is ambiguous ({options})")
    raise UnknownName(f"no block named {name!r}")


def _require_root_data(graph: DependencyGraph, name: str) -> NodeKey:
    node = ("data", graph.index.root_q, name)
    if node not in graph.nodes:
        raise UnknownName(f"{name!r} is not a data name of the top-level workflow")
    return node


def _root_ports(index: ModelIndex, direction: Direction) -> list[str]:
    """The names of the root block's ports in one direction, in order."""
    return [p.name for p in index.blocks[index.root_q].ports if p.direction is direction]


# -- structure queries --------------------------------------------------------

def list_blocks(model: WorkflowModel) -> list[tuple[str, str | None]]:
    """Every declared block in pre-order, excluding the root workflow itself."""
    return [
        (b.qualified_name, b.description)
        for b in iter_blocks(model.root)
        if b is not model.root
    ]


def nested_blocks(model: WorkflowModel, block_name: str) -> list[str]:
    block = _resolve_block(ModelIndex(model), block_name)
    return [b.qualified_name for b in iter_blocks(block) if b is not block]


def containing_blocks(model: WorkflowModel, block_name: str) -> list[str]:
    index = ModelIndex(model)
    block = _resolve_block(index, block_name)
    chain = []
    current = index.parents[block.qualified_name]
    while current is not None:
        chain.append(current)
        current = index.parents[current]
    return chain


# -- reachability queries ------------------------------------------------------

def downstream_blocks(model: WorkflowModel, block_name: str) -> set[str]:
    graph = build_dependency_graph(model)
    block = _resolve_block(graph.index, block_name)
    scope = graph.index.parents[block.qualified_name]
    start = {("data", scope, p.name) for p in block.ports if p.direction is Direction.OUT}
    return {n[1] for n in graph.reachable(start) if n[0] == "block"}


def blocks_affected_by_input(model: WorkflowModel, input_name: str) -> set[str]:
    graph = build_dependency_graph(model)
    root_q = graph.index.root_q
    if (root_q, input_name, Direction.IN) not in graph.index.ports:
        raise UnknownName(f"{input_name!r} is not an input of the top-level workflow")
    start = {("data", root_q, input_name)}
    return {n[1] for n in graph.reachable(start) if n[0] == "block"}


def upstream_inputs(model: WorkflowModel, output_name: str) -> set[str]:
    graph = build_dependency_graph(model)
    return {p.name for p in _reached_root_ports(graph, [output_name], Direction.IN)}


def _reached_root_ports(
    graph: DependencyGraph, names: Sequence[str], towards: Direction
) -> list[Port]:
    """The root ports of direction ``towards`` that a walk from the named root
    data nodes reaches: backwards to the inputs, forwards to the outputs."""
    root_q = graph.index.root_q
    walk = "reverse" if towards is Direction.IN else "forward"
    seen = graph.reachable({_require_root_data(graph, n) for n in names}, walk)
    ports = graph.index.blocks[root_q].ports
    return [p for p in ports if p.direction is towards and ("data", root_q, p.name) in seen]


def deriving_blocks(model: WorkflowModel, data_name: str) -> set[str]:
    graph = build_dependency_graph(model)
    target = _require_root_data(graph, data_name)
    return {n[1] for n in graph.reachable({target}, "reverse") if n[0] == "block"}


# -- step sources ---------------------------------------------------------------

@dataclass(frozen=True)
class PortSource:
    port: str
    kind: str  # "script-input" | "produced-by" | "unbound"
    block: str | None = None


def step_input_sources(model: WorkflowModel, block_name: str) -> list[PortSource]:
    """Classify where each input of a block comes from.

    A port is a script input when the chain of same-named workflow boundary
    ports reaches the root workflow's own inputs; produced-by names the
    program whose output feeds it, looking through boundaries; unbound means
    no channel supplies it, which covers values the surrounding code computes
    without annotation.
    """
    index = ModelIndex(model)
    block = _resolve_block(index, block_name)
    into = Direction.IN
    return [_port_source(index, block, port) for port in block.ports if port.direction is into]


def _port_source(index: ModelIndex, block: Block, port: Port) -> PortSource:
    """Classify one in port by the end that really writes its channel."""
    if block.qualified_name == index.root_q:
        return PortSource(port.name, "script-input")
    ch = index.chan.get((index.parents[block.qualified_name], port.name))
    writer = None if ch is None else index.writer(ch, index.root_q).block
    if writer in index.programs:
        return PortSource(port.name, "produced-by", writer)
    if writer == index.root_q:
        return PortSource(port.name, "script-input")
    return PortSource(port.name, "unbound")


# -- derivations ----------------------------------------------------------------

@dataclass(frozen=True)
class Step:
    block: str
    consumed: tuple[str, ...]
    produced: str


@dataclass(frozen=True)
class Derivation:
    target: str
    steps: tuple[Step, ...]


def derivation(model: WorkflowModel, output_name: str) -> Derivation:
    """Topologically ordered producing steps behind one root-scope data name."""
    graph = build_dependency_graph(model)
    index = graph.index
    target = _require_root_data(graph, output_name)
    involved = graph.reachable({target}, "reverse")

    indegree = {node: 0 for node in involved}
    for node in involved:
        for nxt in graph.forward.get(node, ()):
            if nxt in involved:
                indegree[nxt] += 1
    ready: list[NodeKey] = []
    for node, degree in indegree.items():
        if degree == 0:
            heappush(ready, node)
    order: list[NodeKey] = []
    while ready:
        node = heappop(ready)
        order.append(node)
        for nxt in graph.forward.get(node, ()):
            if nxt in involved:
                indegree[nxt] -= 1
                if indegree[nxt] == 0:
                    heappush(ready, nxt)
    if len(order) < len(involved):
        raise CyclicDerivation(
            f"derivation of {output_name!r} passes through a feedback loop"
        )

    into = Direction.IN
    steps: list[Step] = []
    for node in order:  # a data node's one predecessor is its writer
        for prev in graph.reverse.get(node, ()):
            if prev[0] == "block":  # a program's predecessors are all data
                block_q = prev[1]
                inputs = [p for p in index.blocks[block_q].ports if p.direction is into]
                consumed = sorted(p.name for p in inputs if index.is_bound(block_q, p))
                steps.append(Step(block_q, tuple(consumed), node[2]))
    return Derivation(output_name, tuple(steps))


# -- dependency-chain completeness ------------------------------------------------

@dataclass(frozen=True)
class UnboundRef:
    block: str
    port: Port


def _chain_defects(graph: DependencyGraph, output_name: str) -> tuple[UnboundRef, ...]:
    """Every unbound port or one-sided boundary behind one root output; an
    empty result means each backward path ends at a root input or at a block
    with no unbound inputs, so the chain is complete."""
    target = _require_root_data(graph, output_name)
    return _defects(graph, graph.reachable({target}, "reverse"))


def _broken_chains(
    graph: DependencyGraph, outputs: Sequence[str]
) -> Iterator[tuple[str, tuple[UnboundRef, ...]]]:
    """Each root output whose chain has defects, with them, in the given order.

    Whether a node is a defect does not depend on which output's walk reached
    it, so the defects behind all outputs together are the union of each
    output's. One scan over that union settles the common case, every chain
    complete; only a broken model pays for the walk output by output.
    """
    root_q = graph.index.root_q
    behind_all = graph.reachable({("data", root_q, name) for name in outputs}, "reverse")
    if not _defects(graph, behind_all):
        return
    for output in outputs:
        refs = _chain_defects(graph, output)
        if refs:
            yield output, refs


def _defects(graph: DependencyGraph, involved: set[NodeKey]) -> tuple[UnboundRef, ...]:
    """The unbound ports and one-sided boundaries among the involved nodes."""
    index = graph.index
    into, out_of = Direction.IN, Direction.OUT  # read once: see model._scope_channels
    defects: list[UnboundRef] = []
    seen: set[tuple[str, str, Direction]] = set()

    def blame(owner_q: str, name: str, direction: Direction) -> None:
        key = (owner_q, name, direction)
        port = index.ports.get(key)
        if port is not None and key not in seen:
            seen.add(key)
            defects.append(UnboundRef(owner_q, port))

    for node in involved:
        if node[0] == "block":
            block_q = node[1]
            for port in index.blocks[block_q].ports:
                if port.direction is into and not index.is_bound(block_q, port):
                    blame(block_q, port.name, into)
            continue
        _, scope, name = node
        if graph.reverse.get(node):
            continue
        if scope == index.root_q and (scope, name, into) in index.ports:
            continue  # a script input: the chain legitimately starts here
        ch = index.chan.get((scope, name))
        if ch is None:  # a root output that nothing writes
            blame(scope, name, out_of)
        else:  # a program would be an edge: a boundary with nothing beyond
            blame(ch.source.block, name, ch.source.direction)
    ordered = sorted(
        defects,
        key=lambda ref: (ref.port.file, ref.port.line, ref.block, ref.port.name),
    )
    return tuple(ordered)


# -- run manifests and file lineage ------------------------------------------------

@dataclass(frozen=True)
class RunManifest:
    run_id: str
    bindings: dict[str, tuple[str, ...]] = field(default_factory=dict)


def parse_manifest(text: str, model: WorkflowModel) -> RunManifest:
    payload = _decode_json(text, MalformedManifest)
    _check_unicode(text, payload, MalformedManifest)
    if not isinstance(payload, dict):
        raise MalformedManifest("manifest must be a JSON object")
    run_id = payload.get("run_id", "")
    if not isinstance(run_id, str):
        raise MalformedManifest("'run_id' must be a string")
    raw = payload.get("bindings")
    if not isinstance(raw, dict):
        raise MalformedManifest("'bindings' must be an object")
    root_names = {p.name for p in model.root.ports}
    bindings: dict[str, tuple[str, ...]] = {}
    for name, files in raw.items():
        if name not in root_names:
            raise MalformedManifest(
                f"binding {name!r} does not name a top-level workflow port"
            )
        if not (isinstance(files, list) and all(isinstance(f, str) for f in files)):
            raise MalformedManifest(f"binding {name!r} must list file paths")
        bindings[name] = tuple(files)
    return RunManifest(run_id, bindings)


@dataclass(frozen=True)
class LineageRecord:
    file: str
    port: str
    role: str  # "data" | "parameter"


def infer_file_lineage(
    model: WorkflowModel,
    manifest: RunManifest,
    direction: str,
    name: str,
) -> list[LineageRecord]:
    """Map one port or file to the files up- or downstream of it in a run.

    Upstream lineage of an output lists the files bound to every root input
    it depends on; downstream lineage of an input lists the files bound to
    every root output derived from it. Each record carries the role of the
    root port it was reached through. Either way the answer is only trusted
    when the dependency chains involved are complete, otherwise the
    annotations cannot settle the question and AmbiguousLineage is raised.

    The call builds one dependency graph and walks it once, from all the
    resolved root ports together: backwards from outputs, forwards from
    inputs. The chain check scans every chain involved in one pass as well.
    """
    if direction == "upstream":
        start, towards, kind = Direction.OUT, Direction.IN, "output"
    elif direction == "downstream":
        start, towards, kind = Direction.IN, Direction.OUT, "input"
    else:
        raise ValueError(f"direction must be upstream or downstream, got {direction!r}")
    graph = build_dependency_graph(model)
    if any(p.name == name for p in model.root.ports):
        port_names = {name}
    else:
        port_names = {bound for bound, files in manifest.bindings.items() if name in files}
        if not port_names:
            raise UnknownName(
                f"{name!r} is neither a top-level port nor a file in the manifest"
            )

    starts = [p.name for p in model.root.ports if p.direction is start and p.name in port_names]
    if not starts:
        raise UnknownName(f"{name!r} does not resolve to a workflow {kind}")
    outputs = starts if start is Direction.OUT else _root_ports(graph.index, Direction.OUT)
    _require_complete_chains(graph, sorted(outputs))
    records = {
        LineageRecord(path, port.name, port.role.value)
        for port in _reached_root_ports(graph, starts, towards)
        for path in manifest.bindings.get(port.name, ())
    }
    return sorted(records, key=lambda r: (r.file, r.port))


def _require_complete_chains(graph: DependencyGraph, outputs: list[str]) -> None:
    """Raise AmbiguousLineage naming the first output whose chain is broken."""
    broken = next(_broken_chains(graph, outputs), None)
    if broken is not None:
        raise AmbiguousLineage(
            f"dependency chain behind output {broken[0]!r} has unbound ports"
        )
