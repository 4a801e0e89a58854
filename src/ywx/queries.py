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
shares them. The graph's pass-through edges take one
``ModelIndex.across`` lookup per channel end, and a step's input sources
read the writer ``ModelIndex.writer`` resolves through the boundaries.
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
    order, where it is first met: a boundary's pass-through edge is met from
    the channels on both of its sides. No reader depends on the order of
    an adjacency list; ``derivation`` orders its steps by node key.
    """
    index = ModelIndex(model)
    nodes: set[NodeKey] = {("block", q) for q in index.programs}
    for port in model.root.ports:
        nodes.add(("data", index.root_q, port.name))
    seen: set[tuple[NodeKey, NodeKey]] = set()
    forward: dict[NodeKey, list[NodeKey]] = {}
    reverse: dict[NodeKey, list[NodeKey]] = {}
    for ch in model.channels:
        dnode = ("data", ch.scope, ch.data)
        nodes.add(dnode)
        for end in (ch.source, *ch.sinks):
            if end.block in index.programs:
                other = ("block", end.block)
            else:
                far = index.across(ch, end)
                if far is None:
                    continue
                other = ("data", far.scope, far.data)
            edge = (other, dnode) if end is ch.source else (dnode, other)
            if edge not in seen:
                seen.add(edge)
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


def _require_root_data(index: ModelIndex, name: str) -> NodeKey:
    if name not in index.data_names_at_root:
        raise UnknownName(f"{name!r} is not a data name of the top-level workflow")
    return ("data", index.root_q, name)


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
    block_q = _resolve_block(graph.index, block_name).qualified_name
    out_of = Direction.OUT
    start = {
        ("data", ch.scope, ch.data)
        for ch in model.channels
        if ch.source.block == block_q and ch.source.direction is out_of
    }
    return {n[1] for n in graph.reachable(start) if n[0] == "block"}


def blocks_affected_by_input(model: WorkflowModel, input_name: str) -> set[str]:
    graph = build_dependency_graph(model)
    index = graph.index
    if input_name not in index.root_input_names:
        raise UnknownName(
            f"{input_name!r} is not an input of the top-level workflow"
        )
    start = {("data", index.root_q, input_name)}
    return {n[1] for n in graph.reachable(start) if n[0] == "block"}


def upstream_inputs(model: WorkflowModel, output_name: str) -> set[str]:
    graph = build_dependency_graph(model)
    return _upstream_inputs(graph, {_require_root_data(graph.index, output_name)})


def _upstream_inputs(graph: DependencyGraph, targets: set[NodeKey]) -> set[str]:
    """The root inputs that any of the target nodes depends on."""
    index = graph.index
    seen = graph.reachable(targets, "reverse")
    return {
        name
        for name in index.root_input_names
        if ("data", index.root_q, name) in seen
    }


def deriving_blocks(model: WorkflowModel, data_name: str) -> set[str]:
    graph = build_dependency_graph(model)
    target = _require_root_data(graph.index, data_name)
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
    target = _require_root_data(index, output_name)
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

    steps: list[Step] = []
    for node in order:
        if node[0] != "data":
            continue
        producer = None
        for prev in graph.reverse.get(node, ()):
            if prev[0] == "block" and prev in involved:
                producer = index.blocks[prev[1]]
                break
        if producer is None:
            continue
        consumed = tuple(sorted(p.name for p in index.bound_inputs(producer)))
        steps.append(Step(producer.qualified_name, consumed, node[2]))
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
    target = ("data", graph.index.root_q, output_name)
    if target not in graph.nodes:
        raise UnknownName(f"{output_name!r} is not a data name of the top-level workflow")
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
        if scope == index.root_q and name in index.root_input_names:
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
    every root output derived from it. Either way the answer is only trusted
    when the dependency chains involved are complete, otherwise the
    annotations cannot settle the question and AmbiguousLineage is raised.

    The call builds one dependency graph. Upstream lineage walks it backwards
    once from all resolved outputs; downstream lineage walks it forwards once
    from all resolved inputs, and an output qualifies when that walk reaches
    it. The chain check scans every chain involved in one pass as well.
    """
    if direction not in ("upstream", "downstream"):
        raise ValueError(f"direction must be upstream or downstream, got {direction!r}")
    graph = build_dependency_graph(model)
    index = graph.index
    role_of = {p.name: p.role.value for p in model.root.ports}

    if name in index.root_port_names:
        port_names = {name}
    else:
        port_names = {
            bound: None for bound, files in manifest.bindings.items() if name in files
        }.keys()
        if not port_names:
            raise UnknownName(
                f"{name!r} is neither a top-level port nor a file in the manifest"
            )

    if direction == "upstream":
        outputs = {n for n in port_names if n in index.root_output_names}
        if not outputs:
            raise UnknownName(f"{name!r} does not resolve to a workflow output")
        _require_complete_chains(graph, sorted(outputs))
        reached = _upstream_inputs(graph, {("data", index.root_q, n) for n in outputs})
    else:
        inputs = {n for n in port_names if n in index.root_input_names}
        if not inputs:
            raise UnknownName(f"{name!r} does not resolve to a workflow input")
        _require_complete_chains(graph, sorted(index.root_output_names))
        downstream = graph.reachable({("data", index.root_q, n) for n in inputs})
        reached = {
            output
            for output in index.root_output_names
            if ("data", index.root_q, output) in downstream
        }
    records = {
        LineageRecord(path, port, role_of[port])
        for port in reached
        for path in manifest.bindings.get(port, ())
    }
    return sorted(records, key=lambda r: (r.file, r.port))


def _require_complete_chains(graph: DependencyGraph, outputs: list[str]) -> None:
    """Raise AmbiguousLineage naming the first output whose chain is broken."""
    broken = next(_broken_chains(graph, outputs), None)
    if broken is not None:
        raise AmbiguousLineage(
            f"dependency chain behind output {broken[0]!r} has unbound ports"
        )
