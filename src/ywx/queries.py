"""Structure and provenance queries over a workflow model.

Reachability questions run over a dependency graph whose nodes are program
blocks and per-scope data items. Programs connect to the data they read and
write; workflow boundaries contribute data-to-data pass-through edges where
a channel on one side actually meets the re-declared name on the other.
Names in query arguments resolve at the root scope: data names must name a
root-scope channel or a root port, block names may be qualified or, when
unambiguous, simple.

Each query call builds one lookup index and one dependency graph, which the
graph carries, and every step of the call shares them. Questions asked about
many root outputs at once walk the graph once for all of them: downstream
lineage is a single forward pass from the resolved inputs, and the
completeness check behind lineage and YW020 scans the union of all chains,
walking output by output only to report which chain is broken.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Iterator, Sequence

from .errors import (
    AmbiguousLineage,
    CyclicDerivation,
    MalformedManifest,
    UnknownName,
)
from .model import (
    Block,
    Channel,
    Direction,
    Endpoint,
    Port,
    Role,
    WorkflowModel,
    iter_blocks,
    parent_map,
)

# Node keys: ("block", qualified_name) for programs,
# ("data", scope_qualified_name, data_name) for per-scope data items.
NodeKey = tuple


class _Index:
    """Lookup tables shared by the queries; built once per query call.

    A query that needs the dependency graph takes the index the graph was
    built with, ``DependencyGraph.index``, instead of building another.
    """

    def __init__(self, model: WorkflowModel) -> None:
        self.model = model
        self.root_q = model.root.qualified_name
        self.blocks = {b.qualified_name: b for b in iter_blocks(model.root)}
        self.parents = parent_map(model.root)
        self.chan: dict[tuple[str, str], Channel] = {
            (ch.scope, ch.data): ch for ch in model.channels
        }
        root_ports = model.root.ports
        self.root_port_names = {p.name for p in root_ports}
        self.root_input_names = {
            p.name for p in root_ports if p.direction is Direction.IN
        }
        self.root_output_names = {
            p.name for p in root_ports if p.direction is Direction.OUT
        }
        self.data_names_at_root = {
            ch.data for ch in model.channels if ch.scope == self.root_q
        } | self.root_port_names

    def is_program(self, qualified_name: str) -> bool:
        return not self.blocks[qualified_name].is_workflow

    def bound_inputs(self, block: Block) -> list[Port]:
        """The block's In/Param ports that a channel actually feeds."""
        scope = self.parents[block.qualified_name]
        bound = []
        for port in block.ports:
            if port.direction is not Direction.IN:
                continue
            ch = self.chan.get((scope, port.name))
            if ch is not None and Endpoint(block.qualified_name, Direction.IN) in ch.sinks:
                bound.append(port)
        return bound


@dataclass(frozen=True)
class DependencyGraph:
    nodes: frozenset
    forward: dict
    reverse: dict
    index: _Index = field(repr=False, compare=False)

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
    index = _Index(model)
    nodes: set[NodeKey] = set()
    edges: set[tuple[NodeKey, NodeKey]] = set()
    for block in iter_blocks(model.root):
        if not block.is_workflow:
            nodes.add(("block", block.qualified_name))
    for port in model.root.ports:
        nodes.add(("data", index.root_q, port.name))
    for ch in model.channels:
        nodes.add(("data", ch.scope, ch.data))

    for ch in model.channels:
        dnode = ("data", ch.scope, ch.data)
        src = ch.source
        if src.block != ch.scope and index.is_program(src.block):
            edges.add((("block", src.block), dnode))
        elif src.block == ch.scope and ch.scope != index.root_q:
            outer = index.chan.get((index.parents[ch.scope], ch.data))
            if outer is not None and Endpoint(ch.scope, Direction.IN) in outer.sinks:
                edges.add((("data", outer.scope, ch.data), dnode))
        elif src.block != ch.scope:  # a child workflow's out port
            inner = index.chan.get((src.block, ch.data))
            if inner is not None and Endpoint(src.block, Direction.OUT) in inner.sinks:
                edges.add((("data", src.block, ch.data), dnode))
        for sink in ch.sinks:
            if sink.block != ch.scope and index.is_program(sink.block):
                edges.add((dnode, ("block", sink.block)))
            elif sink.block == ch.scope and ch.scope != index.root_q:
                outer = index.chan.get((index.parents[ch.scope], ch.data))
                if outer is not None and outer.source == Endpoint(ch.scope, Direction.OUT):
                    edges.add((dnode, ("data", outer.scope, ch.data)))
            elif sink.block != ch.scope:  # a child workflow's in port
                inner = index.chan.get((sink.block, ch.data))
                if inner is not None and inner.source == Endpoint(sink.block, Direction.IN):
                    edges.add((dnode, ("data", sink.block, ch.data)))

    forward: dict[NodeKey, tuple[NodeKey, ...]] = {}
    reverse: dict[NodeKey, tuple[NodeKey, ...]] = {}
    for a, b in sorted(edges):
        forward.setdefault(a, []).append(b)
        reverse.setdefault(b, []).append(a)
    return DependencyGraph(
        frozenset(nodes),
        {k: tuple(v) for k, v in forward.items()},
        {k: tuple(v) for k, v in reverse.items()},
        index,
    )


# -- name resolution ----------------------------------------------------------

def _resolve_block(index: _Index, name: str) -> Block:
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


def _require_root_data(index: _Index, name: str) -> NodeKey:
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
    block = _resolve_block(_Index(model), block_name)
    return [b.qualified_name for b in iter_blocks(block) if b is not block]


def containing_blocks(model: WorkflowModel, block_name: str) -> list[str]:
    index = _Index(model)
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
    start = {
        ("data", ch.scope, ch.data)
        for ch in model.channels
        if ch.source == Endpoint(block.qualified_name, Direction.OUT)
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
    index = _Index(model)
    block = _resolve_block(index, block_name)
    results: list[PortSource] = []

    def trace(ch: Channel, seen: frozenset) -> PortSource:
        src = ch.source
        if src.block == ch.scope:  # the scope workflow's own in port
            if ch.scope == index.root_q:
                return PortSource(ch.data, "script-input")
            key = (index.parents[ch.scope], ch.data)
            outer = index.chan.get(key)
            if outer is None or key in seen or Endpoint(ch.scope, Direction.IN) not in outer.sinks:
                return PortSource(ch.data, "unbound")
            return trace(outer, seen | {key})
        if index.is_program(src.block):
            return PortSource(ch.data, "produced-by", src.block)
        key = (src.block, ch.data)
        inner = index.chan.get(key)
        if inner is None or key in seen or Endpoint(src.block, Direction.OUT) not in inner.sinks:
            return PortSource(ch.data, "unbound")
        return trace(inner, seen | {key})

    for port in block.ports:
        if port.direction is not Direction.IN:
            continue
        if block is model.root:
            results.append(PortSource(port.name, "script-input"))
            continue
        scope = index.parents[block.qualified_name]
        key = (scope, port.name)
        ch = index.chan.get(key)
        if ch is None or Endpoint(block.qualified_name, Direction.IN) not in ch.sinks:
            results.append(PortSource(port.name, "unbound"))
        else:
            source = trace(ch, frozenset({key}))
            results.append(
                PortSource(port.name, source.kind, source.block)
            )
    return results


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


def chain_defects(
    model: WorkflowModel,
    output_name: str,
    graph: DependencyGraph | None = None,
) -> tuple[UnboundRef, ...]:
    """Ports that break the dependency chain behind one root output.

    Walks backwards from the output's data node. A chain is intact when every
    backward path ends at a root input or at a block with no (or only bound)
    inputs. Every unbound port or one-sided workflow boundary that a path runs
    into is returned; an empty result means the chain is complete.
    """
    if graph is None:
        graph = build_dependency_graph(model)
    return _chain_defects(graph, output_name)


def _chain_defects(graph: DependencyGraph, output_name: str) -> tuple[UnboundRef, ...]:
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
    defects: list[UnboundRef] = []
    seen: set[tuple[str, str]] = set()

    def blame(owner_q: str, name: str, direction: Direction) -> None:
        for port in index.blocks[owner_q].ports:
            if port.name == name and port.direction == direction:
                key = (owner_q, name + "/" + direction.value)
                if key not in seen:
                    seen.add(key)
                    defects.append(UnboundRef(owner_q, port))
                return

    for node in involved:
        if node[0] == "block":
            block = index.blocks[node[1]]
            scope = index.parents[block.qualified_name]
            for port in block.ports:
                if port.direction is not Direction.IN:
                    continue
                ch = index.chan.get((scope, port.name))
                if ch is None or Endpoint(block.qualified_name, Direction.IN) not in ch.sinks:
                    blame(block.qualified_name, port.name, Direction.IN)
            continue
        _, scope, name = node
        if graph.reverse.get(node):
            continue
        if scope == index.root_q:
            if name in index.root_input_names:
                continue  # a script input: the chain legitimately starts here
            ch = index.chan.get((scope, name))
            if ch is None:
                blame(scope, name, Direction.OUT)
                continue
        else:
            ch = index.chan.get((scope, name))
        src = ch.source
        if src.block == ch.scope:
            blame(ch.scope, name, Direction.IN)
        elif not index.is_program(src.block):
            blame(src.block, name, Direction.OUT)
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
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedManifest(f"not valid JSON: {exc.msg}", line=exc.lineno) from exc
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
