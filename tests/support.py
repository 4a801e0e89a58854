"""Shared test helpers: model generators, independent oracles, and a
command runner that calls ``cli.run`` in process.

Everything here recomputes expected results from first principles, by direct
search over the generated tree or over a model's channel list, so the tests
never mirror the library's own algorithms. The generators are deterministic
given a seeded random.Random instance.
"""

from __future__ import annotations

import io
import json
import re
import textwrap
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

from ywx import cli
from ywx.annotations import Annotation, AnnotationDocument, parse_annotations
from ywx.comments import LANGUAGES, extract_comments
from ywx.model import Direction, Endpoint, WorkflowModel, build_model


# -- building models from inline sources --------------------------------------

def annotations_from_source(
    text: str, language: str = "python", file: str = "script.py"
) -> list[Annotation]:
    syntax = LANGUAGES[language]
    return parse_annotations(extract_comments(textwrap.dedent(text), syntax, file))


def model_from_source(
    text: str, language: str = "python", file: str = "script.py"
) -> WorkflowModel:
    return build_model(annotations_from_source(text, language, file))


# -- commands, run in process -----------------------------------------------

# Every graph view, flat and nested, and the structural queries that take a
# block or a data name.
VIEWS = [
    ["--view", view, *nested]
    for view in ("process", "data", "combined")
    for nested in ([], ["--nested"])
]
BLOCK_QUERIES = ("nested", "containers", "downstream", "sources")
NAME_QUERIES = ("affected-by", "upstream-inputs", "deriving-blocks", "derivation")


def call(argv):
    """``cli.run(argv)``'s exit status, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


# C passes d through itself and writes it in W: the one place where a walk
# through boundaries can meet a channel it came from.
SELF_FEEDING_SRC = """\
# @begin W
# @begin C @in d @out d
# @begin X @in d @out e
e = x(d)
# @end X
# @end C
# @begin Y @in d @out f
f = y(d)
# @end Y
# @end W
"""


# -- random workflow generator -------------------------------------------------

DATA_POOL = (
    "alpha", "beta", "gamma", "delta", "epsilon", "zeta",
    "eta", "theta", "iota", "kappa", "mu", "sigma",
)
BLOCK_POOL = (
    "load", "clean", "merge", "fit", "score", "rank",
    "plot", "export", "stage", "audit", "bin", "probe",
)


@dataclass
class GenBlock:
    """Ground truth for one generated block."""

    name: str
    ins: list = field(default_factory=list)
    params: list = field(default_factory=list)
    outs: list = field(default_factory=list)
    children: list = field(default_factory=list)
    qname: str = ""
    begin_line: int = 0
    end_line: int = 0

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


def _assign_qnames(block: GenBlock, prefix: str = "") -> None:
    block.qname = f"{prefix}.{block.name}" if prefix else block.name
    for child in block.children:
        _assign_qnames(child, block.qname)


def _sibling_names(rng, count: int) -> list[str]:
    names = list(BLOCK_POOL)
    rng.shuffle(names)
    picked = names[:count]
    while len(picked) < count:
        picked.append(f"step{len(picked)}")
    return picked


class _Budget:
    def __init__(self, limit: int) -> None:
        self.left = limit

    def take(self) -> bool:
        if self.left <= 0:
            return False
        self.left -= 1
        return True


def _gen_children(rng, parent: GenBlock, depth: int, budget: _Budget) -> None:
    """Populate ``parent.children`` with programs and nested workflows."""
    n = rng.randint(1, 4)
    names = _sibling_names(rng, n)
    avail = list(parent.ins) + list(parent.params)
    for i in range(n):
        if not budget.take():
            break
        child = GenBlock(names[i])
        k_in = rng.randint(0, min(3, len(avail)))
        child.ins = rng.sample(avail, k_in)
        if avail and rng.random() < 0.25:
            extra = rng.choice(DATA_POOL)
            if extra not in child.ins:
                child.ins.append(extra)  # may be unbound; that is allowed
        if rng.random() < 0.2:
            p = rng.choice(DATA_POOL)
            if p not in child.ins:
                child.params.append(p)
        n_out = rng.randint(0, 2) if i < n - 1 else rng.randint(1, 2)
        for _ in range(n_out):
            if rng.random() < 0.85:
                fresh = [d for d in DATA_POOL if d not in avail]
                name = rng.choice(fresh) if fresh else rng.choice(DATA_POOL)
            else:
                name = rng.choice(DATA_POOL)
            if name not in child.outs:
                child.outs.append(name)
        avail.extend(d for d in child.outs if d not in avail)
        if depth < 3 and budget.left > 1 and rng.random() < 0.3:
            _gen_children(rng, child, depth + 1, budget)
            # close boundary outputs from inside when possible
            inner_written = {d for c in child.children for d in c.outs}
            missing = [d for d in child.outs if d not in inner_written]
            if missing and budget.take() and rng.random() < 0.8:
                closer = GenBlock("seal", outs=list(missing))
                inner_avail = sorted(
                    set(child.ins) | set(child.params) | inner_written
                )
                if inner_avail:
                    closer.ins = rng.sample(
                        inner_avail, rng.randint(1, min(2, len(inner_avail)))
                    )
                child.children.append(closer)
        parent.children.append(child)


def random_tree(rng, max_blocks: int = 50) -> GenBlock:
    """A random workflow tree, depth at most 4, possibly with name clashes."""
    root = GenBlock("main")
    root.ins = rng.sample(DATA_POOL, rng.randint(1, 3))
    rest = [d for d in DATA_POOL if d not in root.ins]
    root.params = rng.sample(rest, rng.randint(0, 2))
    budget = _Budget(max_blocks - 1)
    _gen_children(rng, root, 1, budget)
    written = {d for c in root.children for d in c.outs} | set(root.ins)
    candidates = sorted(written)
    root.outs = rng.sample(candidates, min(len(candidates), rng.randint(1, 3)))
    _assign_qnames(root)
    return root


def random_flat_acyclic(rng) -> GenBlock:
    """A flat DAG-shaped tree; root input names disjoint from output names."""
    ins = [f"src_{i}" for i in range(rng.randint(1, 3))]
    params = [f"cfg_{i}" for i in range(rng.randint(0, 2))]
    root = GenBlock("main", ins=list(ins), params=list(params))
    avail = ins + params
    produced: list[str] = []
    for i in range(rng.randint(1, 10)):
        child = GenBlock(f"step{i:02d}")
        child.ins = rng.sample(avail, rng.randint(1, min(3, len(avail))))
        for _ in range(rng.randint(1, 2)):
            name = f"mid_{len(produced)}"
            produced.append(name)
            child.outs.append(name)
        avail = avail + child.outs
        root.children.append(child)
    root.outs = rng.sample(produced, rng.randint(1, min(3, len(produced))))
    _assign_qnames(root)
    return root


def script_from_tree(root: GenBlock, rng=None) -> str:
    """Serialize a generated tree to annotated python-style source text."""
    lines = ["# generated pipeline"]

    def emit(block: GenBlock) -> None:
        ports = (
            [("in", n) for n in block.ins]
            + [("param", n) for n in block.params]
            + [("out", n) for n in block.outs]
        )
        inline = True if rng is None else rng.random() < 0.5
        head = f"# @begin {block.name}"
        if inline:
            for tag, name in ports:
                head += f" @{tag} {name}"
            lines.append(head)
            block.begin_line = len(lines)
        else:
            lines.append(head)
            block.begin_line = len(lines)
            for tag, name in ports:
                lines.append(f"# @{tag} {name}")
        if not block.children:
            names = [n for _, n in ports]
            body = ", ".join(names) if names else "None"
            lines.append(f"work({body})")
        for child in block.children:
            emit(child)
        lines.append(f"# @end {block.name}")
        block.end_line = len(lines)

    emit(root)
    return "\n".join(lines) + "\n"


# -- channel oracle -------------------------------------------------------------

def oracle_channels(root: GenBlock):
    """Brute-force expected channels.

    Returns (channels, ambiguous): channels maps (scope_qname, data_name) to
    (source, sorted sinks, role) with endpoints as (block_qname, "in"|"out");
    ambiguous lists (scope_qname, data_name) pairs that have several writers.
    """
    channels: dict = {}
    ambiguous: list = []
    for scope in root.walk():
        if not scope.children:
            continue
        names = set(scope.ins) | set(scope.params) | set(scope.outs)
        for child in scope.children:
            names |= set(child.ins) | set(child.params) | set(child.outs)
        for data in sorted(names):
            sources = []
            if data in scope.ins or data in scope.params:
                sources.append((scope.qname, "in"))
            for child in scope.children:
                if data in child.outs:
                    sources.append((child.qname, "out"))
            sinks = []
            for child in scope.children:
                if data in child.ins or data in child.params:
                    sinks.append((child.qname, "in"))
            if data in scope.outs:
                sinks.append((scope.qname, "out"))
            if not sinks:
                continue
            if len(sources) > 1:
                ambiguous.append((scope.qname, data))
            elif len(sources) == 1:
                is_param = (
                    sources[0] == (scope.qname, "in") and data in scope.params
                ) or any(
                    data in child.params
                    for child in scope.children
                    if (child.qname, "in") in sinks
                )
                channels[(scope.qname, data)] = (
                    sources[0],
                    tuple(sorted(sinks)),
                    "parameter" if is_param else "data",
                )
    return channels, ambiguous


def channels_as_dict(model: WorkflowModel) -> dict:
    """Flatten a model's channels into the oracle's comparison shape."""
    result = {}
    for ch in model.channels:
        result[(ch.scope, ch.data)] = (
            (ch.source.block, ch.source.direction.value),
            tuple((s.block, s.direction.value) for s in ch.sinks),
            ch.role.value,
        )
    return result


# -- the stdlib encoder as the interchange files' oracle ---------------------------

def model_payload(model: WorkflowModel) -> dict:
    """The model as plain JSON values, taken field by field from the dataclasses."""

    def block(b):
        return {
            "name": b.name,
            "qualified_name": b.qualified_name,
            "description": b.description,
            "ports": [
                {
                    "name": p.name,
                    "direction": p.direction.value,
                    "role": p.role.value,
                    "line": p.line,
                    "description": p.description,
                    "file": p.file,
                }
                for p in b.ports
            ],
            "children": [block(c) for c in b.children],
            "span": list(b.span),
            "file": b.file,
        }

    def end(e):
        return {"block": e.block, "port_direction": e.direction.value}

    return {
        "root": block(model.root),
        "channels": [
            {
                "data": ch.data,
                "scope": ch.scope,
                "role": ch.role.value,
                "source": end(ch.source),
                "sinks": [end(e) for e in ch.sinks],
            }
            for ch in model.channels
        ],
        "source_files": list(model.source_files),
    }


def document_payload(doc: AnnotationDocument) -> dict:
    """An annotation document as plain JSON values."""
    return {
        "source": {"file": doc.source_file, "language": doc.language},
        "annotations": [
            {"tag": a.tag.value, "value": a.value, "description": a.description, "line": a.line}
            for a in doc.annotations
        ],
    }


def stdlib_json(payload) -> str:
    """The text an interchange file must hold for ``payload``."""
    return json.dumps(payload, indent=2) + "\n"


# -- naive dependency oracle -----------------------------------------------------

def _walk_blocks(model: WorkflowModel):
    def visit(block, parent):
        yield block, parent
        for child in block.children:
            yield from visit(child, block)

    yield from visit(model.root, None)


def oracle_edges(model: WorkflowModel) -> set:
    """Dependency edges recomputed by direct search over the channel list."""
    parent_of = {
        b.qualified_name: (p.qualified_name if p else None)
        for b, p in _walk_blocks(model)
    }
    workflow = {b.qualified_name: b.is_workflow for b, _ in _walk_blocks(model)}
    edges: set = set()

    def sink_hits(ch, block_q, direction):
        return any(
            s.block == block_q and s.direction is direction for s in ch.sinks
        )

    for ch in model.channels:
        node = ("data", ch.scope, ch.data)
        src = ch.source
        if src.block == ch.scope:
            for outer in model.channels:
                if (
                    outer.scope == parent_of[ch.scope]
                    and outer.data == ch.data
                    and sink_hits(outer, ch.scope, Direction.IN)
                ):
                    edges.add((("data", outer.scope, outer.data), node))
        elif workflow[src.block]:
            for inner in model.channels:
                if (
                    inner.scope == src.block
                    and inner.data == ch.data
                    and sink_hits(inner, src.block, Direction.OUT)
                ):
                    edges.add((("data", inner.scope, inner.data), node))
        else:
            edges.add((("block", src.block), node))
        for sink in ch.sinks:
            if sink.block == ch.scope:
                for outer in model.channels:
                    if (
                        outer.scope == parent_of[ch.scope]
                        and outer.data == ch.data
                        and outer.source == Endpoint(ch.scope, Direction.OUT)
                    ):
                        edges.add((node, ("data", outer.scope, outer.data)))
            elif workflow[sink.block]:
                for inner in model.channels:
                    if (
                        inner.scope == sink.block
                        and inner.data == ch.data
                        and inner.source == Endpoint(sink.block, Direction.IN)
                    ):
                        edges.add((node, ("data", inner.scope, inner.data)))
            else:
                edges.add((node, ("block", sink.block)))
    return edges


def closure(edges: set, start: set, reverse: bool = False) -> set:
    if reverse:
        edges = {(b, a) for a, b in edges}
    adjacency: dict = {}
    for a, b in edges:
        adjacency.setdefault(a, []).append(b)
    reached = set(start)
    frontier = list(start)
    while frontier:
        node = frontier.pop()
        for nxt in adjacency.get(node, ()):
            if nxt not in reached:
                reached.add(nxt)
                frontier.append(nxt)
    return reached


def oracle_downstream(model: WorkflowModel, block_q: str) -> set:
    start = {
        ("data", ch.scope, ch.data)
        for ch in model.channels
        if ch.source == Endpoint(block_q, Direction.OUT)
    }
    hits = closure(oracle_edges(model), start)
    return {n[1] for n in hits if n[0] == "block"}


def oracle_affected(model: WorkflowModel, input_name: str) -> set:
    start = {("data", model.root.qualified_name, input_name)}
    hits = closure(oracle_edges(model), start)
    return {n[1] for n in hits if n[0] == "block"}


def oracle_upstream_inputs(model: WorkflowModel, output_name: str) -> set:
    root_q = model.root.qualified_name
    hits = closure(
        oracle_edges(model), {("data", root_q, output_name)}, reverse=True
    )
    return {
        p.name
        for p in model.root.ports
        if p.direction is Direction.IN and ("data", root_q, p.name) in hits
    }


def oracle_deriving(model: WorkflowModel, data_name: str) -> set:
    root_q = model.root.qualified_name
    hits = closure(oracle_edges(model), {("data", root_q, data_name)}, reverse=True)
    return {n[1] for n in hits if n[0] == "block"}


def oracle_nested(model: WorkflowModel, block_q: str) -> list:
    target = None
    for block, _ in _walk_blocks(model):
        if block.qualified_name == block_q:
            target = block
    assert target is not None

    def descend(block):
        for child in block.children:
            yield child.qualified_name
            yield from descend(child)

    return list(descend(target))


def oracle_containing(model: WorkflowModel, block_q: str) -> list:
    chain = []
    prefix = block_q
    while "." in prefix:
        prefix = prefix.rsplit(".", 1)[0]
        chain.append(prefix)
    return chain


# -- DOT structure checks ----------------------------------------------------------

_QUOTED = r'"((?:[^"\\\n]|\\.)*)"'
_RE_HEADER = re.compile(rf"^digraph {_QUOTED} \{{$")
_RE_RANKDIR = re.compile(rf"^rankdir={_QUOTED}$")
_RE_NODE = re.compile(rf"^{_QUOTED} \[(.+)\]$")
_RE_EDGE = re.compile(rf"^{_QUOTED} -> {_QUOTED}(?: \[(.+)\])?$")
_RE_SUBGRAPH = re.compile(rf"^subgraph {_QUOTED} \{{$")
_RE_LABEL = re.compile(rf"^label={_QUOTED}$")
_RE_ATTR = re.compile(rf'(\w+)={_QUOTED}')


def _unescape(text: str) -> str:
    return re.sub(r"\\(.)", r"\1", text)


def _parse_attrs(blob: str) -> dict:
    attrs = {}
    rebuilt = []
    for match in _RE_ATTR.finditer(blob):
        attrs[match.group(1)] = _unescape(match.group(2))
        rebuilt.append(match.group(0))
    assert ", ".join(rebuilt) == blob, f"malformed attribute list: {blob!r}"
    return attrs


@dataclass
class DotGraph:
    name: str
    rankdir: str
    nodes: dict
    node_order: list
    edges: list
    clusters: dict
    membership: dict

    def shaped(self, shape: str) -> set:
        return {i for i, a in self.nodes.items() if a.get("shape") == shape}

    def edge_multiset(self) -> list:
        return sorted(
            (src, dst, attrs.get("label", "")) for src, dst, attrs in self.edges
        )


def parse_dot(text: str) -> DotGraph:
    """Parse emitted DOT strictly; any line it cannot place is a failure."""
    lines = text.splitlines()
    assert lines, "empty output"
    header = _RE_HEADER.match(lines[0])
    assert header, f"bad header: {lines[0]!r}"
    assert lines[-1] == "}", f"bad footer: {lines[-1]!r}"
    rank = _RE_RANKDIR.match(lines[1].strip())
    assert rank, f"missing rankdir: {lines[1]!r}"

    nodes: dict = {}
    node_order: list = []
    edges: list = []
    clusters: dict = {}
    membership: dict = {}
    stack: list = []
    for raw in lines[2:-1]:
        line = raw.strip()
        if not line:
            continue
        sub = _RE_SUBGRAPH.match(line)
        if sub:
            cluster = _unescape(sub.group(1))
            assert cluster.startswith("cluster_"), cluster
            assert cluster not in clusters, f"duplicate cluster {cluster!r}"
            clusters[cluster] = {"label": None, "nodes": set()}
            stack.append(cluster)
            continue
        if line == "}":
            assert stack, "unbalanced closing brace"
            stack.pop()
            continue
        label = _RE_LABEL.match(line)
        if label and stack:
            clusters[stack[-1]]["label"] = _unescape(label.group(1))
            continue
        edge = _RE_EDGE.match(line)
        if edge:
            src, dst = _unescape(edge.group(1)), _unescape(edge.group(2))
            assert src in nodes, f"edge source {src!r} not declared first"
            assert dst in nodes, f"edge target {dst!r} not declared first"
            attrs = _parse_attrs(edge.group(3)) if edge.group(3) else {}
            edges.append((src, dst, attrs))
            continue
        node = _RE_NODE.match(line)
        if node:
            ident = _unescape(node.group(1))
            assert ident not in nodes, f"node {ident!r} declared twice"
            nodes[ident] = _parse_attrs(node.group(2))
            node_order.append(ident)
            membership[ident] = stack[-1] if stack else None
            if stack:
                clusters[stack[-1]]["nodes"].add(ident)
            continue
        raise AssertionError(f"unrecognized DOT line: {raw!r}")
    assert not stack, "unclosed subgraph"
    return DotGraph(
        _unescape(header.group(1)),
        _unescape(rank.group(1)),
        nodes,
        node_order,
        edges,
        clusters,
        membership,
    )


# -- counting formulas ---------------------------------------------------------------

def expected_process_edges(model: WorkflowModel, focus_q: str) -> int:
    """Box-to-box edge count: child-sourced channels, one edge per child sink."""
    total = 0
    for ch in model.channels:
        if ch.scope != focus_q or ch.source.block == focus_q:
            continue
        total += sum(1 for s in ch.sinks if s.block != focus_q)
    return total


def expected_data_nodes(model: WorkflowModel, focus_q: str) -> int:
    names = {ch.data for ch in model.channels if ch.scope == focus_q}
    for block, _ in _walk_blocks(model):
        if block.qualified_name == focus_q:
            names |= {p.name for p in block.ports}
    return len(names)


def descendant_workflows(model: WorkflowModel, focus_q: str) -> list:
    return [
        b.qualified_name
        for b, _ in _walk_blocks(model)
        if b.is_workflow
        and b.qualified_name != focus_q
        and b.qualified_name.startswith(focus_q + ".")
    ]
