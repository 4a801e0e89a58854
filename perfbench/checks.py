"""Checks every command output of a session against independent oracles.

The first session on a script is checked in full: the brute-force channel
and closure oracles and the strict DOT parser from ``tests/support.py``,
generator ground truth, stdlib ``tokenize`` for Python comments, and byte
identity between the replay and the direct run. Every later session on the
same script must reproduce the first one's exit statuses and output bytes.
Each invocation that fails a check counts once toward ``failed``.
"""

from __future__ import annotations

import hashlib
import io
import json
import re
import tokenize

from support import (
    channels_as_dict,
    closure,
    descendant_workflows,
    expected_data_nodes,
    expected_process_edges,
    oracle_affected,
    oracle_channels,
    oracle_containing,
    oracle_deriving,
    oracle_downstream,
    oracle_edges,
    oracle_nested,
    oracle_upstream_inputs,
    parse_dot,
)
from ywx.annotations import parse_annotations
from ywx.comments import LANGUAGES, SourceComment, extract_comments
from ywx.model import Direction, Role, iter_blocks, parse_model

from session import VIEWS, graph_label
from workloads import UNBUILDABLE_CODES, Case, Node

DIAGNOSTIC_RE = re.compile(
    r"^(?P<file>.+?):(?P<line>\d+): (?P<severity>error|warning) (?P<code>YW\d{3}) \S.*$"
)
DOCUMENTED_CODES = {
    "YW001", "YW002", "YW003", "YW004", "YW005", "YW006", "YW007",
    "YW010", "YW020", "YW030", "YW031",
}


class Mismatch(Exception):
    """An output that disagrees with its oracle."""


def digest(data: bytes | None) -> str:
    return hashlib.sha256(data).hexdigest() if data is not None else "-"


def tree_from_model(model) -> Node:
    """Ground-truth shape of a fixture, read from the model the library built."""

    def convert(block, prefix: str) -> Node:
        node = Node(block.name, description=block.description)
        node.qname = f"{prefix}.{block.name}" if prefix else block.name
        for port in block.ports:
            if port.direction is Direction.OUT:
                node.outs.append(port.name)
            elif port.role is Role.PARAMETER:
                node.params.append(port.name)
            else:
                node.ins.append(port.name)
        node.children = [convert(child, node.qname) for child in block.children]
        return node

    return convert(model.root, "")


def python_comments(text: str, file: str) -> list[SourceComment]:
    """Non-blank comments as the stdlib tokenizer sees them."""
    found = []
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type == tokenize.COMMENT:
            body = token.string[1:].strip()
            if body:
                found.append(SourceComment(body, file, token.start[0], token.start[0]))
    return found


def _need(condition: bool, reason: str) -> None:
    if not condition:
        raise Mismatch(reason)


class _Verifier:
    """Full check of one session's outcomes for one case."""

    def __init__(self, case: Case, script: str, outcomes: dict) -> None:
        self.case = case
        self.script = script
        self.out = outcomes
        self.tree = case.tree
        if case.kind == "fixture":
            self.buildable = not any(d[0] in UNBUILDABLE_CODES for d in case.diagnostics)
        elif case.kind == "generated":
            self.buildable = not oracle_channels(case.tree)[1]
        else:
            self.buildable = True
        self.model = None

    def json(self, label: str):
        return json.loads(self.out[label].output)

    def status(self, label: str, expected: int) -> bool:
        got = self.out[label].status
        _need(got == expected, f"exit status {got}, expected {expected}")
        return expected == 0

    # -- per-command checks --------------------------------------------------

    def extract(self) -> None:
        self.status("extract", 0)
        doc = self.json("extract")
        _need(doc["source"] == {"file": self.script, "language": self.case.language},
              f"source record {doc['source']}")
        records = doc["annotations"]
        if self.case.language == "python":
            comments = python_comments(self.case.text, self.script)
            ours = extract_comments(self.case.text, LANGUAGES["python"], self.script)
            for mine, theirs in zip(ours, comments):
                _need(mine == theirs, f"comment at line {mine.start_line} differs from "
                                      f"tokenize's comment at line {theirs.start_line}")
            _need(len(ours) == len(comments),
                  f"{len(ours)} comments, tokenize finds {len(comments)}")
            expected = [
                {"tag": a.tag.value, "value": a.value, "description": a.description,
                 "line": a.line}
                for a in parse_annotations(comments)
            ]
            _need(records == expected, "annotations differ from those in tokenize's comments")
        if self.case.kind != "fixture":
            begins = [r["value"] for r in records if r["tag"] == "begin"]
            _need(begins == [n.name for n in self.tree.walk()],
                  "@begin sequence differs from the generated tree")

    def model_output(self) -> None:
        if not self.status("model", 0 if self.buildable else 2):
            return
        self.model = parse_model(self.out["model"].output.decode())
        blocks = list(iter_blocks(self.model.root))
        nodes = list(self.tree.walk())
        _need([b.qualified_name for b in blocks] == [n.qname for n in nodes],
              "block tree differs from ground truth")
        for block, node in zip(blocks, nodes):
            ports = sorted((p.name, p.direction.value, p.role.value) for p in block.ports)
            truth = sorted([(n, "in", "data") for n in node.ins]
                           + [(n, "in", "parameter") for n in node.params]
                           + [(n, "out", "data") for n in node.outs])
            _need(ports == truth, f"ports of {block.qualified_name} differ from ground truth")
        _need(channels_as_dict(self.model) == oracle_channels(self.tree)[0],
              "channels differ from the brute-force oracle")

    def graph(self, label: str, view: str, nested: bool) -> None:
        if not self.status(label, 0 if self.buildable else 2):
            return
        _need(self.model is not None, "no checked model to compare against")
        model = self.model
        root_q = model.root.qualified_name
        dot = parse_dot(self.out[label].output.decode())
        _need(dot.name == root_q and dot.rankdir == "LR", "graph header")
        boxes = dot.shaped("box")
        if nested:
            clusters = {f"cluster_{q}" for q in descendant_workflows(model, root_q)}
            _need(set(dot.clusters) == clusters, "cluster set differs")
        if view == "process":
            programs = {n.qname for n in self.tree.walk() if not n.children}
            drawn = programs if nested else {c.qname for c in self.tree.children}
            _need(boxes == drawn, "process boxes differ from the drawn blocks")
            if not nested:
                box_edges = [(s, d) for s, d, _ in dot.edges if s in boxes and d in boxes]
                _need(len(box_edges) == expected_process_edges(model, root_q),
                      "process edge count differs")
        elif view == "data" and not nested:
            _need(len(dot.nodes) == expected_data_nodes(model, root_q), "data node count differs")
        elif view == "combined":
            def kind(node_id: str) -> str:
                prefix = node_id.split(":", 1)[0]
                return prefix if prefix in ("data", "port") else "block"

            for src, dst, _ in dot.edges:
                ends = {kind(src), kind(dst)}
                _need(ends != {"block"} and ends != {"data"}, f"edge {src} -> {dst} not bipartite")

    def validate(self) -> None:
        text = self.out["validate"].output.decode()
        found = []
        for line in text.splitlines():
            match = DIAGNOSTIC_RE.match(line)
            _need(match is not None, f"unreadable diagnostic {line!r}")
            _need(match["file"] == self.script, f"diagnostic names file {match['file']!r}")
            found.append((match["code"], match["severity"], int(match["line"])))
        errors = any(sev == "error" for _, sev, _ in found)
        self.status("validate", 1 if errors else 0)
        _need({code for code, _, _ in found} <= DOCUMENTED_CODES, "undocumented code")
        if self.case.diagnostics is not None:
            _need(sorted(found) == sorted(self.case.diagnostics),
                  f"diagnostics {sorted(found)[:4]}... differ from the expected ones")
        else:
            ambiguous = bool(oracle_channels(self.tree)[1])
            _need(any(code == "YW030" for code, _, _ in found) == ambiguous,
                  "YW030 disagrees with the oracle's multi-writer scopes")
            _need(not any(code < "YW010" for code, _, _ in found),
                  "structural diagnostic on a well-formed script")
        if not errors:  # the README's promise: then build and render cannot fail
            for label in ["model"] + [graph_label(view, nested) for view, nested in VIEWS]:
                _need(self.out[label].status == 0, f"no errors, but {label} failed")

    def query(self, label: str, args: list, truth) -> None:
        if label == "invoking-blocks":
            self.status(f"query.{label}", 2)
            _need("unsupported" in self.out[f"query.{label}"].stderr, "no 'unsupported' message")
            return
        if not self.buildable:
            self.status(f"query.{label}", 2)
            return
        _need(self.model is not None, "no checked model to compare against")
        if truth is not None:
            expected_status, expected = 0, truth
        else:
            expected_status, expected = self.oracle(label, args[1] if args else None)
        if not self.status(f"query.{label}", expected_status):
            return
        got = self.json(f"query.{label}")
        if label == "derivation" and truth is None:
            self.check_derivation(got, args[1], expected)
            return
        _need(got == expected, "answer differs from the oracle")

    # -- query oracles over the checked model ---------------------------------

    def oracle(self, label: str, arg: str):
        model = self.model
        root = model.root
        root_q = root.qualified_name
        blocks = {b.qualified_name: b for b in iter_blocks(root)}
        inputs = {p.name for p in root.ports if p.direction is Direction.IN}
        root_data = {p.name for p in root.ports} | {
            ch.data for ch in model.channels if ch.scope == root_q
        }
        if label == "blocks":
            return 0, [{"qualified_name": n.qname, "description": n.description}
                       for n in self.tree.walk() if n is not self.tree]
        if label in ("nested", "containers", "downstream", "sources") and arg not in blocks:
            return 2, None
        if label == "nested":
            return 0, oracle_nested(model, arg)
        if label == "containers":
            return 0, oracle_containing(model, arg)
        if label == "downstream":
            return 0, sorted(oracle_downstream(model, arg))
        if label == "sources":
            return 0, self.sources(arg)
        if label == "affected-by":
            return (0, sorted(oracle_affected(model, arg))) if arg in inputs else (2, None)
        if arg not in root_data:
            return 2, None
        if label == "upstream-inputs":
            return 0, sorted(oracle_upstream_inputs(model, arg))
        if label == "deriving-blocks":
            return 0, sorted(oracle_deriving(model, arg))
        if label == "derivation":
            return self.derivation(arg)
        roles = {p.name: p.role.value for p in root.ports}
        bound = self.case.manifest["bindings"]
        if label == "lineage.upstream":
            ports = {name: roles[name] for name in oracle_upstream_inputs(model, arg)}
        else:
            outputs = [p.name for p in root.ports if p.direction is Direction.OUT]
            ports = {o: roles[o] for o in outputs if arg in oracle_upstream_inputs(model, o)}
        records = {(f, port, role) for port, role in ports.items() for f in bound.get(port, ())}
        return 0, [{"file": f, "port": p, "role": r} for f, p, r in sorted(records)]

    def sources(self, block_q: str) -> list:
        channels, _ = oracle_channels(self.tree)
        nodes = {n.qname: n for n in self.tree.walk()}
        parent = {c.qname: n.qname for n in self.tree.walk() for c in n.children}
        root_q = self.tree.qname

        def feeds(key, endpoint) -> bool:
            return key in channels and endpoint in channels[key][1]

        def trace(key, seen):
            scope, data = key
            source = channels[key][0]
            if source == (scope, "in"):
                if scope == root_q:
                    return "script-input", None
                outer = (parent[scope], data)
                if outer in seen or not feeds(outer, (scope, "in")):
                    return "unbound", None
                return trace(outer, seen | {outer})
            if not nodes[source[0]].children:
                return "produced-by", source[0]
            inner = (source[0], data)
            if inner in seen or not feeds(inner, (source[0], "out")):
                return "unbound", None
            return trace(inner, seen | {inner})

        block = next(b for b in iter_blocks(self.model.root) if b.qualified_name == block_q)
        found = []
        for port in block.ports:
            if port.direction is not Direction.IN:
                continue
            if block_q == root_q:
                kind, source = "script-input", None
            else:
                key = (parent[block_q], port.name)
                if not feeds(key, (block_q, "in")):
                    kind, source = "unbound", None
                else:
                    kind, source = trace(key, frozenset({key}))
            found.append({"port": port.name, "kind": kind, "block": source})
        return found

    def derivation(self, name: str):
        """Expected steps as a set, plus the order every listing must respect."""
        edges = oracle_edges(self.model)
        root_q = self.model.root.qualified_name
        involved = closure(edges, {("data", root_q, name)}, reverse=True)
        inner = {(a, b) for a, b in edges if a in involved and b in involved}
        indegree = dict.fromkeys(involved, 0)
        for _, b in inner:
            indegree[b] += 1
        ready = [n for n, d in indegree.items() if d == 0]
        seen = 0
        while ready:
            node = ready.pop()
            seen += 1
            for a, b in inner:
                if a == node:
                    indegree[b] -= 1
                    if indegree[b] == 0:
                        ready.append(b)
        if seen < len(involved):
            return 2, None  # a feedback loop: derivation must refuse
        channels, _ = oracle_channels(self.tree)
        parent = {c.qname: n.qname for n in self.tree.walk() for c in n.children}
        nodes = {n.qname: n for n in self.tree.walk()}
        steps = {}
        for a, b in inner:
            if a[0] == "block" and b[0] == "data":
                program = nodes[a[1]]
                consumed = sorted(
                    p for p in program.ins + program.params
                    if (parent[program.qname], p) in channels
                    and (program.qname, "in") in channels[(parent[program.qname], p)][1]
                )
                steps[b] = {"block": a[1], "consumed": consumed, "produced": b[2]}
        return 0, (steps, inner)

    def check_derivation(self, got: dict, name: str, expected) -> None:
        steps, inner = expected
        _need(got["target"] == name, "derivation target")
        listed = got["steps"]
        _need(sorted(map(json.dumps, listed)) == sorted(map(json.dumps, steps.values())),
              "derivation steps differ from the oracle")
        position = {}
        for i, step in enumerate(listed):
            node = next(n for n, s in steps.items() if s == step)
            position[node] = i
        for node, i in position.items():
            later = closure(inner, {node}) - {node}
            _need(all(position.get(n, len(listed)) > i for n in later),
                  "derivation steps are not in dependency order")

    # -- running every check ------------------------------------------------------

    def run(self) -> dict[str, str]:
        """Check everything; return a failure reason per failed label."""
        reasons: dict[str, str] = {}

        def attempt(label: str, check, *args) -> None:
            outcome = self.out[label]
            if outcome.error is not None:
                reasons[label] = "exception escaped run: " + outcome.error.strip().splitlines()[-1]
                return
            try:
                check(*args)
            except (Mismatch, AssertionError, ValueError, KeyError, TypeError) as exc:
                reasons[label] = f"{type(exc).__name__}: {exc}"[:300]

        attempt("extract", self.extract)
        attempt("model", self.model_output)
        for view, nested in VIEWS:
            attempt(graph_label(view, nested), self.graph, graph_label(view, nested), view, nested)
        for label, args, truth in self.case.queries:
            attempt(f"query.{label}", self.query, label, args, truth)
        attempt("query.invoking-blocks", self.query, "invoking-blocks", [], None)
        attempt("validate", self.validate)
        for label, outcome in self.out.items():
            if not label.startswith("replay."):
                continue
            direct = self.out[label.removeprefix("replay.")]
            if outcome.error is not None:
                reasons[label] = "exception escaped run: " + outcome.error.strip().splitlines()[-1]
            elif (outcome.status, outcome.output) != (direct.status, direct.output):
                reasons[label] = "replay differs from the direct run"
        return reasons


class Checker:
    """Keeps each script's verified statuses and digests across sessions."""

    def __init__(self) -> None:
        self.known: dict[str, dict[str, tuple]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: dict[tuple, dict] = {}

    def check(self, case: Case, script: str, outcomes: list) -> None:
        known = self.known.get(case.name)
        if known is None:
            reasons = _Verifier(case, script, {o.label: o for o in outcomes}).run()
            known = {o.label: (o.status, digest(o.output), reasons.get(o.label))
                     for o in outcomes}
            self.known[case.name] = known
        for outcome in outcomes:
            self.attempted += 1
            status, first, reason = known[outcome.label]
            if outcome.error is not None:
                reason = "exception escaped run"
            elif (outcome.status, digest(outcome.output)) != (status, first):
                reason = "differs from the first session on this input"
            if reason:
                self.failed += 1
                entry = self.failures.setdefault(
                    (case.name, outcome.label, reason),
                    {"input": case.name, "command": outcome.label, "reason": reason, "count": 0},
                )
                entry["count"] += 1

    def digests(self) -> dict[str, dict[str, str]]:
        return {name: {label: d for label, (_, d, _) in labels.items()}
                for name, labels in sorted(self.known.items())}
