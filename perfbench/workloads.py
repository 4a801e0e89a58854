"""Seeded inputs for the benchmark workloads, with their ground truth.

Every input is generated here (or copied into ``perfbench/fixtures``), so an
edit under ``tests/`` cannot change a workload. A ``Case`` is one script the
session runs on; generated cases carry the tree they were written from, which
the checks treat as ground truth.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent / "fixtures"

# Fixtures with the diagnostics each must produce: (code, severity, line).
CLEAN_FIXTURES = ("affymetrix.R", "mstmip_nee.m", "paleoclimate.R")
DEFECT_FIXTURES = {
    "d01_end_without_begin.py": [("YW001", "error", 1)],
    "d02_end_wrong_name.py": [("YW002", "error", 4)],
    "d03_end_wrong_name_nested.m": [("YW002", "error", 17)],
    "d04_unclosed_block.py": [("YW003", "error", 1)],
    "d05_port_outside_block.py": [("YW004", "error", 6)],
    "d06_port_before_begin.R": [("YW004", "error", 1)],
    "d07_name_not_in_code.py": [("YW010", "warning", 3)],
    "d08_name_only_in_comment.R": [("YW010", "warning", 2)],
    "d09_broken_chain.py": [("YW020", "error", 5)],
    "d10_broken_chain_diamond.R": [("YW020", "error", 5)],
    "d11_multiple_writers.py": [("YW030", "error", 5)],
    "d12_dangling_out.m": [("YW031", "warning", 2)],
}
# Codes after which the model cannot be built, so model/graph/query exit 2.
UNBUILDABLE_CODES = {"YW001", "YW002", "YW003", "YW004", "YW005", "YW006", "YW007", "YW030"}


@dataclass
class Node:
    """Ground truth for one block, in the shape the test-suite oracles read."""

    name: str
    ins: list = field(default_factory=list)
    params: list = field(default_factory=list)
    outs: list = field(default_factory=list)
    children: list = field(default_factory=list)
    qname: str = ""
    description: str | None = None

    def walk(self):
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def ports(self):
        return (
            [("in", n) for n in self.ins]
            + [("param", n) for n in self.params]
            + [("out", n) for n in self.outs]
        )


def assign_qnames(root: Node) -> Node:
    root.qname = root.name
    for node in root.walk():
        for child in node.children:
            child.qname = f"{node.qname}.{child.name}"
    return root


@dataclass
class Case:
    """One script of a workload and everything the checks know about it.

    ``kind`` is ``generated`` (corpus tree), ``fixture`` or ``scaled``.
    ``tree`` is the generator's ground truth; fixtures have none, and their
    checks take the tree from the model the program wrote.
    """

    name: str
    text: str
    kind: str
    tree: Node | None = None
    manifest: dict | None = None
    diagnostics: list | None = None  # exact expected (code, severity, line)
    # (subquery label, arguments, expected JSON payload or None for the oracles)
    queries: list = field(default_factory=list)

    @property
    def language(self) -> str:
        return {".py": "python", ".r": "r", ".m": "matlab"}[Path(self.name).suffix.lower()]

    def choose_queries(self, rng) -> None:
        """Arguments for every subquery, taken from the tree.

        Names the tree lacks (no tree, no root input or output) are replaced
        by a name the model cannot have, which the program must refuse.
        """
        nodes = list(self.tree.walk()) if self.tree else []
        programs = [n.qname for n in nodes if not n.children] or ["no_such_block"]
        workflows = [n.qname for n in nodes[1:] if n.children] or [
            nodes[0].qname if nodes else "no_such_block"]
        inputs = (self.tree.ins + self.tree.params) if self.tree else []
        outputs = self.tree.outs if self.tree else []
        output = rng.choice(outputs) if outputs else "no_such_output"
        self.queries = [
            ("blocks", [], None),
            ("nested", ["--block", rng.choice(workflows)], None),
            ("containers", ["--block", max(programs, key=lambda q: q.count("."))], None),
            ("downstream", ["--block", rng.choice(programs)], None),
            ("affected-by", ["--name", rng.choice(inputs) if inputs else "no_such_input"], None),
            ("upstream-inputs", ["--name", output], None),
            ("deriving-blocks", ["--name", output], None),
            ("derivation", ["--name", output], None),
            ("sources", ["--block", rng.choice(programs)], None),
        ]
        if self.manifest is not None:
            bound = self.manifest["bindings"]
            self.queries += [
                ("lineage.upstream", ["--name", next(n for n in outputs if n in bound)], None),
                ("lineage.downstream", ["--name", next(n for n in inputs if n in bound)], None),
            ]


# -- corpus: small random workflows ---------------------------------------------

DATA_POOL = (
    "alpha", "beta", "gamma", "delta", "epsilon", "zeta",
    "eta", "theta", "iota", "kappa", "mu", "sigma",
)
BLOCK_POOL = (
    "load", "clean", "merge", "fit", "score", "rank",
    "plot", "export", "stage", "audit", "bin", "probe",
)
CORPUS_SIZE = 500  # generated scripts, after the fixtures
MAX_BLOCKS = 50  # per generated script


def _fill_children(rng, parent: Node, depth: int, budget: list) -> None:
    """Add 1-4 children; later ones may read what earlier ones wrote.

    Reads of names nobody writes and name clashes between writers are kept,
    so some scripts have unbound ports and some have several writers.
    """
    count = rng.randint(1, 4)
    names = list(BLOCK_POOL)
    rng.shuffle(names)
    available = list(parent.ins) + list(parent.params)
    for i in range(count):
        if budget[0] <= 0:
            break
        budget[0] -= 1
        child = Node(names[i])
        child.ins = rng.sample(available, rng.randint(0, min(3, len(available))))
        if available and rng.random() < 0.25:
            extra = rng.choice(DATA_POOL)
            if extra not in child.ins:
                child.ins.append(extra)
        if rng.random() < 0.2:
            param = rng.choice(DATA_POOL)
            if param not in child.ins:
                child.params.append(param)
        for _ in range(rng.randint(0, 2) if i < count - 1 else rng.randint(1, 2)):
            fresh = [d for d in DATA_POOL if d not in available]
            name = rng.choice(fresh) if fresh and rng.random() < 0.85 else rng.choice(DATA_POOL)
            if name not in child.outs:
                child.outs.append(name)
        available.extend(d for d in child.outs if d not in available)
        if depth < 3 and budget[0] > 1 and rng.random() < 0.3:
            _fill_children(rng, child, depth + 1, budget)
            written = {d for c in child.children for d in c.outs}
            missing = [d for d in child.outs if d not in written]
            if missing and budget[0] > 0 and rng.random() < 0.8:
                budget[0] -= 1
                seal = Node("seal", outs=missing)
                inner = sorted(set(child.ins) | set(child.params) | written)
                if inner:
                    seal.ins = rng.sample(inner, rng.randint(1, min(2, len(inner))))
                child.children.append(seal)
        parent.children.append(child)


def random_workflow(rng) -> Node:
    root = Node("main")
    root.ins = rng.sample(DATA_POOL, rng.randint(1, 3))
    rest = [d for d in DATA_POOL if d not in root.ins]
    root.params = rng.sample(rest, rng.randint(0, 2))
    _fill_children(rng, root, 1, [MAX_BLOCKS - 1])
    written = sorted({d for c in root.children for d in c.outs} | set(root.ins))
    root.outs = rng.sample(written, min(len(written), rng.randint(1, 3)))
    return assign_qnames(root)


def python_script(root: Node, rng) -> str:
    """Annotated Python: ports inline or one per line, a code line per program."""
    lines = ["# generated pipeline"]

    def emit(node: Node) -> None:
        ports = node.ports()
        if rng.random() < 0.5:
            lines.append(" ".join([f"# @begin {node.name}"] + [f"@{t} {n}" for t, n in ports]))
        else:
            lines.append(f"# @begin {node.name}")
            lines.extend(f"# @{t} {n}" for t, n in ports)
        if not node.children:
            lines.append(f"work({', '.join(n for _, n in ports) or 'None'})")
        for child in node.children:
            emit(child)
        lines.append(f"# @end {node.name}")

    emit(root)
    return "\n".join(lines) + "\n"


def corpus(seed: int) -> list[Case]:
    """Every fixture, then ``CORPUS_SIZE`` random scripts, each group in a seeded order.

    The fixtures come first so that every run, however short, covers all
    three languages, the defect classes and the one manifest.
    """
    rng = random.Random(seed)
    fixtures = []
    for name in CLEAN_FIXTURES:
        manifest = None
        if name == "mstmip_nee.m":
            manifest = json.loads((FIXTURES / "mstmip_manifest.json").read_text())
        fixtures.append(Case(name, (FIXTURES / name).read_text(), "fixture",
                             manifest=manifest, diagnostics=[]))
    for name, diagnostics in DEFECT_FIXTURES.items():
        fixtures.append(Case(name, (FIXTURES / "defects" / name).read_text(), "fixture",
                             diagnostics=diagnostics))
    generated = []
    for i in range(CORPUS_SIZE):
        tree = random_workflow(rng)
        generated.append(Case(f"gen_{i:03d}.py", python_script(tree, rng), "generated", tree))
        generated[-1].choose_queries(rng)
    rng.shuffle(fixtures)
    rng.shuffle(generated)
    return fixtures + generated


# -- scaled: a deep chain of sub-workflows fanning out to many outputs -------------

VERBS = ("smooth", "detrend", "regrid", "rescale", "mask", "merge", "fill", "bin")
WORDS = ("monthly", "grid", "flux", "site", "gap", "mean", "clipped", "raw", "qc")
STAGES = 4  # sub-workflows in the chain
STEPS = 50  # chained programs per sub-workflow
OUTPUTS = 80  # fan-out programs, one root output each
QUIET_EVERY = 20  # every so many fan-out programs, one leaves its output unnamed


def _description(rng) -> str | None:
    return " ".join(rng.choice(WORDS) for _ in range(rng.randint(0, 4))) or None


def _begin(node: Node) -> str:
    words = [f"# @begin {node.name}", node.description or ""]
    words += [f"@{t} {n}" for t, n in node.ports()]
    return " ".join(w for w in words if w)


def _lineage(manifest: dict, ports: dict) -> list:
    """Expected lineage records: every file bound to ``ports`` (name -> role)."""
    records = [
        {"file": f, "port": port, "role": role}
        for port, role in ports.items()
        for f in manifest["bindings"].get(port, ())
    ]
    return sorted(records, key=lambda r: (r["file"], r["port"]))


def _blocks(root: Node) -> list:
    return [{"qualified_name": n.qname, "description": n.description}
            for n in root.walk() if n is not root]


def _step(node: Node) -> dict:
    return {"block": node.qname, "consumed": sorted(node.ins + node.params),
            "produced": node.outs[0]}


def scaled(seed: int) -> Case:
    """One script: a deep chain of sub-workflows, then a wide fan-out.

    ``STAGES`` sub-workflows of ``STEPS`` chained programs turn ``raw_input``
    (with parameter ``cfg``) into ``chain_output``; ``OUTPUTS`` programs at
    the root each turn that into one root output. A manifest binds every root
    port. The chain loads what scales with script length and block count,
    the fan-out the per-output work of lineage and YW020.

    Diagnostics are all YW010 warnings: in each stage one seeded program's
    code line does not name its output; so does every ``QUIET_EVERY``-th
    fan-out program, which also leaves the root's matching @out unnamed.
    """
    rng = random.Random(seed)
    tag = "".join(rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(3))
    names = [f"{tag}_report_{i:03d}" for i in range(OUTPUTS)]
    root = Node(f"pipeline_{tag}", ins=["raw_input"], params=["cfg"], outs=list(names))
    lines = [f"# @begin {root.name} @in raw_input @param cfg"]
    for k in range(0, OUTPUTS, 10):
        lines.append("# " + " ".join(f"@out {n}" for n in names[k : k + 10]))
    lines.append("cfg = load_config(raw_input)")
    warnings = []
    chain = []
    previous = "raw_input"
    for s in range(STAGES):
        stage_out = "chain_output" if s == STAGES - 1 else f"{tag}{s:02d}_{STEPS - 1:02d}"
        stage = Node(f"stage_{s:02d}", ins=[previous], params=["cfg"], outs=[stage_out],
                     description=_description(rng))
        root.children.append(stage)
        lines.append(_begin(stage))
        quiet = rng.randrange(1, STEPS - 1)
        data_in = previous
        for j in range(STEPS):
            data_out = stage_out if j == STEPS - 1 else f"{tag}{s:02d}_{j:02d}"
            step = Node(f"step_{j:02d}", ins=[data_in], params=["cfg"] if j == 0 else [],
                        outs=[data_out], description=_description(rng))
            stage.children.append(step)
            chain.append(step)
            lines.append(_begin(step))
            if j == quiet:
                warnings.append(("YW010", "warning", len(lines)))
            target = "tmp" if j == quiet else data_out
            args = ", ".join(step.ins + step.params)
            lines.append(f"{target} = {rng.choice(VERBS)}_{j:02d}({args})")
            lines.append(f"# @end {step.name}")
            data_in = data_out
        lines.append(f"# @end {stage.name}")
        previous = stage_out
    offset = rng.randrange(QUIET_EVERY)
    fan = []
    for i, out in enumerate(names):
        program = Node(f"summarize_{i:03d}", ins=["chain_output"], outs=[out],
                       description=_description(rng))
        root.children.append(program)
        fan.append(program)
        lines.append(_begin(program))
        target = out
        if i % QUIET_EVERY == offset:
            warnings.append(("YW010", "warning", 2 + i // 10))
            warnings.append(("YW010", "warning", len(lines)))
            target = "tmp"
        lines.append(f"{target} = {rng.choice(VERBS)}(chain_output)")
        lines.append(f"# @end {program.name}")
    lines.append(f"# @end {root.name}")
    assign_qnames(root)
    bindings = {"raw_input": [f"in/raw_{tag}_{k}.nc" for k in range(3)],
                "cfg": [f"in/cfg_{tag}.toml"]}
    bindings.update({out: [f"out/{out}.png"] for out in names})
    manifest = {"run_id": f"scaled-{seed}", "bindings": bindings}
    case = Case(f"scaled_{tag}.py", "\n".join(lines) + "\n", "scaled", root,
                manifest=manifest, diagnostics=sorted(warnings, key=lambda d: d[2]))

    pick = rng.randrange(1, len(chain))
    report = rng.randrange(OUTPUTS)
    stage = root.children[rng.randrange(STAGES)]
    programs = sorted(n.qname for n in chain + fan)
    sources = [{"port": chain[pick].ins[0], "kind": "produced-by", "block": chain[pick - 1].qname}]
    sources += [{"port": p, "kind": "script-input", "block": None} for p in chain[pick].params]
    case.queries = [
        ("blocks", [], _blocks(root)),
        ("nested", ["--block", stage.qname], [n.qname for n in stage.children]),
        ("containers", ["--block", chain[pick].qname],
         [chain[pick].qname.rsplit(".", 1)[0], root.qname]),
        ("downstream", ["--block", chain[pick].qname],
         sorted(n.qname for n in chain[pick + 1:] + fan)),
        ("affected-by", ["--name", "raw_input"], programs),
        ("upstream-inputs", ["--name", names[report]], ["cfg", "raw_input"]),
        ("deriving-blocks", ["--name", names[report]],
         sorted(n.qname for n in chain + [fan[report]])),
        ("derivation", ["--name", names[report]],
         {"target": names[report], "steps": [_step(n) for n in chain + [fan[report]]]}),
        ("sources", ["--block", chain[pick].qname], sources),
        ("lineage.upstream", ["--name", names[report]],
         _lineage(manifest, {"raw_input": "data", "cfg": "parameter"})),
        ("lineage.downstream", ["--name", "raw_input"],
         _lineage(manifest, {out: "data" for out in names})),
    ]
    return case


WORKLOADS = {
    "corpus": corpus,
    "scaled": lambda seed: [scaled(seed)],
}
