"""One session: a workload's fixed command mix on one script, each command timed.

Every command goes through ``ywx.cli.run(argv)``, the console-script entry
point, and writes its result to a file with ``-o``. The output file is
removed before the command and read after it, both outside the timed region.
"""

from __future__ import annotations

import io
import traceback
from contextlib import redirect_stderr
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

VIEWS = [(view, nested) for view in ("process", "data", "combined") for nested in (False, True)]
# Which end-to-end timing each command label adds to.
CATEGORIES = ("extract", "model", "graph", "query", "validate", "replay")


@dataclass(frozen=True)
class Invocation:
    label: str
    argv: tuple[str, ...]
    output: str

    @property
    def category(self) -> str:
        return self.label.split(".", 1)[0]


@dataclass
class Outcome:
    label: str
    status: int | None  # None when an exception escaped run
    ms: float
    output: bytes | None
    stderr: str
    error: str | None = None


def graph_label(view: str, nested: bool) -> str:
    return f"graph.{view}.{'nested' if nested else 'flat'}"


def _views(source: str, prefix: str) -> list[Invocation]:
    found = []
    for view, nested in VIEWS:
        label = prefix + graph_label(view, nested)
        argv = ("graph", source, "--view", view) + (("--nested",) if nested else ())
        found.append(Invocation(label, argv, f"out/{label}.dot"))
    return found


def _queries(source: str, queries: list, manifest: str | None, prefix: str) -> list[Invocation]:
    found = []
    for label, args, _ in queries:
        sub, _, direction = label.partition(".")
        argv = ("query", sub, source, *args)
        if sub == "lineage":
            argv += ("--manifest", manifest, "--direction", direction)
        found.append(Invocation(f"{prefix}query.{label}", argv + ("--json",),
                                f"out/{prefix}query.{label}.json"))
    found.append(Invocation(f"{prefix}query.invoking-blocks",
                            ("query", "invoking-blocks", source, "--json"),
                            f"out/{prefix}query.invoking-blocks.json"))
    return found


def plan(script: str, queries: list, manifest: str | None) -> list[Invocation]:
    """The fixed command mix, replay through the intermediates last."""
    steps = [
        Invocation("extract", ("extract", script), "out/extract.json"),
        Invocation("model", ("model", script), "out/model.json"),
    ]
    steps += _views(script, "")
    steps += _queries(script, queries, manifest, "")
    steps.append(Invocation("validate", ("validate", script), "out/validate.txt"))
    steps.append(Invocation("replay.model", ("model", "out/extract.json"), "out/replay.model.json"))
    steps += _views("out/replay.model.json", "replay.")
    steps += _queries("out/replay.model.json", queries, manifest, "replay.")
    return steps


def run_session(steps: list[Invocation], cli) -> list[Outcome]:
    """Run every step through ``cli.run``, looked up per call so tracing can wrap it."""
    outcomes = []
    for step in steps:
        path = Path(step.output)
        path.unlink(missing_ok=True)
        stderr = io.StringIO()
        error = None
        with redirect_stderr(stderr):
            start = perf_counter()
            try:
                status = cli.run([*step.argv, "-o", step.output])
            except Exception:  # an escaped exception is a failed invocation, not a crash
                status = None
                error = traceback.format_exc(limit=-3)
            ms = (perf_counter() - start) * 1000.0
        output = path.read_bytes() if path.exists() else None
        outcomes.append(Outcome(step.label, status, ms, output, stderr.getvalue(), error))
    return outcomes


def timings(steps: list[Invocation], outcomes: list[Outcome]) -> dict[str, float]:
    """Per-category sums of one session, plus the whole session."""
    sums = dict.fromkeys(CATEGORIES, 0.0)
    for step, outcome in zip(steps, outcomes):
        sums[step.category] += outcome.ms
    sums["session"] = sum(sums.values())
    return sums
