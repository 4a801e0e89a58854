"""Spans around the calls into each ywx module, recorded from outside.

``Tracer.install`` replaces every public function of the layer modules, in
every ywx module that holds it by name, with a wrapper that records a span:
name, start, end, parent span and session id. ``uninstall`` puts the
originals back, so untraced sessions run the unmodified program. A metric
whose function no longer exists is reported as absent, not as an error.

Counts are taken from the arguments and values of the wrapped calls; the
time spent counting is excluded from every span's self time.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("comments", "annotations", "model", "render", "queries", "validate", "cli")
VIEWS = ("process", "data", "combined")


def _blocks(root) -> int:
    count, stack = 0, [root]
    while stack:
        block = stack.pop()
        count += 1
        stack.extend(block.children)
    return count


# Counters per function, each taken from the call's arguments and result.
COUNTS = {
    "comments.scan_comment_spans": [("comments.chars", lambda a, r: len(a[0]))],
    "annotations.parse_annotations": [("annotations.count", lambda a, r: len(r))],
    "annotations.parse_annotations_lenient": [("annotations.count", lambda a, r: len(r[0]))],
    "annotations.parse_annotation_file": [
        ("annotations.count", lambda a, r: len(r.annotations))],
    "model.build_blocks": [("model.blocks", lambda a, r: _blocks(r))],
    "model.infer_channels": [("model.channels", lambda a, r: len(r))],
    "model.parse_model": [("model.blocks", lambda a, r: _blocks(r.root)),
                          ("model.channels", lambda a, r: len(r.channels))],
    "render.render": [("render.dot_lines", lambda a, r: r.count("\n"))],
    "queries.build_dependency_graph": [
        ("queries.graph_nodes", lambda a, r: len(r.nodes)),
        ("queries.graph_edges", lambda a, r: sum(len(v) for v in r.forward.values())),
    ],
    "validate.validate_sources": [("validate.diagnostics", lambda a, r: len(r))],
}


def _span_name(name: str, args: tuple, kwargs: dict) -> str:
    """Label calls whose cost depends on an argument the name does not show."""
    if name == "render.render":
        options = args[1] if len(args) > 1 else kwargs.get("options")
        view = getattr(options, "view", "process")
        return f"render.{view}.{'nested' if getattr(options, 'nested', False) else 'flat'}"
    if name == "cli.run":
        argv = args[0] if args else kwargs.get("argv")
        return f"cli.run.{argv[0] if argv else 'none'}"
    if name == "queries.infer_file_lineage":
        direction = args[2] if len(args) > 2 else kwargs.get("direction")
        return f"queries.infer_file_lineage.{direction}"
    return name


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent id, session, name, start, end, self s)
        self.session: int | None = None
        self.functions: set[str] = set()
        self._stack: list[list] = []
        self._counts: dict[int, Counter] = defaultdict(Counter)
        self._patched: list[tuple] = []
        self._next_id = 0

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        counters = COUNTS.get(name, ())

        def traced(*args, **kwargs):
            if tracer.session is None:
                return fn(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            frame = [span_id, 0.0]
            tracer._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                if parent is not None:
                    parent[1] += end - start
                tracer.spans.append((span_id, parent[0] if parent else None, tracer.session,
                                     _span_name(name, args, kwargs), start, end,
                                     end - start - frame[1]))
            if counters:
                # Counting runs inside the caller's span: charge it to no one.
                start = perf_counter()
                for counter, size in counters:
                    tracer._counts[tracer.session][counter] += size(args, result)
                if parent is not None:
                    parent[1] += perf_counter() - start
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [sys.modules[n] for n in list(sys.modules) if n == "ywx" or n.startswith("ywx.")]
        for layer in LAYERS:
            module = importlib.import_module(f"ywx.{layer}")
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__ or inspect.isgeneratorfunction(fn)):
                    continue
                self.functions.add(f"{layer}.{attr}")
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, key, wrapper)
                            self._patched.append((holder, key, fn))

    def uninstall(self) -> None:
        for holder, key, fn in reversed(self._patched):
            setattr(holder, key, fn)
        self._patched.clear()

    def count(self, counter: str, amount: int) -> None:
        """Add a count measured by the benchmark itself to the current session."""
        self._counts[self.session][counter] += amount

    # -- metrics ----------------------------------------------------------------

    def metrics(self, names: list[str], sessions: list[int]) -> tuple[dict, list]:
        """Values of the named per-layer metrics, and the names now absent.

        ``X.ms`` / ``X.self_ms`` is the median self time per call of span X;
        ``X.calls`` the median number of X spans per session; any other name
        is a counter's median total per session. A metric of a function the
        program no longer has reads 0 and is listed as absent.
        """
        self_ms = defaultdict(list)
        calls = defaultdict(Counter)
        for _, _, session, span, _, _, own in self.spans:
            self_ms[span].append(own * 1000.0)
            calls[span][session] += 1
        values, absent = {}, []
        for name in names:
            span, _, suffix = name.rpartition(".")
            if suffix in ("ms", "self_ms"):
                values[name] = statistics.median(self_ms[span]) if self_ms[span] else 0.0
            elif suffix == "calls":
                values[name] = statistics.median(calls[span][s] for s in sessions)
            else:
                values[name] = statistics.median(self._counts[s][name] for s in sessions)
                continue
            module, function = span.split(".")[:2]
            if module == "render" and function in VIEWS:
                function = "render"
            if f"{module}.{function}" not in self.functions:
                absent.append(name)
        return values, absent
