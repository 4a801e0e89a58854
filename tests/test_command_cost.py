"""What a command costs, counted rather than timed.

A script or listing load through the CLI goes to the block tree with no
``Annotation`` records, and ``extract`` writes its listing straight from the
tag walk with no ``Annotation`` or ``AnnotationDocument`` either. Every
command scans each input script once. Every load, a model file's included,
makes the model in the one walk that brackets the tags, with no later walk
over the tree. A plain call, which every benchmark command is, builds no
argparse parser; any other builds the full tree. ``cli.run`` suspends the
cyclic garbage collector while a command runs and leaves it as it found it.
A model file loads within the memory of its own JSON decode, and a model
file is written within a few times the memory of its largest chunk.
"""

import argparse
import gc
import json
import os
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from ywx import cli, model
from ywx.annotations import Annotation, AnnotationDocument
from ywx.errors import _read_text
from ywx.validate import validate_scripts

FIXTURES = Path(__file__).parent / "fixtures"
NAMES = ("affymetrix.R", "mstmip_nee.m", "paleoclimate.R")
SCRIPTS = [str(FIXTURES / name) for name in NAMES]
BROKEN_CHAIN = str(FIXTURES / "defects" / "d09_broken_chain.py")
MSTMIP = str(FIXTURES / "mstmip_nee.m")
MANIFEST = str(FIXTURES / "mstmip_manifest.json")
PERFBENCH = Path(__file__).parent.parent / "perfbench"


@pytest.fixture
def built(monkeypatch):
    """A one-item list counting the ``Annotation`` records built in the test."""
    count = [0]
    init = Annotation.__init__

    def counting(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Annotation, "__init__", counting)
    return count


@pytest.mark.parametrize("script", SCRIPTS, ids=NAMES)
def test_script_load_builds_no_annotation_records(built, script):
    model = cli._model_from_inputs([script], None)
    assert model.root.children
    assert built[0] == 0


def test_validate_builds_no_annotation_records(built):
    assert validate_scripts(SCRIPTS)
    assert built[0] == 0


@pytest.mark.parametrize("script", SCRIPTS, ids=NAMES)
def test_listing_load_builds_no_annotation_records(built, tmp_path, script):
    listing = tmp_path / "ann.json"
    assert cli.run(["extract", script, "-o", str(listing)]) == 0
    built[0] = 0
    model = cli._model_from_inputs([str(listing)], None)
    assert model == cli._model_from_inputs([script], None)
    assert built[0] == 0


@pytest.mark.parametrize("script", SCRIPTS, ids=NAMES)
def test_extract_builds_no_annotation_records(built, monkeypatch, tmp_path, script):
    documents = [0]
    init = AnnotationDocument.__init__

    def counting(self, *args, **kwargs):
        documents[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(AnnotationDocument, "__init__", counting)
    listing = tmp_path / "ann.json"
    assert cli.run(["extract", script, "-o", str(listing)]) == 0
    tags = json.loads(listing.read_text(encoding="utf-8"))["annotations"]
    assert len(tags) > 10
    assert (built[0], documents[0]) == (0, 0)


@pytest.fixture
def walks(monkeypatch):
    """A counter of the calls to the model module's tree walks, by name."""
    calls = Counter()
    for name in ("iter_blocks", "infer_channels"):

        def counting(*args, _name=name, _walk=getattr(model, name), **kwargs):
            calls[_name] += 1
            return _walk(*args, **kwargs)

        monkeypatch.setattr(model, name, counting)
    return calls


@pytest.mark.parametrize("script", SCRIPTS, ids=NAMES)
def test_script_and_listing_loads_walk_no_tree(walks, tmp_path, script):
    listing = tmp_path / "ann.json"
    assert cli.run(["extract", script, "-o", str(listing)]) == 0
    for path in (script, str(listing)):
        walks.clear()
        assert cli._model_from_inputs([path], None).channels
        assert walks == Counter()


@pytest.mark.parametrize("script", SCRIPTS, ids=NAMES)
def test_model_file_load_infers_channels_once(walks, monkeypatch, tmp_path, script):
    # A model file's channels come from the one _bracket pass over the tags
    # its tree describes, with no later walk over the tree.
    model_file = tmp_path / "model.json"
    assert cli.run(["model", script, "-o", str(model_file)]) == 0
    bracket = model._bracket

    def counting(*args, **kwargs):
        walks["_bracket"] += 1
        return bracket(*args, **kwargs)

    monkeypatch.setattr(model, "_bracket", counting)
    walks.clear()
    loaded = cli._model_from_inputs([str(model_file)], None)
    assert walks == Counter({"_bracket": 1})
    assert loaded.channels
    assert loaded == cli._model_from_inputs([script], None)


@pytest.mark.parametrize(
    "command",
    [["extract"], ["model"], ["graph"], ["query", "blocks"], ["validate"]],
    ids=lambda command: command[0],
)
def test_every_command_scans_each_file_once(scans, built, tmp_path, command):
    # Every command reads scripts through the one reader, which scans each
    # file once and builds no Annotation record.
    scripts = SCRIPTS[:1] if command == ["extract"] else SCRIPTS[:2]
    assert cli.run([*command, *scripts, "-o", str(tmp_path / "out")]) in (0, 1)
    assert (tmp_path / "out").stat().st_size
    assert scans == scripts
    assert built[0] == 0


# -- memory ----------------------------------------------------------------------


def traced_peak(call):
    """The ``tracemalloc`` peak of ``call()`` above the memory traced before it."""
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def chain_script(stages=4, steps=50, outputs=80):
    """A chain of ``stages`` sub-workflows of ``steps`` programs that fans out
    to ``outputs`` programs at the root, each writing one root output."""
    names = [f"report_{i:03d}" for i in range(outputs)]
    lines = ["# @begin pipeline @in raw_input @param cfg"]
    for k in range(0, outputs, 10):
        lines.append("# " + " ".join(f"@out {n}" for n in names[k : k + 10]))
    previous = "raw_input"
    for s in range(stages):
        stage_out = "chain_output" if s == stages - 1 else f"s{s:02d}_{steps - 1:02d}"
        lines.append(f"# @begin stage_{s:02d} @in {previous} @param cfg @out {stage_out}")
        data = previous
        for j in range(steps):
            out = stage_out if j == steps - 1 else f"s{s:02d}_{j:02d}"
            lines.append(f"# @begin step_{j:02d} transforms the data @in {data} @out {out}")
            lines += [f"{out} = step_{j:02d}({data})", f"# @end step_{j:02d}"]
            data = out
        lines.append(f"# @end stage_{s:02d}")
        previous = stage_out
    for i, out in enumerate(names):
        lines.append(f"# @begin summarize_{i:03d} @in chain_output @out {out}")
        lines += [f"{out} = summarize(chain_output)", f"# @end summarize_{i:03d}"]
    lines.append("# @end pipeline")
    return "\n".join(lines) + "\n"


def test_model_file_load_peaks_at_its_json_decode(tmp_path):
    # The text is dropped once decoded and checked, and the tree's dicts as
    # they become the tag stream, so the load's peak is the decode's.
    script = tmp_path / "chain.py"
    script.write_text(chain_script())
    path = str(tmp_path / "model.json")
    assert cli.run(["model", str(script), "-o", path]) == 0
    assert len(cli._load_intermediate(path).channels) > 280
    decode = traced_peak(lambda: json.loads(_read_text(path)))
    assert traced_peak(lambda: cli._load_intermediate(path)) <= 1.1 * decode


def test_model_file_write_peaks_near_its_largest_chunk(tmp_path):
    # A 1,000-deep nest's deepest records are indented 4,000 spaces a line,
    # so text kept per open level would dwarf the largest chunk. Building a
    # chunk takes about twice its size, the sink encodes it once more, and
    # the walk's stack grows with the depth as the chunk does: about 4 here.
    depth = 1000
    lines = [f"# @begin b{i} @in x @out y" for i in range(depth)]
    lines += ["y = x"] + [f"# @end b{i}" for i in reversed(range(depth))]
    script = tmp_path / "nest.py"
    script.write_text("\n".join(lines) + "\n")
    nest = cli._model_from_inputs([str(script)], None)
    largest = max(len(chunk) for chunk in model._model_chunks(nest))

    def write():
        with open(os.devnull, "w", encoding="utf-8") as sink:
            sink.writelines(model._model_chunks(nest))

    assert traced_peak(write) <= 6 * largest

# -- argument parsers ------------------------------------------------------------


@pytest.fixture
def parsers(monkeypatch):
    """A one-item list counting the ``argparse.ArgumentParser``s built in the test."""
    count = [0]
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    return count


FULL_TREE = 6  # the top-level parser and one subparser per command


@pytest.mark.parametrize(
    "argv, code, count",
    [
        pytest.param(["extract", SCRIPTS[0], "-o", "{out}"], 0, 0, id="extract"),
        pytest.param(["model", SCRIPTS[0], "-o", "{out}"], 0, 0, id="model"),
        pytest.param(["graph", SCRIPTS[0], "--nested"], 0, 0, id="graph"),
        pytest.param(
            ["query", "lineage", MSTMIP, "--name", "NEE_std", "--manifest", MANIFEST],
            0,
            0,
            id="query-lineage",
        ),
        pytest.param(["validate", BROKEN_CHAIN], 1, 0, id="validate"),
        pytest.param(["graph", SCRIPTS[0], "--nest"], 0, FULL_TREE, id="abbreviated"),
        pytest.param(["graph", SCRIPTS[0], "--view=data"], 0, FULL_TREE, id="attached-value"),
        pytest.param(["--help"], 0, FULL_TREE, id="help"),
        pytest.param(["graph", SCRIPTS[0], "--bogus"], 2, FULL_TREE, id="bad-flag"),
    ],
)
def test_parsers_built_per_command(parsers, tmp_path, capsys, argv, code, count):
    assert cli.run([a.format(out=tmp_path / "out") for a in argv]) == code
    assert parsers[0] == count


@pytest.mark.parametrize("workload", ["corpus", "scaled"])
def test_every_benchmark_call_is_plain(monkeypatch, workload):
    # The fixtures' queries are chosen from their models when a run starts;
    # the generated cases and the scaled script carry theirs.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import session
    import workloads

    if workload == "corpus":
        cases = [c for c in workloads.corpus(1) if c.kind == "generated"]
    else:
        cases = [workloads.scaled(1)]
    argvs = []
    for case in cases:
        stem = f"scripts/{Path(case.name).stem}"
        manifest = None if case.manifest is None else f"{stem}.manifest.json"
        steps = session.plan(f"scripts/{case.name}", case.queries, manifest)
        argvs += [[*step.argv, "-o", step.output] for step in steps]
    assert len(argvs) > len(cases) * 20
    assert [argv for argv in argvs if cli._read_plain(argv) is None] == []


# -- the cyclic collector -----------------------------------------------------


@pytest.fixture
def collector():
    """Put the collector's state and thresholds back after the test."""
    enabled, thresholds = gc.isenabled(), gc.get_threshold()
    yield
    gc.set_threshold(*thresholds)
    _set_collector(enabled)


def _set_collector(enabled):
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.fixture
def too_deep(tmp_path):
    """A model file nested past the recursion limit: a RecursionError to catch."""
    path = tmp_path / "deep.json"
    path.write_text('{"root": ' + "[" * 100_000 + "]" * 100_000 + ', "channels": []}')
    return str(path)


COMMANDS = [
    pytest.param(["graph", SCRIPTS[0]], 0, id="exit-0"),
    pytest.param(["validate", BROKEN_CHAIN], 1, id="exit-1"),
    pytest.param(["model", "no_such_script.py"], 2, id="exit-2-input"),
    pytest.param([], 2, id="exit-2-usage"),
    pytest.param(["graph", "{too_deep}"], 2, id="recursion"),
]


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("argv, code", COMMANDS)
def test_run_leaves_the_collector_as_it_found_it(
    collector, too_deep, capsys, enabled, argv, code
):
    _set_collector(enabled)
    assert cli.run([a.format(too_deep=too_deep) for a in argv]) == code
    assert gc.isenabled() is enabled
    if argv[:1] == ["graph"] and code == 2:
        assert "nests too deeply" in capsys.readouterr().err


@pytest.mark.parametrize("argv, code", COMMANDS)
def test_no_collection_starts_during_a_command(collector, too_deep, capsys, argv, code):
    gc.enable()
    gc.set_threshold(50, *gc.get_threshold()[1:])  # a pass per 50 net allocations
    starts = []

    def watch(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(watch)
    try:
        status = cli.run([a.format(too_deep=too_deep) for a in argv])
    finally:
        gc.callbacks.remove(watch)
    assert status == code
    assert starts == []
