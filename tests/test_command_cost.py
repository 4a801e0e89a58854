"""What a command costs, counted rather than timed.

A script or listing load through the CLI goes to the block tree with no
``Annotation`` records; only ``extract``, whose listing is made of them,
builds one per tag. It makes the model in the one walk that brackets the
tags, with no later walk over the tree; a model file's channels are derived
by one walk over the tree it holds. A plain call builds no argparse parser; a rarer option
form builds its command's own, and only top-level help and usage errors
build the full tree. ``cli.run`` suspends the cyclic garbage collector
while a command runs and leaves it as it found it.
"""

import argparse
import gc
import json
from collections import Counter
from pathlib import Path

import pytest

from ywx import cli, model
from ywx.annotations import Annotation
from ywx.validate import validate_scripts

FIXTURES = Path(__file__).parent / "fixtures"
NAMES = ("affymetrix.R", "mstmip_nee.m", "paleoclimate.R")
SCRIPTS = [str(FIXTURES / name) for name in NAMES]
BROKEN_CHAIN = str(FIXTURES / "defects" / "d09_broken_chain.py")
MSTMIP = str(FIXTURES / "mstmip_nee.m")
MANIFEST = str(FIXTURES / "mstmip_manifest.json")


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
def test_extract_builds_one_record_per_tag(built, tmp_path, script):
    listing = tmp_path / "ann.json"
    assert cli.run(["extract", script, "-o", str(listing)]) == 0
    tags = json.loads(listing.read_text(encoding="utf-8"))["annotations"]
    assert len(tags) > 10
    assert built[0] == len(tags)


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
def test_model_file_load_infers_channels_once(walks, tmp_path, script):
    model_file = tmp_path / "model.json"
    assert cli.run(["model", script, "-o", str(model_file)]) == 0
    walks.clear()
    assert cli._model_from_inputs([str(model_file)], None).channels
    assert walks["infer_channels"] == 1


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
        pytest.param(["graph", SCRIPTS[0], "--nest"], 0, 1, id="abbreviated"),
        pytest.param(["graph", SCRIPTS[0], "--view=data"], 0, 1, id="attached-value"),
        pytest.param(["--help"], 0, FULL_TREE, id="help"),
        pytest.param(["graph", SCRIPTS[0], "--bogus"], 2, 1 + FULL_TREE, id="bad-flag"),
    ],
)
def test_parsers_built_per_command(parsers, tmp_path, capsys, argv, code, count):
    assert cli.run([a.format(out=tmp_path / "out") for a in argv]) == code
    assert parsers[0] == count


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
