"""What a command costs, counted rather than timed.

A script load through the CLI goes from comment text to the block tree with
no ``Annotation`` records; only ``extract``, whose listing is made of them,
builds one per tag. ``cli.run`` suspends the cyclic garbage collector while
a command runs and leaves it as it found it.
"""

import gc
import json
from pathlib import Path

import pytest

from ywx import cli
from ywx.annotations import Annotation
from ywx.validate import validate_scripts

FIXTURES = Path(__file__).parent / "fixtures"
NAMES = ("affymetrix.R", "mstmip_nee.m", "paleoclimate.R")
SCRIPTS = [str(FIXTURES / name) for name in NAMES]
BROKEN_CHAIN = str(FIXTURES / "defects" / "d09_broken_chain.py")


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
def test_extract_builds_one_record_per_tag(built, tmp_path, script):
    listing = tmp_path / "ann.json"
    assert cli.run(["extract", script, "-o", str(listing)]) == 0
    tags = json.loads(listing.read_text(encoding="utf-8"))["annotations"]
    assert len(tags) > 10
    assert built[0] == len(tags)


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
