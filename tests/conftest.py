"""Session fixtures shared across the test modules."""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

from support import (
    model_from_source,
    oracle_channels,
    random_tree,
    script_from_tree,
)
import ywx.comments
from ywx.errors import AmbiguousWriter

CORPUS_SEED = 20260819
CORPUS_SIZE = 500

FIXTURES = Path(__file__).parent / "fixtures"


def build_corpus(size: int = CORPUS_SIZE, seed: int = CORPUS_SEED):
    """Random cases split into buildable models and multi-writer rejects.

    Returns (buildable, rejected): buildable holds (tree, script, model,
    expected_channels, ambiguous_scopes) tuples, rejected holds (tree, script,
    ambiguous_scopes) for cases where model building raised AmbiguousWriter.
    """
    rng = random.Random(seed)
    buildable = []
    rejected = []
    while len(buildable) + len(rejected) < size:
        tree = random_tree(rng)
        script = script_from_tree(tree, rng)
        expected, ambiguous = oracle_channels(tree)
        try:
            model = model_from_source(script)
        except AmbiguousWriter:
            rejected.append((tree, script, ambiguous))
            continue
        buildable.append((tree, script, model, expected, ambiguous))
    return buildable, rejected


@pytest.fixture(scope="session")
def corpus():
    return build_corpus()


@pytest.fixture(scope="session")
def corpus_models(corpus):
    return [case[2] for case in corpus[0]]


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture
def scans(monkeypatch):
    """The files ``comments._scan`` is called on in the test, in order."""
    scanned = []
    original = ywx.comments._scan

    def counting(source, syntax, file):
        scanned.append(file)
        return original(source, syntax, file)

    for name, module in list(sys.modules.items()):
        if name.startswith("ywx") and getattr(module, "_scan", None) is original:
            monkeypatch.setattr(module, "_scan", counting)
    return scanned


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one line per acceptance criterion after any run that touched them."""
    try:
        import test_acceptance
    except ImportError:
        return
    results = getattr(test_acceptance, "RESULTS", {})
    if not results:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for number in sorted(test_acceptance.CRITERIA):
        label = test_acceptance.CRITERIA[number]
        if number in results:
            status = "PASS" if results[number] else "FAIL"
        else:
            status = "NOT RUN"
        terminalreporter.write_line(f"criterion {number}: {status} - {label}")
