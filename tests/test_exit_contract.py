"""The exit-code contract, fuzzed through ``cli.run`` in process.

Every call exits 0, 1 or 2 and lets no exception escape, and exit 1 comes
only from ``validate`` with an ``error`` diagnostic in its output. Calls are
drawn from the commands, subqueries, options and their values, over clean
scripts, a listing and a model file written from one of them, and a run
manifest, each of which may be truncated, have one byte replaced or lose a
line.

The validate guarantee: a script with no error-severity diagnostic builds,
renders every view and answers every structural query, all with exit 0,
except that ``derivation`` refuses a name whose derivation passes through a
feedback loop. Scripts are generated workflows whose annotation lines were
edited.
"""

import contextlib
import io
import json
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import (
    BLOCK_QUERIES,
    NAME_QUERIES,
    VIEWS,
    call,
    closure,
    oracle_edges,
    random_tree,
    script_from_tree,
)
from ywx import cli
from ywx.comments import detect_language
from ywx.model import Direction, iter_blocks, parse_model
from ywx.validate import has_errors, validate_sources

FIXTURES = Path(__file__).parent / "fixtures"
SCRIPTS = ("affymetrix.R", "mstmip_nee.m", "paleoclimate.R")
MUTATIONS = ("truncate", "replace-byte", "drop-line")
NAMES = [
    "affy_analysis", "affy_analysis.Normalize", "Normalize", "QualityControl",
    "standardize_nee.QualityControl", "NEE_data", "NEE_std", "degs", "cel_files",
    "Missing", "",
]
LANGUAGES = {"-l": ["python", "r", "matlab", "generic", "cobol"]}
JSON = {"--json": []}
OPTIONS_OF = {
    "extract": LANGUAGES,
    "model": LANGUAGES,
    "graph": {
        **LANGUAGES,
        "--view": ["process", "data", "combined"],
        "--rankdir": ["LR", "TB"],
        "--focus": NAMES,
        "--nested": [],
        "--de-emphasize-params": [],
    },
    "query": {
        **LANGUAGES,
        **JSON,
        "--block": NAMES,
        "--name": NAMES,
        "--direction": ["upstream", "downstream"],
    },
    "validate": {**LANGUAGES, **JSON},
}


@pytest.fixture(scope="module")
def sources(tmp_path_factory):
    """Input name to (suffix, bytes): the clean scripts, a listing and a model
    file written from the MsTMIP script, and its run manifest."""
    tmp = tmp_path_factory.mktemp("sources")
    found = {name: (Path(name).suffix, (FIXTURES / name).read_bytes()) for name in SCRIPTS}
    for command in ("extract", "model"):
        out = tmp / f"{command}.json"
        assert cli.run([command, str(FIXTURES / "mstmip_nee.m"), "-o", str(out)]) == 0
        found[command] = (".json", out.read_bytes())
    found["manifest"] = (".json", (FIXTURES / "mstmip_manifest.json").read_bytes())
    return found


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("calls")


def mutate(data, how, at, byte):
    if how == "none" or not data:
        return data
    at %= len(data)
    if how == "truncate":
        return data[:at]
    if how == "replace-byte":
        return data[:at] + bytes([byte]) + data[at + 1 :]
    lines = data.splitlines(keepends=True)
    del lines[at % len(lines)]
    return b"".join(lines)


inputs = st.tuples(
    st.sampled_from([*SCRIPTS, "extract", "model", "manifest"]),
    st.just("none") | st.sampled_from(MUTATIONS),
    st.integers(0, 1 << 16),
    st.integers(0, 255),
)


@st.composite
def calls(draw):
    """A command with its positionals, inputs, options and, for a query, a
    manifest, with the inputs drawn and not yet written."""
    head = [draw(st.sampled_from(sorted(cli._COMMANDS)))]
    if head == ["query"]:
        head.append(draw(st.sampled_from(cli.QUERY_NAMES)))
    table = OPTIONS_OF[head[0]]
    drawn = draw(st.lists(inputs, min_size=1, max_size=1 if head == ["extract"] else 2))
    manifest = draw(st.none() | inputs) if head[0] == "query" else None
    options = [
        [flag, draw(st.sampled_from(table[flag]))] if table[flag] else [flag]
        for flag in draw(st.lists(st.sampled_from(sorted(table)), max_size=4))
    ]
    if head[0] == "query":  # most subqueries need one of these
        options += [[flag, draw(st.sampled_from(NAMES))] for flag in ("--block", "--name")]
    return head, drawn, manifest, options


@settings(max_examples=200, deadline=None)
@given(call=calls(), to_file=st.booleans())
def test_exit_code_contract(sources, workdir, call, to_file):
    def place(index, source):
        name, how, at, byte = source
        suffix, data = sources[name]
        path = workdir / f"in{index}{suffix}"
        path.write_bytes(mutate(data, how, at, byte))
        return str(path)

    head, drawn, manifest, options = call
    argv = [*head, *(place(i, source) for i, source in enumerate(drawn))]
    if manifest is not None:
        argv += ["--manifest", place(len(drawn), manifest)]
    argv += [word for option in options for word in option]
    out_path = workdir / "out.txt"
    out_path.unlink(missing_ok=True)
    if to_file:
        argv += ["-o", str(out_path)]

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.run(argv)

    assert code in (0, 1, 2), (argv, stderr.getvalue())
    if code == 1:
        assert head == ["validate"], argv
        text = out_path.read_text(encoding="utf-8") if to_file else stdout.getvalue()
        if "--json" in argv:
            assert any(d["severity"] == "error" for d in json.loads(text)), argv
        else:
            assert ": error YW" in text, argv


# -- the validate guarantee on edited annotation streams -----------------------

_PORT_VALUE = re.compile(r"@(?:in|out|param) (\S+)")
EDITS = st.tuples(
    st.sampled_from(["drop", "duplicate", "swap", "rename"]),
    st.integers(0, 1 << 16),
    st.integers(0, 1 << 16),
    st.integers(0, 1 << 16),
)


def edit(lines, how, a, b, c):
    """``lines`` with one annotation line dropped, duplicated or swapped with
    another, or with one port's name replaced by another the script uses. A
    renamed block fails to match its ``@end``, so only ports are renamed."""
    at = [i for i, line in enumerate(lines) if line.startswith("# @")]
    ports = [i for i in at if _PORT_VALUE.search(lines[i])]
    if how == "rename":
        if not ports:
            return lines
        names = sorted({m[1] for line in lines for m in _PORT_VALUE.finditer(line)})
        lines, i = list(lines), ports[a % len(ports)]
        values = list(_PORT_VALUE.finditer(lines[i]))
        value = values[b % len(values)]
        lines[i] = lines[i][: value.start(1)] + names[c % len(names)] + lines[i][value.end(1) :]
        return lines
    if not at:
        return lines
    lines, i, j = list(lines), at[a % len(at)], at[b % len(at)]
    if how == "drop":
        del lines[i]
    elif how == "duplicate":
        lines.insert(i, lines[i])
    else:
        lines[i], lines[j] = lines[j], lines[i]
    return lines


@settings(max_examples=500, deadline=2000)
@given(seed=st.integers(0, 2**32 - 1), edits=st.lists(EDITS, max_size=3), data=st.data())
def test_no_error_diagnostic_means_every_command_succeeds(workdir, seed, edits, data):
    rng = random.Random(seed)
    lines = script_from_tree(random_tree(rng, max_blocks=10), rng).splitlines(keepends=True)
    for how, a, b, c in edits:
        lines = edit(lines, how, a, b, c)
    text, path = "".join(lines), str(workdir / "edited.py")
    Path(path).write_text(text, encoding="utf-8")
    if has_errors(validate_sources([(path, text, detect_language(path))])):
        return
    code, out, err = call(["model", path])
    assert code == 0, err
    model = parse_model(out)
    root = model.root
    blocks = [b.qualified_name for b in iter_blocks(root)]
    inputs = sorted(p.name for p in root.ports if p.direction is Direction.IN)
    names = sorted(
        {p.name for p in root.ports}
        | {ch.data for ch in model.channels if ch.scope == root.qualified_name}
    )
    commands = [["graph", path, *view] for view in VIEWS] + [["query", "blocks", path]]
    commands += [
        ["query", sub, path, "--block", data.draw(st.sampled_from(blocks))]
        for sub in BLOCK_QUERIES
    ]
    for sub in NAME_QUERIES:
        pool = inputs if sub == "affected-by" else names
        if pool:
            commands.append(["query", sub, path, "--name", data.draw(st.sampled_from(pool))])
    for argv in commands:
        code, _, err = call(argv)
        if code and argv[1] == "derivation":
            assert err.endswith("passes through a feedback loop\n"), err
            assert _loop_behind(model, argv[-1]), argv
            continue
        assert code == 0, (argv, err)


def _loop_behind(model, name):
    """Whether a dependency cycle lies behind the root-scope data ``name``."""
    edges = oracle_edges(model)
    involved = closure(edges, {("data", model.root.qualified_name, name)}, reverse=True)
    return any(a in closure(edges, {b}) for a, b in edges if b in involved)
