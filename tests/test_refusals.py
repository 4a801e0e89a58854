"""Every refusal of an edited intermediate or style file exits 2, on one line.

A model file or an annotation listing, written by ``ywx model`` or ``ywx
extract`` from a generated script, is edited at one path, channels and
sinks included: the value there is replaced by another JSON value, its key
is removed, or a key is added to the object there. Reading the edited file
exits 0 or 2, never 1 and never with a traceback, and a refusal is one
``ywx: error:`` line. The public parser raises nothing but ``YwxError`` on
the text. A model file's refusal names the file, and so does a listing's
format refusal; a listing whose annotations do not build is refused naming
its script. Each refusal of the readers' format checks is also reached by
one fixed edit below.

A style file read through ``YWX_STYLE`` with an unknown key, a line with no
``=``, an empty value or bytes that are not UTF-8 exits 2, naming the file.
"""

import json
import os
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import SELF_FEEDING_SRC, call, random_tree, script_from_tree
from ywx.annotations import parse_annotation_file
from ywx.errors import MalformedModel, MalformedRecord, YwxError
from ywx.model import parse_model
from ywx.render import DEFAULT_STYLE

# Replacement values: one of each JSON type, and an empty one of each
# container and of a string.
VALUES = (None, True, 0, 1.5, "", "x", [], {})
# Keys to add: none a reader ignores but "extra", some it reads.
KEYS = ("extra", "name", "file", "description", "children", "annotations", "root")


def _write(tmp, name, text):
    path = tmp / name
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def intermediates(tmp_path_factory):
    """Name to the decoded payload of a listing or a model file written from
    generated scripts: two with an explicit root, and a model file whose
    root is implicit, holding a generated script and SELF_FEEDING_SRC."""
    tmp = tmp_path_factory.mktemp("intermediates")
    found, rng = {}, random.Random(2101)
    scripts = []
    while len(scripts) < 2:
        path = _write(tmp, f"w{len(scripts)}.py", script_from_tree(random_tree(rng, 12), rng))
        if call(["model", path])[0] == 0:  # no ambiguous writer
            scripts.append(path)
    feeding = _write(tmp, "feeding.py", SELF_FEEDING_SRC)
    for index, script in enumerate(scripts):
        found[f"listing{index}"] = json.loads(call(["extract", script])[1])
        found[f"model{index}"] = json.loads(call(["model", script])[1])
    found["implicit"] = json.loads(call(["model", scripts[0], feeding])[1])
    assert found["implicit"]["root"]["span"][0] == 0
    return found


def _paths(value, path=()):
    """Every path into a decoded JSON value, its own first."""
    yield path
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        items = ()
    for key, item in items:
        yield from _paths(item, (*path, key))


def _at(payload, path):
    for key in path:
        payload = payload[key]
    return payload


def _edited(payload, path, how, new):
    """A copy of ``payload`` with the value at ``path`` replaced by ``new``,
    its key removed, or key ``new`` added to the object there."""
    payload = json.loads(json.dumps(payload))
    if how == "add":
        _at(payload, path)[new] = "extra"
    elif how == "remove":
        del _at(payload, path[:-1])[path[-1]]
    elif path:
        _at(payload, path[:-1])[path[-1]] = new
    else:
        payload = new
    return payload


@st.composite
def edits(draw, intermediates):
    name = draw(st.sampled_from(sorted(intermediates)))
    payload = intermediates[name]
    path = draw(st.sampled_from(list(_paths(payload))))
    value = _at(payload, path)
    ways = ["replace"]
    if path and isinstance(_at(payload, path[:-1]), dict):
        ways.append("remove")
    if isinstance(value, dict):
        ways.append("add")
    how = draw(st.sampled_from(ways))
    if how == "remove":
        return name, path, how, None
    if how == "add":
        return name, path, how, draw(st.sampled_from([k for k in KEYS if k not in value]))
    strings = sorted({s for p in _paths(payload) if isinstance(s := _at(payload, p), str)})
    old = json.dumps(value)
    new = draw(st.sampled_from([v for v in (*VALUES, *strings) if json.dumps(v) != old]))
    return name, path, how, new


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("edited")


@settings(max_examples=300, deadline=2000)
@given(data=st.data())
def test_edited_intermediate_exits_0_or_2(intermediates, workdir, data):
    name, path, how, new = data.draw(edits(intermediates))
    payload = _edited(intermediates[name], path, how, new)
    text = json.dumps(payload, indent=2)
    file = _write(workdir, "edited.json", text)
    listing = isinstance(payload, dict) and "annotations" in payload
    argv = ["model", file] if listing else ["graph", file, "--view", "combined", "--nested"]
    code, _, err = call(argv)
    assert code in (0, 2), err
    try:
        (parse_annotation_file if listing else parse_model)(text)
    except YwxError as exc:
        refusal = exc
    else:
        refusal = None
    if code == 0:
        assert err == "" and refusal is None
        return
    assert err.startswith("ywx: error: ") and err.count("\n") == 1, err
    if listing and refusal is None:  # the annotations do not build
        assert f"{payload['source']['file']}:" in err, err
    else:
        assert file in err, err


# -- one fixed edit per refusal of the format checks ---------------------------

def _feeding(tmp_path, command):
    """The decoded listing or model file of SELF_FEEDING_SRC: W holds C
    (in d, out d) and the program Y (in d, out f)."""
    script = _write(tmp_path, "feeding.py", SELF_FEEDING_SRC)
    return json.loads(call([command, script])[1])


def _port(payload):
    return payload["root"]["children"][0]["ports"][0]


MODEL_REFUSALS = {
    "port not an object": (
        lambda p: p["root"]["children"][0]["ports"].__setitem__(0, 1),
        "port of 'W.C' must be an object",
    ),
    "bad port name": (lambda p: _port(p).__setitem__("name", 1), "bad port name 1 on 'W.C'"),
    "port description": (
        lambda p: _port(p).__setitem__("description", []),
        "port 'd' on 'W.C' has a non-string description",
    ),
    "block description": (
        lambda p: p["root"]["children"][0].__setitem__("description", 0),
        "block 'C' has a non-string description",
    ),
    "no child list": (
        lambda p: p["root"]["children"][1].__delitem__("children"),
        "block 'Y' needs a child list",
    ),
    "root without children": (
        lambda p: p["root"].__setitem__("children", []),
        "root block must be a workflow (have children)",
    ),
    "source files": (
        lambda p: p.__setitem__("source_files", ["feeding.py", 1]),
        "'source_files' must be a list of strings",
    ),
    "channels not a list": (
        lambda p: p.__setitem__("channels", {}),
        "'channels' must be a list",
    ),
    "two writers": (
        lambda p: p["root"]["children"][1]["ports"][1].__setitem__("name", "d"),
        "block tree is ambiguous: ",
    ),
}


@pytest.mark.parametrize("refusal", sorted(MODEL_REFUSALS))
def test_model_file_refusal(tmp_path, refusal):
    edit, message = MODEL_REFUSALS[refusal]
    payload = _feeding(tmp_path, "model")
    edit(payload)
    file = _write(tmp_path, "edited.json", json.dumps(payload))
    code, _, err = call(["query", "blocks", file])
    assert code == 2
    assert err.startswith(f"ywx: error: {file}: {message}"), err
    with pytest.raises(MalformedModel, match=re.escape(message)):
        parse_model(json.dumps(payload))


def test_model_file_top_level_must_be_an_object():
    with pytest.raises(MalformedModel, match="top level must be an object"):
        parse_model("[]")


@pytest.mark.parametrize(
    "field, value, message",
    [
        (None, 1, "must be an object"),
        ("tag", 1, "'tag' must be a string"),
        ("value", None, "'value' must be a string"),
        ("description", {}, "'description' must be a string or null"),
    ],
)
def test_listing_record_refusal(tmp_path, field, value, message):
    payload = _feeding(tmp_path, "extract")
    if field is None:
        payload["annotations"][1] = value
    else:
        payload["annotations"][1][field] = value
    file = _write(tmp_path, "edited.json", json.dumps(payload))
    where = "" if field is None else f" (script line {payload['annotations'][1]['line']})"
    expected = f"ywx: error: {file}: annotation record 1{where}: {message}\n"
    assert call(["model", file])[:3:2] == (2, expected)
    with pytest.raises(MalformedRecord, match=re.escape(message)):
        parse_annotation_file(json.dumps(payload))


# -- style files -----------------------------------------------------------------

STYLE_EDITS = {
    "unknown key": lambda key, value: f"{key}.extra = {value}\n".encode(),
    "no =": lambda key, value: f"{key} {value}\n".encode(),
    "empty value": lambda key, value: f"{key} =  \n".encode(),
    "not UTF-8": lambda key, value: f"{key} = {value}".encode() + b"\xff\xfe\n",
}


@settings(max_examples=40, deadline=2000)
@given(
    edit=st.sampled_from(sorted(STYLE_EDITS)),
    key=st.sampled_from(sorted(DEFAULT_STYLE)),
    value=st.sampled_from(["red", "box", "dotted"]),
    at=st.integers(0, len(DEFAULT_STYLE)),
)
def test_edited_style_file_exits_2(tmp_path_factory, edit, key, value, at):
    tmp = tmp_path_factory.mktemp("style")
    script = _write(tmp, "feeding.py", SELF_FEEDING_SRC)
    lines = [f"{k} = {v}\n".encode() for k, v in DEFAULT_STYLE.items()]
    lines.insert(at, STYLE_EDITS[edit](key, value))
    style = tmp / "edited.style"
    style.write_bytes(b"".join(lines))
    os.environ["YWX_STYLE"] = str(style)
    try:
        code, out, err = call(["graph", script])
    finally:
        del os.environ["YWX_STYLE"]
    assert (code, out) == (2, "")
    assert err.startswith(f"ywx: error: {style}:") and err.count("\n") == 1, err
