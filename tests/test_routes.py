"""Three routes, one answer: a script, its listing and its model file.

For generated workflows, every ``graph`` view, with and without
``--nested``, and every structural ``query`` print the same bytes whichever
of the three inputs a command reads, and the model file re-serializes to
itself. Two scripts under one implicit root have no single listing, so they
are checked against their model file alone.

A script file reads as its text does in memory: whatever line endings and
other line-like characters it holds, the commands on the file print what
the library prints for its decoded text.
"""

import random
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from support import BLOCK_QUERIES, NAME_QUERIES, VIEWS, call, random_tree, script_from_tree
from ywx.annotations import AnnotationDocument, parse_annotations, serialize_annotations
from ywx.comments import detect_language, extract_comments
from ywx.errors import YwxError
from ywx.model import build_model, iter_blocks, parse_model, serialize_model
from ywx.validate import validate_scripts, validate_sources

FIXTURES = Path(__file__).parent / "fixtures"


def _commands(model, rng):
    """Every view, then every structural query, each asked about a block or
    data name of ``model`` that ``rng`` picks: as (command, options) pairs,
    the inputs going between them."""
    blocks = [b.qualified_name for b in iter_blocks(model.root)]
    names = sorted({p.name for b in iter_blocks(model.root) for p in b.ports})
    found = [(["graph"], view) for view in VIEWS]
    found.append((["query", "blocks"], []))
    found += [(["query", sub], ["--block", rng.choice(blocks)]) for sub in BLOCK_QUERIES]
    found += [(["query", sub], ["--name", rng.choice(names)]) for sub in NAME_QUERIES]
    return found


def _assert_routes_agree(routes, model_file, rng):
    """Each command prints the same bytes and exits alike on every route."""
    text = Path(model_file).read_text(encoding="utf-8")
    assert serialize_model(parse_model(text)) == text
    for command, options in _commands(parse_model(text), rng):
        results = set()
        for inputs in routes:
            code, out, err = call([*command, *inputs, *options])
            assert code in (0, 2), err
            results.add((code, out))
        assert len(results) == 1, (command, options, results)


@settings(max_examples=50, deadline=2000)
@given(seed=st.integers(0, 2**32 - 1))
def test_script_listing_and_model_file_agree(seed):
    rng = random.Random(seed)
    tree = random_tree(rng, max_blocks=25)
    with tempfile.TemporaryDirectory() as tmp:
        script, listing, model_file = (str(Path(tmp) / n) for n in ("w.py", "w.json", "m.json"))
        Path(script).write_text(script_from_tree(tree, rng), encoding="utf-8")
        assert call(["extract", script, "-o", listing])[0] == 0
        code, _, err = call(["model", script, "-o", model_file])
        if code:
            # An ambiguous writer: no model file, and the listing fails alike.
            assert "several writers" in err
            assert call(["model", listing])[0] == 2
            return
        _assert_routes_agree([[script], [listing], [model_file]], model_file, rng)


def test_two_scripts_and_their_model_file_agree(tmp_path):
    scripts = [str(FIXTURES / "affymetrix.R"), str(FIXTURES / "paleoclimate.R")]
    model_file = str(tmp_path / "m.json")
    assert call(["model", *scripts, "-o", model_file])[0] == 0
    assert parse_model(Path(model_file).read_text()).root.span[0] == 0  # implicit
    _assert_routes_agree([scripts, [model_file]], model_file, random.Random(7))


# -- a file reads as its text does in memory ------------------------------------

# One workflow's lines, each followed by a break and at times by a code line.
# Only "\n" ends a line, so a line joined to the next by any other break
# merges into it: a comment swallows the code or the tags after it, and every
# later line number shifts.
_LINES = (
    "# @begin W @in a @out b", "x = a", "# @begin P", "# @in a", "# @out b",
    "b = g()", "# @end P", "# @end W",
)
_BREAKS = st.lists(
    st.sampled_from(["\n", "\n", "\r\n", "\r", "\f", "\v", "\x85", "\u2028"]),
    min_size=len(_LINES), max_size=len(_LINES),
)
_CODE = st.lists(
    st.sampled_from(["", "y = a", "b = a"]), min_size=len(_LINES), max_size=len(_LINES)
)


def _outcome(make):
    """What a command prints for the library's result: ``make()`` or its refusal."""
    try:
        return 0, make(), ""
    except YwxError as exc:
        return 2, "", f"ywx: error: {exc}\n"


@settings(max_examples=150, deadline=None)
@given(bom=st.booleans(), breaks=_BREAKS, code=_CODE)
def test_a_file_reads_as_its_text_in_memory(tmp_path_factory, bom, breaks, code):
    text = "\ufeff" * bom + "".join(
        line + end + (extra and extra + end) for line, end, extra in zip(_LINES, breaks, code)
    )
    path = tmp_path_factory.mktemp("disk") / "w.py"
    path.write_bytes(text.encode("utf-8"))
    name, syntax = str(path), detect_language(str(path))
    assert validate_scripts([path]) == validate_sources([(name, text, syntax)])

    def annotations():
        return tuple(parse_annotations(extract_comments(text, syntax, name)))

    def listing():
        return serialize_annotations(AnnotationDocument(name, "python", annotations()))

    def model():
        return serialize_model(build_model(annotations(), source_files=[name]))

    assert call(["extract", name]) == _outcome(listing)
    assert call(["model", name]) == _outcome(model)
