"""The record types' contract, and the two routes from a script to its model.

Every record a model load builds is a frozen dataclass: its fields, their
order and defaults, construction, ``repr``, equality, hashing,
``dataclasses.replace`` and the refusal to be assigned to are pinned here
for each type. The CLI reads a script straight from comment text to
annotations, without comment records; its model must equal the library's
``build_model(parse_annotations(extract_comments(...)))``, errors included.
"""

import dataclasses
import sys
from dataclasses import MISSING, FrozenInstanceError
from itertools import starmap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ywx import cli
from ywx.annotations import Annotation, AnnotationDocument, Tag, parse_annotations
from ywx.comments import SourceComment, detect_language, extract_comments
from ywx.errors import YwxError
from ywx.model import (
    Block,
    Channel,
    Direction,
    Endpoint,
    Port,
    Role,
    WorkflowModel,
    build_model,
)

FIXTURES = Path(__file__).parent / "fixtures"
PERFBENCH = Path(__file__).parent.parent / "perfbench"

_PORT = Port("x", Direction.IN, Role.DATA, "s.py", 3, "raw input")
_SINK = Endpoint("W.B", Direction.IN)
_LEAF = Block("A", "W.A", None, (_PORT,), (), (2, 5), "s.py")
_ROOT = Block("W", "W", "the top", (), (_LEAF,), (1, 9), "s.py")
_ANNOTATION = Annotation(Tag.IN, "x", None, "s.py", 3)

# (type, [(field, default)], the values of one record, another value for its
# first field)
RECORDS = [
    (
        SourceComment,
        [("text", MISSING), ("file", MISSING), ("start_line", MISSING), ("end_line", MISSING)],
        ("@in x", "s.py", 3, 3),
        "@out y",
    ),
    (
        Annotation,
        [
            ("tag", MISSING),
            ("value", MISSING),
            ("description", MISSING),
            ("file", MISSING),
            ("line", MISSING),
        ],
        (Tag.IN, "x", "raw input", "s.py", 3),
        Tag.OUT,
    ),
    (
        AnnotationDocument,
        [("source_file", MISSING), ("language", MISSING), ("annotations", MISSING)],
        ("s.py", "python", (_ANNOTATION,)),
        "t.py",
    ),
    (
        Port,
        [
            ("name", MISSING),
            ("direction", MISSING),
            ("role", MISSING),
            ("file", MISSING),
            ("line", MISSING),
            ("description", None),
        ],
        ("x", Direction.OUT, Role.DATA, "s.py", 4, "the table"),
        "y",
    ),
    (
        Block,
        [
            ("name", MISSING),
            ("qualified_name", MISSING),
            ("description", MISSING),
            ("ports", MISSING),
            ("children", MISSING),
            ("span", MISSING),
            ("file", MISSING),
        ],
        ("W", "W", "the top", (_PORT,), (_LEAF,), (1, 9), "s.py"),
        "V",
    ),
    (
        Endpoint,
        [("block", MISSING), ("direction", MISSING)],
        ("W.A", Direction.OUT),
        "W.C",
    ),
    (
        Channel,
        [
            ("data", MISSING),
            ("scope", MISSING),
            ("role", MISSING),
            ("source", MISSING),
            ("sinks", MISSING),
        ],
        ("x", "W", Role.PARAMETER, Endpoint("W", Direction.IN), (_SINK,)),
        "y",
    ),
    (
        WorkflowModel,
        [("root", MISSING), ("channels", MISSING), ("source_files", MISSING)],
        (_ROOT, (), ("s.py",)),
        _LEAF,
    ),
]
_IDS = [entry[0].__name__ for entry in RECORDS]


@pytest.mark.parametrize("cls, spec, values, other", RECORDS, ids=_IDS)
class TestRecordContract:
    def test_fields_order_and_defaults(self, cls, spec, values, other):
        fields = dataclasses.fields(cls)
        assert [(f.name, f.default) for f in fields] == spec
        assert all(f.default_factory is MISSING for f in fields)

    def test_positional_and_keyword_construction(self, cls, spec, values, other):
        names = [name for name, _ in spec]
        by_position = cls(*values)
        by_keyword = cls(**dict(zip(names, values)))
        assert by_position == by_keyword
        assert [getattr(by_position, name) for name in names] == list(values)

    def test_defaults_fill_omitted_fields(self, cls, spec, values, other):
        required = [name for name, default in spec if default is MISSING]
        record = cls(*values[: len(required)])
        for name, default in spec[len(required) :]:
            assert getattr(record, name) == default
        with pytest.raises(TypeError):
            cls(*values[: len(required) - 1])
        with pytest.raises(TypeError):
            cls(*values, "one too many")

    def test_repr_eq_and_hash(self, cls, spec, values, other):
        record, twin = cls(*values), cls(*values)
        fields = ", ".join(f"{name}={value!r}" for (name, _), value in zip(spec, values))
        assert repr(record) == f"{cls.__name__}({fields})"
        assert record == twin and not record != twin
        assert hash(record) == hash(twin)
        changed = cls(other, *values[1:])
        assert record != changed
        assert record != values
        assert len({record, twin, changed}) == 2

    def test_replace(self, cls, spec, values, other):
        record = cls(*values)
        first = spec[0][0]
        replaced = dataclasses.replace(record, **{first: other})
        assert replaced == cls(other, *values[1:])
        assert record == cls(*values)
        assert dataclasses.replace(record) == record

    def test_assignment_is_refused(self, cls, spec, values, other):
        record = cls(*values)
        for name, _ in spec:
            with pytest.raises(FrozenInstanceError):
                setattr(record, name, other)
            with pytest.raises(FrozenInstanceError):
                delattr(record, name)
        assert record == cls(*values)


@pytest.mark.parametrize("cls, spec, values, other", RECORDS, ids=_IDS)
def test_records_are_slotted(cls, spec, values, other):
    record = cls(*values)
    assert not hasattr(record, "__dict__")
    with pytest.raises(TypeError):
        vars(record)
    with pytest.raises((AttributeError, TypeError, FrozenInstanceError)):
        record.not_a_field = 1


# -- the CLI's script load equals the library's ---------------------------------


def _outcome(load):
    """The value of ``load()``, or what identifies the ywx error it raises."""
    try:
        return load()
    except YwxError as exc:
        return (type(exc), exc.message, exc.file, exc.line)


def assert_routes_agree(path: Path, language=None):
    name = str(path)
    syntax = detect_language(name, language)
    text = path.read_text(encoding="utf-8")

    def library():
        return parse_annotations(extract_comments(text, syntax, file=name))

    def library_model():
        return build_model(library(), root_name=path.stem, source_files=[name])

    annotations = _outcome(library)
    read = _outcome(lambda: list(starmap(Annotation, cli._script_tags(name, syntax))))
    assert read == annotations
    model = _outcome(library_model)
    assert _outcome(lambda: cli._model_from_inputs([name], language)) == model
    return annotations, model


def test_routes_agree_on_fixtures():
    scripts = sorted(p for p in FIXTURES.rglob("*") if p.suffix.lower() in (".py", ".r", ".m"))
    assert len(scripts) >= 15
    outcomes = [assert_routes_agree(path) for path in scripts]
    assert any(isinstance(model, WorkflowModel) for _, model in outcomes)
    assert any(isinstance(model, tuple) for _, model in outcomes)


def test_routes_agree_on_corpus(corpus, tmp_path):
    buildable, rejected = corpus
    scripts = [case[1] for case in buildable] + [case[1] for case in rejected]
    assert len(scripts) == 500
    for index, script in enumerate(scripts):
        path = tmp_path / f"case_{index:03d}.py"
        path.write_text(script, encoding="utf-8")
        assert_routes_agree(path)


def test_routes_agree_on_the_scaled_script(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    from workloads import scaled

    case = scaled(1)
    path = tmp_path / case.name
    path.write_text(case.text, encoding="utf-8")
    annotations, model = assert_routes_agree(path)
    assert len(annotations) > 1000
    assert isinstance(model, WorkflowModel)


def test_tag_words_keep_split_and_lower_semantics(tmp_path):
    path = tmp_path / "tags.py"
    path.write_text(
        "# @BEGIN W\n"
        # \x1c, \xa0, \u3000 and \u2003 separate tokens; "\u0130" lowers to two
        # characters, so "@\u0130n" is no tag.
        "# @IN\x1cx @\u0130n y @In\xa0z\n"
        "# @out\u3000q @param\u2003k\n"
        "# @begin A @in x @out q\n"
        "# @end A\n"
        "# @End W\n",
        encoding="utf-8",
    )
    annotations, model = assert_routes_agree(path)
    assert [(a.tag, a.value, a.description) for a in annotations[:3]] == [
        (Tag.BEGIN, "W", None),
        (Tag.IN, "x", "@\u0130n y"),
        (Tag.IN, "z", None),
    ]
    assert isinstance(model, WorkflowModel)


_TAG_SPELLINGS = {
    "begin": ["@begin", "@BEGIN", "@Begin"],
    "end": ["@end", "@END", "@End"],
    "in": ["@in", "@IN", "@In", "@iN"],
    "out": ["@out", "@OUT", "@Out"],
    "param": ["@param", "@PARAM", "@Param"],
}
_TAGS = st.sampled_from(sorted(_TAG_SPELLINGS)).flatmap(
    lambda tag: st.sampled_from(_TAG_SPELLINGS[tag])
)
_VALUES = st.sampled_from(["A", "B", "x", "y", "k", "a.b", "9bad", "bad-name", ""])
_NOISE = st.sampled_from(["@\u0130n", "@\u0131n", "@inx", "x@in", "@", "@desc", "word", "a.b"])
_SPACES = st.sampled_from([" ", "  ", "\t", "\x0b", "\x0c", "\x1c", "\x1f", "\xa0", "\u2003"])
_PORTS = st.tuples(
    st.sampled_from(_TAG_SPELLINGS["in"] + _TAG_SPELLINGS["out"] + _TAG_SPELLINGS["param"]),
    st.sampled_from(["x", "y", "k", "a.b"]),
).map(" ".join)
_PIECES = st.one_of(_PORTS, st.tuples(_TAGS, _VALUES).map(" ".join), _NOISE)
_LINES = st.lists(
    st.tuples(st.lists(st.tuples(_SPACES, _PIECES), max_size=4), _SPACES), max_size=14
)


@settings(max_examples=150, deadline=None)
@given(
    _LINES,
    st.sampled_from(["python", "matlab-line", "matlab-block"]),
    st.booleans(),
    st.booleans(),
)
def test_routes_agree_on_any_comment_text(
    tmp_path_factory, lines, layout, framed, unterminated
):
    texts = ["".join(space + piece for space, piece in pieces) + tail for pieces, tail in lines]
    if framed:
        texts = ["@begin W @begin A"] + texts + ["@end A @begin B @in y @end B @end W"]
    if layout == "python":
        script, suffix = "".join(f"x = 1  #{text}\n" for text in texts), ".py"
    elif layout == "matlab-line":
        script, suffix = "".join(f"y = 2; %{text}\n" for text in texts), ".m"
    else:
        script, suffix = "%{\n" + "".join(f"{text}\n" for text in texts) + "%}\n", ".m"
    if unterminated and suffix == ".m":
        script += "%{\n% @begin Lost\n"
    path = tmp_path_factory.mktemp("routes") / f"s{suffix}"
    path.write_text(script, encoding="utf-8")
    assert_routes_agree(path)


def test_record_refuses_a_default_factory():
    from ywx._record import record

    with pytest.raises(TypeError, match="a record field takes a plain default"):

        @record
        class Listed:
            items: list = dataclasses.field(default_factory=list)
