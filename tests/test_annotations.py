"""Annotation recognition and the JSON interchange round-trip."""

import json
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import annotations_from_source, document_payload, stdlib_json
from ywx import cli
from ywx.annotations import (
    Annotation,
    AnnotationDocument,
    Tag,
    _tags,
    parse_annotation_file,
    parse_annotations,
    serialize_annotations,
)
from ywx.comments import SourceComment, detect_language, extract_comments
from ywx.errors import InvalidValue, MalformedRecord, MissingValue, YwxError


def comment(text, line=1, file="s.py"):
    return SourceComment(text, file, line, line)


class TestRecognition:
    def test_basic_tags(self):
        got = parse_annotations([comment("@begin Load @in raw @out table", line=4)])
        assert [(a.tag, a.value, a.line) for a in got] == [
            (Tag.BEGIN, "Load", 4),
            (Tag.IN, "raw", 4),
            (Tag.OUT, "table", 4),
        ]

    def test_case_insensitive_tags(self):
        got = parse_annotations([comment("@BEGIN Load @In raw @PARAM k")])
        assert [a.tag for a in got] == [Tag.BEGIN, Tag.IN, Tag.PARAM]
        assert [a.value for a in got] == ["Load", "raw", "k"]

    def test_description_runs_until_next_tag(self):
        got = parse_annotations(
            [comment("@begin Fit the model fitting stage @in xs raw points @out fit")]
        )
        assert got[0].description == "the model fitting stage"
        assert got[1].description == "raw points"
        assert got[2].description is None

    def test_desc_keyword_is_plain_text(self):
        got = parse_annotations([comment("@in grid @desc monthly values")])
        assert len(got) == 1
        assert got[0].description == "@desc monthly values"

    def test_end_value_optional(self):
        got = parse_annotations([comment("@end"), comment("@end Load")])
        assert [(a.tag, a.value) for a in got] == [(Tag.END, ""), (Tag.END, "Load")]

    def test_end_followed_by_tag_keeps_empty_value(self):
        got = parse_annotations([comment("@end @begin Next")])
        assert [(a.tag, a.value) for a in got] == [(Tag.END, ""), (Tag.BEGIN, "Next")]

    def test_dotted_values_allowed(self):
        got = parse_annotations([comment("@in NEE.monthly @out run_2.std")])
        assert [a.value for a in got] == ["NEE.monthly", "run_2.std"]

    def test_embedded_at_word_is_not_a_tag(self):
        got = parse_annotations([comment("mail me@begin.org about @output stuff")])
        assert got == []

    def test_plain_comments_ignored(self):
        assert parse_annotations([comment("just prose"), comment("TODO: fix")]) == []

    def test_missing_value_raises(self):
        with pytest.raises(MissingValue):
            parse_annotations([comment("@in")])
        with pytest.raises(MissingValue):
            parse_annotations([comment("@begin @in x")])

    def test_invalid_value_raises(self):
        with pytest.raises(InvalidValue):
            parse_annotations([comment("@out 9lives")])
        with pytest.raises(InvalidValue):
            parse_annotations([comment("@begin bad-name")])

    def test_location_comes_from_comment(self):
        got = parse_annotations([comment("@begin X", line=12, file="w.R")])
        assert (got[0].file, got[0].line) == ("w.R", 12)

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("x@in a", []),
            ("@IN a", [(Tag.IN, "a", None)]),
            ("@In a", [(Tag.IN, "a", None)]),
            ("@@in a", []),
            ("@in, a", []),
            ("@out a then @in, b", [(Tag.OUT, "a", "then @in, b")]),
            ("@begin Load @end", [(Tag.BEGIN, "Load", None), (Tag.END, "", None)]),
            (
                "@begin Load ask user@begin.org first @in raw",
                [(Tag.BEGIN, "Load", "ask user@begin.org first"), (Tag.IN, "raw", None)],
            ),
        ],
    )
    def test_only_whole_tag_tokens_are_tags(self, text, expected):
        got = parse_annotations([comment(text)])
        assert [(a.tag, a.value, a.description) for a in got] == expected

    def test_tag_as_last_token_lacks_its_value(self):
        with pytest.raises(MissingValue):
            parse_annotations([comment("@begin Load @in")])
        problems = []
        got = _tags([("@begin Load @in", "s.py", 7)], problems)
        assert [(tag, value) for tag, value, *_ in got] == [(Tag.BEGIN, "Load")]
        assert [(type(p), p.line) for p in problems] == [(MissingValue, 7)]


class TestLenient:
    """The tag walk given a list for its problems records each unreadable
    tag there and resumes at the next token."""

    def test_problems_collected_and_rest_kept(self):
        problems = []
        got = _tags([("@begin Work @in 9bad @out fine", "s.py", 3)], problems)
        assert [(tag, value) for tag, value, *_ in got] == [
            (Tag.BEGIN, "Work"),
            (Tag.OUT, "fine"),
        ]
        assert len(problems) == 1
        assert isinstance(problems[0], InvalidValue)
        assert problems[0].line == 3

    def test_missing_value_then_next_tag_survives(self):
        problems = []
        got = _tags([("@in @out result", "s.py", 1)], problems)
        assert [(tag, value) for tag, value, *_ in got] == [(Tag.OUT, "result")]
        assert len(problems) == 1
        assert isinstance(problems[0], MissingValue)

    def test_clean_input_matches_strict(self):
        comments = [comment("@begin A @in x"), comment("@end A")]
        strict = parse_annotations(comments)
        problems = []
        lenient = _tags([(c.text, c.file, c.start_line) for c in comments], problems)
        assert problems == []
        assert [Annotation(*item) for item in lenient] == strict


class TestInterchange:
    def doc(self):
        anns = annotations_from_source(
            """\
            # @begin flow @in a @out b
            # @begin Step @in a the raw value @out b
            b = f(a)
            # @end Step
            # @end flow
            """,
            file="flow.py",
        )
        return AnnotationDocument("flow.py", "python", tuple(anns))

    def test_round_trip(self):
        doc = self.doc()
        assert parse_annotation_file(serialize_annotations(doc)) == doc

    def test_serialized_shape(self):
        import json

        payload = json.loads(serialize_annotations(self.doc()))
        assert payload["source"] == {"file": "flow.py", "language": "python"}
        record = payload["annotations"][0]
        assert record == {
            "tag": "begin",
            "value": "flow",
            "description": None,
            "line": 1,
        }

    def test_file_mismatch_rejected(self):
        doc = AnnotationDocument(
            "a.py", "python", (Annotation(Tag.BEGIN, "X", None, "b.py", 1),)
        )
        with pytest.raises(MalformedRecord):
            serialize_annotations(doc)

    @pytest.mark.parametrize(
        "text",
        [
            "not json",
            "[]",
            '{"annotations": []}',
            '{"source": {"file": "x.py"}, "annotations": []}',
            '{"source": {"file": "x.py", "language": "python"}, "annotations": 3}',
            '{"source": {"file": "x.py", "language": "python"},'
            ' "annotations": [{"tag": "spin", "value": "a", "line": 1}]}',
            '{"source": {"file": "x.py", "language": "python"},'
            ' "annotations": [{"tag": "in", "value": "", "line": 1}]}',
            '{"source": {"file": "x.py", "language": "python"},'
            ' "annotations": [{"tag": "in", "value": "a", "line": 0}]}',
        ],
    )
    def test_malformed_records_rejected(self, text):
        with pytest.raises(MalformedRecord):
            parse_annotation_file(text)

    @staticmethod
    def with_description(raw):
        return (
            '{"source": {"file": "x.py", "language": "python"},'
            ' "annotations": [{"tag": "begin", "value": "a", "line": 1,'
            f' "description": "{raw}"}}]}}'
        )

    @pytest.mark.parametrize("raw", ["\\ud800", "\\uDFFF", "x\\uDbFf", "\\udc00\\ud800", "\ud800"])
    def test_lone_surrogate_rejected(self, raw):
        with pytest.raises(MalformedRecord, match="lone surrogate"):
            parse_annotation_file(self.with_description(raw))

    @pytest.mark.parametrize(
        "raw, description",
        [("\\uD83D\\uDE00", "\U0001F600"), ("\\\\ud800", "\\ud800"), ("\\u00e9", "é")],
    )
    def test_encodable_escapes_accepted(self, raw, description):
        doc = parse_annotation_file(self.with_description(raw))
        assert doc.annotations[0].description == description


_NAMES = st.from_regex(r"[A-Za-z_][A-Za-z0-9_.]{0,8}", fullmatch=True)
_DESCRIPTIONS = st.one_of(
    st.none(),
    st.text(
        alphabet=st.characters(
            min_codepoint=33, max_codepoint=126, blacklist_characters="@"
        ),
        min_size=1,
        max_size=20,
    ).map(lambda s: " ".join(s.split()) or None),
)


@st.composite
def _documents(draw):
    n = draw(st.integers(0, 12))
    annotations = []
    line = 1
    for _ in range(n):
        tag = draw(st.sampled_from(list(Tag)))
        value = "" if tag is Tag.END and draw(st.booleans()) else draw(_NAMES)
        annotations.append(
            Annotation(tag, value, draw(_DESCRIPTIONS), "gen.py", line)
        )
        line += draw(st.integers(1, 3))
    return AnnotationDocument("gen.py", "python", tuple(annotations))


@settings(max_examples=150, deadline=None)
@given(_documents())
def test_interchange_round_trip_property(doc):
    assert parse_annotation_file(serialize_annotations(doc)) == doc


# Any text: non-ASCII, control characters, quotes, backslashes, U+2028.
_TEXT = st.text(st.characters() | st.sampled_from('"\\\x00\x1f\x7f\u2028\u00e9\U0001F600'), max_size=8)


@st.composite
def _any_documents(draw):
    """Documents as the dataclasses hold them, checked by no reader: any text,
    and any int for a line, a bool included (a listing's "line": true loads)."""
    file = draw(_TEXT)
    ints = st.integers(-(10**12), 10**12) | st.booleans()
    annotations = draw(st.lists(
        st.builds(Annotation, st.sampled_from(Tag), _TEXT, st.none() | _TEXT, st.just(file), ints),
        max_size=5,
    ))
    return AnnotationDocument(file, draw(_TEXT), tuple(annotations))


@settings(max_examples=150, deadline=None)
@given(_any_documents())
def test_listing_is_the_stdlib_text(doc):
    assert serialize_annotations(doc) == stdlib_json(document_payload(doc))


def test_corpus_and_fixture_listings_are_the_stdlib_text(corpus, fixtures_dir):
    docs = [
        AnnotationDocument("script.py", "python", tuple(annotations_from_source(case[1])))
        for case in corpus[0] + corpus[1]
    ]
    for path in sorted(fixtures_dir.rglob("*.[pRm]*")):
        syntax = detect_language(str(path), None)
        comments = extract_comments(path.read_text(encoding="utf-8"), syntax, file=str(path))
        try:
            annotations = tuple(parse_annotations(comments))
        except YwxError:
            continue
        docs.append(AnnotationDocument(str(path), syntax.language_name, annotations))
    assert len(docs) == len(corpus[0]) + len(corpus[1]) + 15
    for doc in docs:
        assert serialize_annotations(doc) == stdlib_json(document_payload(doc))


# An independent recognizer: split the text at whole-token tags with one
# regular expression. Only ASCII letters lowercase to a tag word's letters,
# and ``\s`` is the whitespace ``str.split`` splits at.
_TAG_SPLIT = re.compile(
    r"(?<!\S)(@(?:[bB][eE][gG][iI][nN]|[eE][nN][dD]|[iI][nN]|[oO][uU][tT]"
    r"|[pP][aA][rR][aA][mM]))(?!\S)"
)
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*")


def _oracle(text):
    found, problems = [], []
    parts = _TAG_SPLIT.split(text)
    for k in range(1, len(parts), 2):
        tag = Tag(parts[k][1:].lower())
        words = parts[k + 1].split()
        named = bool(words) and _NAME.fullmatch(words[0]) is not None
        if tag is not Tag.END and not named:
            problems.append(InvalidValue if words else MissingValue)
            continue
        value = words[0] if named else ""
        rest = words[1:] if named else words
        found.append((tag, value, " ".join(rest) or None))
    return found, problems


_WORDS = st.sampled_from(
    ["@in", "@IN", "@In", "@@in", "x@in", "@in,", "@begin", "@BEGIN", "@end",
     "@End", "@out", "@param", "@desc", "@", "user@begin.org", "@\u0131n", "@\u0130n",
     "name", "a.b", "_x1", "9bad", "bad-name", "\u00fcn\u00ef", "#", "%"]
)
_SPACES = st.sampled_from([" ", "  ", "\t", "\x0b", "\x1c", "\u00a0", "\u2003", "\u3000"])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_SPACES, _WORDS), max_size=12), _SPACES)
def test_recognition_matches_regex_oracle(pieces, tail):
    text = "".join(space + word for space, word in pieces) + tail
    problems = []
    found = _tags([(text, "s.py", 1)], problems)
    assert ([item[:3] for item in found], [type(p) for p in problems]) == _oracle(text)


# -- the extract listing, written from the tag walk ----------------------------
#
# ``ywx extract`` writes its listing with no records. Its bytes must be the
# stdlib encoder's text of their own payload, and equal the record path's:
# ``serialize_annotations`` of the document the library parsers return.

PERFBENCH = Path(__file__).parent.parent / "perfbench"


def _outcome(load):
    """The value of ``load()``, or the type of the ywx error it raises."""
    try:
        return load()
    except YwxError as exc:
        return type(exc)


def assert_extract_is_the_record_listing(path, listing):
    """Run ``ywx extract path -o listing``; True if it wrote the listing,
    False if it refused the script, as the record path must then do too."""
    status = cli.run(["extract", str(path), "-o", str(listing)])

    def record_listing():
        syntax = detect_language(str(path), None)
        text = path.read_bytes().decode("utf-8")  # line endings kept, as ywx reads
        annotations = parse_annotations(extract_comments(text, syntax, file=str(path)))
        doc = AnnotationDocument(str(path), syntax.language_name, tuple(annotations))
        return serialize_annotations(doc).encode("utf-8")

    expected = _outcome(record_listing)
    if status != 0:
        assert status == 2 and isinstance(expected, type)
        return False
    written = listing.read_bytes()
    assert written.decode("utf-8") == stdlib_json(json.loads(written))
    assert written == expected
    return True


def test_extract_is_the_stdlib_text_on_fixtures(fixtures_dir, tmp_path):
    scripts = sorted(p for p in fixtures_dir.rglob("*") if p.suffix.lower() in (".py", ".r", ".m"))
    assert len(scripts) == 15
    listing = tmp_path / "ann.json"
    written = [assert_extract_is_the_record_listing(script, listing) for script in scripts]
    assert written.count(True) >= 10


def test_extract_is_the_stdlib_text_on_generated_scripts(corpus, tmp_path):
    scripts = [case[1] for case in corpus[0]] + [case[1] for case in corpus[1]]
    path, listing = tmp_path / "gen.py", tmp_path / "ann.json"
    for text in scripts:
        path.write_text(text, encoding="utf-8")
        assert assert_extract_is_the_record_listing(path, listing)


def test_extract_is_the_stdlib_text_on_the_scaled_script(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    case = workloads.scaled(7)
    path, listing = tmp_path / case.name, tmp_path / "ann.json"
    path.write_text(case.text, encoding="utf-8")
    assert assert_extract_is_the_record_listing(path, listing)
    assert len(json.loads(listing.read_text(encoding="utf-8"))["annotations"]) > 1000


# Description text: quotes, backslashes, control characters (a lone carriage
# return is whitespace inside its line, on disk as in memory) and non-ASCII,
# but no "@", which could start a tag and leave a generated script without a
# readable one.
_DESCRIPTION_TEXT = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="@")
    | st.sampled_from('"\'\\\x00\x01\x1f\x7f\t\r\n\u0085 é中\U0001F600'),
    max_size=12,
)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_DESCRIPTION_TEXT, _DESCRIPTION_TEXT), min_size=1, max_size=4))
def test_extract_is_the_stdlib_text_property(tmp_path_factory, descriptions):
    folder = tmp_path_factory.mktemp("extract")
    lines = []
    for index, (block, port) in enumerate(descriptions):
        lines += [f"# @begin B{index} {block}", f"# @in x{index} {port}", f"# @end B{index}"]
    path = folder / "gen.py"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="")
    assert assert_extract_is_the_record_listing(path, folder / "ann.json")
