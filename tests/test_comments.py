"""Comment scanning: string awareness, block comments, line numbering."""

import io
import tokenize

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ywx.comments import (
    LANGUAGES,
    CommentSyntax,
    _scan,
    detect_language,
    extract_comments,
    strip_comments,
)
from ywx.errors import UnknownLanguage, UnterminatedBlockComment

PY = LANGUAGES["python"]
M = LANGUAGES["matlab"]
R = LANGUAGES["r"]


def texts(comments):
    return [c.text for c in comments]


class TestLineComments:
    def test_marker_stripped_and_line_recorded(self):
        src = "x = 1\n# first\ny = 2  # trailing\n"
        got = extract_comments(src, PY, file="a.py")
        assert [(c.text, c.start_line) for c in got] == [("first", 2), ("trailing", 3)]
        assert all(c.file == "a.py" for c in got)

    def test_blank_comments_dropped(self):
        src = "#\n#   \n# kept\n"
        assert texts(extract_comments(src, PY)) == ["kept"]

    def test_hash_inside_string_is_code(self):
        src = 'msg = "# not a comment"\n# real\n'
        got = extract_comments(src, PY)
        assert texts(got) == ["real"]

    def test_hash_inside_single_quoted_string(self):
        src = "msg = '# hidden'\n"
        assert extract_comments(src, PY) == []

    def test_quote_inside_comment_does_not_open_string(self):
        src = "# it's commentary\nx = '# quoted'\n# tail\n"
        assert texts(extract_comments(src, PY)) == ["it's commentary", "tail"]

    def test_escaped_quote_stays_inside_string(self):
        src = 'a = "she said \\"hi\\" # here"\n# outside\n'
        assert texts(extract_comments(src, PY)) == ["outside"]

    def test_string_gives_up_at_end_of_line(self):
        # An unpaired quote must not swallow later lines.
        src = "a = values['k\n# visible\n"
        assert texts(extract_comments(src, PY)) == ["visible"]

    def test_comment_at_end_of_file_without_newline(self):
        src = "x = 1\n# last"
        got = extract_comments(src, PY)
        assert [(c.text, c.start_line) for c in got] == [("last", 2)]


class TestBlockComments:
    def test_one_comment_per_nonblank_line(self):
        src = "a = 1;\n%{\nfirst\n\nthird\n%}\nb = 2;\n"
        got = extract_comments(src, M)
        assert [(c.text, c.start_line) for c in got] == [("first", 3), ("third", 5)]

    def test_block_delimiter_wins_over_line_marker(self):
        src = "%{\ninside\n%}\n% lined\n"
        got = extract_comments(src, M)
        assert [(c.text, c.start_line) for c in got] == [("inside", 2), ("lined", 4)]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(UnterminatedBlockComment) as err:
            extract_comments("x = 1;\n%{\nnever closed\n", M, file="s.m")
        assert err.value.file == "s.m"
        assert err.value.line == 2

    def test_percent_inside_matlab_string(self):
        src = "fprintf('%% literal');\n% real\n"
        assert texts(extract_comments(src, M)) == ["real"]


class TestStripComments:
    def test_blanks_comments_preserves_lines(self):
        src = "x = 1  # gone\n# whole line\ny = 2\n"
        out = strip_comments(src, PY)
        assert [l.rstrip() for l in out.splitlines()] == ["x = 1", "", "y = 2"]
        assert len(out) == len(src)

    def test_strings_survive(self):
        src = 'm = "# keep"\n'
        assert strip_comments(src, PY) == src

    def test_block_comment_blanked_keeping_newlines(self):
        src = "a;\n%{\ntwo\n%}\nb;\n"
        assert strip_comments(src, M) == "a;\n  \n   \n  \nb;\n"


class TestDetectLanguage:
    def test_by_extension(self):
        assert detect_language("one.py").language_name == "python"
        assert detect_language("Two.R").language_name == "r"
        assert detect_language("three.m").language_name == "matlab"

    def test_override_beats_extension(self):
        assert detect_language("x.py", "matlab").language_name == "matlab"
        assert detect_language("x.unknown", "R").language_name == "r"

    def test_unknown_extension(self):
        with pytest.raises(UnknownLanguage):
            detect_language("notes.txt")

    def test_unknown_override(self):
        with pytest.raises(UnknownLanguage):
            detect_language("x.py", "fortran")


class TestSyntaxValidation:
    def test_needs_some_marker(self):
        with pytest.raises(ValueError):
            CommentSyntax("bad", ())

    def test_empty_marker_rejected(self):
        with pytest.raises(ValueError):
            CommentSyntax("bad", ("",))


# Fragments chosen to exercise every scanner state transition.
_FRAGMENTS = st.sampled_from(
    [
        "x = f(y)\n",
        "# plain comment\n",
        "s = '# not here'\n",
        's = "it\'s odd"\n',
        "%{\nblock\n%}\n",
        "% trailing\n",
        "q = 'open\n",
        "\n",
        "z = 1  % tail\n",
        "'%}'\n",
    ]
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_FRAGMENTS, max_size=12))
def test_span_scan_is_a_partition(pieces):
    """Spans are ordered, disjoint, in bounds, and carry true line numbers."""
    source = "".join(pieces)
    for syntax in (PY, M):
        try:
            spans = _scan(source, syntax, "<source>")
        except UnterminatedBlockComment:
            continue
        previous_end = 0
        for _, start, end, inner_start, inner_end, start_line, end_line in spans:
            assert previous_end <= start < end <= len(source)
            assert start <= inner_start <= inner_end <= end
            previous_end = end
            assert start_line == source.count("\n", 0, start) + 1
            assert end_line == source.count("\n", 0, inner_end) + 1
        stripped = strip_comments(source, syntax)
        assert len(stripped) == len(source)
        assert stripped.count("\n") == source.count("\n")


# -- independent oracle: the stdlib tokenizer ---------------------------------

def _py_string(quote):
    plain = st.sampled_from(list("ab #%@é{}") + ['"' if quote == "'" else "'"])
    escape = st.sampled_from(["\\\\", "\\" + quote, "\\'", '\\"', "\\n", "\\t"])
    body = st.lists(st.one_of(plain, escape), max_size=8).map("".join)
    return body.map(lambda text: quote + text + quote)


_PY_ATOM = st.one_of(
    st.sampled_from(["x", "y1", "_z", "42", "f(x)"]),
    _py_string("'"),
    _py_string('"'),
)
_PY_COMMENT = st.lists(
    st.sampled_from(list("ab #'\"\\@é%{}\t") + ["@begin P", "@in x"]), max_size=10
).map(lambda text: "#" + "".join(text))
_PY_LINE = st.one_of(
    st.just(""),
    _PY_COMMENT,
    st.tuples(
        st.lists(_PY_ATOM, min_size=1, max_size=4),
        st.one_of(st.just(""), _PY_COMMENT),
    ).map(lambda parts: "v = " + " + ".join(parts[0]) + ("  " + parts[1] if parts[1] else "")),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_PY_LINE, max_size=12), st.booleans())
def test_python_comments_match_tokenize(lines, final_newline):
    """Single-line strings with escapes and ``#``: same comments as tokenize."""
    source = "\n".join(lines) + ("\n" if final_newline else "")
    expected = []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT and tok.string[1:].strip():
            expected.append((tok.string[1:].strip(), tok.start[0]))
    got = extract_comments(source, PY)
    assert [(c.text, c.start_line) for c in got] == expected
    assert all(c.start_line == c.end_line for c in got)


_ANY_TEXT = st.lists(
    st.sampled_from(list("#%{}'\"\\\n\r\t\f a") + ["%{", "%}", "\\'"]), max_size=60
).map("".join)


@settings(max_examples=300, deadline=None)
@given(_ANY_TEXT)
def test_strip_keeps_layout_and_leaves_no_comment(source):
    """For every language: same length, same newlines, nothing left to find."""
    for syntax in LANGUAGES.values():
        try:
            stripped = strip_comments(source, syntax)
        except UnterminatedBlockComment:
            continue
        assert len(stripped) == len(source)
        assert [i for i, c in enumerate(stripped) if c == "\n"] == [
            i for i, c in enumerate(source) if c == "\n"
        ]
        assert all(a == b or a == " " for a, b in zip(stripped, source))
        assert _scan(stripped, syntax, "<source>") == []
        for _, start, _, _, inner_end, start_line, end_line in _scan(source, syntax, "<source>"):
            assert start_line == source.count("\n", 0, start) + 1
            assert end_line == source.count("\n", 0, inner_end) + 1


@pytest.mark.parametrize("delimiters", [("", "*/"), ("/*", "")])
def test_empty_block_delimiter_rejected(delimiters):
    with pytest.raises(ValueError, match="block delimiters must be non-empty"):
        CommentSyntax("bad", ("#",), (delimiters,))
