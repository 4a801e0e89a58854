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


@pytest.mark.parametrize("delimiters", [("", "*/"), ("/*", "")])
def test_empty_block_delimiter_rejected(delimiters):
    with pytest.raises(ValueError, match="block delimiters must be non-empty"):
        CommentSyntax("bad", ("#",), (delimiters,))


@pytest.mark.parametrize("quote", ['"""', ""])
def test_string_quote_not_one_character_rejected(quote):
    # A longer or empty quote would never open a string, so the scanner
    # would read a comment marker inside it as a comment.
    with pytest.raises(ValueError, match="string quotes must be single characters"):
        CommentSyntax("bad", ("#",), string_quotes=(quote,))


# Each newline once numbered a later comment a line short, or dropped it.
@pytest.mark.parametrize(
    "markers, delimiters, quotes",
    [(("\n#",), (), ()), (("#",), (("{\n", "}"),), ()), (("#",), (("{", "\n}"),), ()),
     (("#",), (), ("\n",))],
    ids=["marker", "opener", "closer", "quote"],
)
def test_newline_in_a_token_rejected(markers, delimiters, quotes):
    with pytest.raises(ValueError, match="must not hold a newline"):
        CommentSyntax("nl", markers, delimiters, quotes)


# -- scanner rules, one hand-written case each --------------------------------

_HASHES = CommentSyntax("hashes", ("#", "##"))
_BRACES = CommentSyntax("braces", ("#",), (("#{", "}#"), ("#{{", "}}#")))
_QUOTE_MARKER = CommentSyntax("quote-marker", ("'",), string_quotes=("'", '"'))
_NO_QUOTES = CommentSyntax("no-quotes", ("#",), string_quotes=())

# (syntax, source, expected spans, or the (line, message) of the
# UnterminatedBlockComment it raises)
_SCANNER_RULES = {
    "longest-marker-first": (_HASHES, "a ## b\n", [("line", 2, 6, 4, 6, 1, 1)]),
    "longest-opener-first": (_BRACES, "#{{ x }}#\n", [("block", 0, 9, 3, 6, 1, 1)]),
    "longest-opener-unclosed": (
        _BRACES, "#{{ x }#\n", (1, "block comment opened with '#{{' is never closed")
    ),
    "quote-that-is-a-marker": (
        _QUOTE_MARKER, "s = \"it's\" ' note\n", [("line", 11, 17, 12, 17, 1, 1)]
    ),
    "backslash-before-newline": (PY, "s = 'a\\\n# c\n", [("line", 8, 11, 9, 11, 2, 2)]),
    "backslash-at-end": (PY, '# a\nx = "b\\', [("line", 0, 3, 1, 3, 1, 1)]),
    "block-ends-the-file": (M, "x;\n%{\na\n%}", [("block", 3, 10, 5, 8, 2, 4)]),
    "unclosed-after-block-and-string": (
        M,
        "%{\na\n%}\ns = '%{';\n%{\nb\n",
        (5, "block comment opened with '%{' is never closed"),
    ),
    "no-quotes": (_NO_QUOTES, 'x = "# y"\n', [("line", 5, 9, 6, 9, 1, 1)]),
}


@pytest.mark.parametrize("syntax, source, expected", _SCANNER_RULES.values(), ids=_SCANNER_RULES)
def test_scanner_rule(syntax, source, expected):
    if isinstance(expected, list):
        assert _scan(source, syntax, "s") == expected
        return
    with pytest.raises(UnterminatedBlockComment) as err:
        _scan(source, syntax, "s")
    assert (err.value.file, err.value.line, err.value.message) == ("s", *expected)


# The comments ROADMAP item 1's rules expect where the scanner reads a
# language construct it does not know; each fails today.
_LANGUAGE_RULES = {
    "python-plain-triple-is-comment-text": (
        PY, "x = 1\n'''\n@begin Hidden\n'''\n", [("@begin Hidden", 3)]
    ),
    "python-hash-inside-triple-string": (
        PY, 's = """\n# @begin Fake\n"""\n# real\n', [("real", 4)]
    ),
    "matlab-transpose-is-no-quote": (M, "y = A'; % @begin T\n", [("@begin T", 1)]),
    "r-raw-string": (R, 'x <- r"(a " # @begin Fake)"  # real\n', [("real", 1)]),
    "matlab-inline-brace-is-line-comment": (
        M, "x = 1; %{ note\ny = 2; % tail\n", [("{ note", 1), ("tail", 2)]
    ),
}


@pytest.mark.xfail(
    strict=True, raises=(AssertionError, UnterminatedBlockComment), reason="ROADMAP item 1"
)
@pytest.mark.parametrize("syntax, source, expected", _LANGUAGE_RULES.values(), ids=_LANGUAGE_RULES)
def test_language_rule(syntax, source, expected):
    got = extract_comments(source, syntax)
    assert [(c.text, c.start_line) for c in got] == expected


# -- every accepted syntax scans as README "Library use" documents -------------

def _reference_scan(source, syntax):
    """The spans of ``_scan``, or the line of its ``UnterminatedBlockComment``,
    found by trying at each position the block openers (longest first, then
    first declared), the line markers (longest first) and then the quotes.
    Every line is ``source.count("\n", 0, offset) + 1``."""
    openers = sorted(syntax.block_delimiters, key=lambda pair: -len(pair[0]))
    markers = sorted(syntax.line_markers, key=len, reverse=True)
    spans, at = [], 0
    while at < len(source):
        line = source.count("\n", 0, at) + 1
        opened = next((pair for pair in openers if source.startswith(pair[0], at)), None)
        marker = next((m for m in markers if source.startswith(m, at)), None)
        if opened:
            inner = at + len(opened[0])
            close = source.find(opened[1], inner)
            if close < 0:
                return line
            end = close + len(opened[1])
            spans.append(("block", at, end, inner, close, line, source.count("\n", 0, close) + 1))
        elif marker:
            inner = at + len(marker)
            end = (source + "\n").index("\n", inner)
            spans.append(("line", at, end, inner, end, line, line))
        elif source[at] in syntax.string_quotes:
            end = at + 1
            while end < len(source):
                char, end = source[end], end + 1
                if char == "\\" and source[end : end + 1] not in ("", "\n"):
                    end += 1
                elif char in (source[at], "\n", "\\"):
                    break
        else:
            end = at + 1
        at = end
    return spans


_TOKEN = st.text(st.sampled_from("#{'\\"), min_size=1, max_size=3)
_SYNTAX = st.tuples(
    st.lists(_TOKEN, max_size=3),
    st.lists(st.tuples(_TOKEN, _TOKEN), max_size=3),
    st.lists(st.sampled_from("#{'\"\\"), max_size=2),
).filter(lambda parts: parts[0] or parts[1]).map(
    lambda parts: CommentSyntax("random", *map(tuple, parts))
)


@settings(max_examples=500, deadline=None)
@given(_SYNTAX, st.data())
def test_every_accepted_syntax_scans_as_documented(syntax, data):
    """Markers, openers and quotes overlap, or there are no quotes; on a text
    of their tokens and the built-in ones, ``_scan`` ends with the reference's
    spans, each at the line its offset gives, or raises at the reference's
    line, for that syntax and every built-in one."""
    tokens = [*syntax.line_markers, *sum(syntax.block_delimiters, ()), *syntax.string_quotes]
    pieces = [*tokens, "%{", "%}", "%", "\n", "\\", " a"]
    source = "".join(data.draw(st.lists(st.sampled_from(pieces))))
    for checked in (syntax, *LANGUAGES.values()):
        try:
            got = _scan(source, checked, "s")
        except UnterminatedBlockComment as err:
            got = err.line
        assert got == _reference_scan(source, checked)
