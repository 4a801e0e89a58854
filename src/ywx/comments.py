"""Comment extraction for annotated scripts.

A single forward scan classifies every character of a source file as code,
string text, or comment. Comment markers inside string literals are ignored;
quotes inside comments are ignored. The scanner never parses the host
language, so a handful of constructs (apostrophes in code, raw strings with
escaped quotes) can misclassify part of a line. Strings are assumed not to
span lines, which bounds any such misclassification to a single line.

The scan does not step through characters one by one. In code, one compiled
alternation jumps to the next block opener, line marker or quote; a line
comment then runs to the end of its line, a block comment to its closer,
and a string to its closing quote or the end of its line, each found by one
search. Line numbers are counted between jumps. The patterns are compiled
once per CommentSyntax, on first use.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator

from ._record import record
from .errors import UnknownLanguage, UnterminatedBlockComment, _read_text


@dataclass(frozen=True)
class CommentSyntax:
    """Comment conventions for one host language."""

    language_name: str
    line_markers: tuple[str, ...]
    block_delimiters: tuple[tuple[str, str], ...] = ()
    string_quotes: tuple[str, ...] = ("'", '"')

    def __post_init__(self) -> None:
        if not self.line_markers and not self.block_delimiters:
            raise ValueError("comment syntax needs line markers or block delimiters")
        if any(not m for m in self.line_markers):
            raise ValueError("line markers must be non-empty")
        if any(not o or not c for o, c in self.block_delimiters):
            raise ValueError("block delimiters must be non-empty")
        if any(len(q) != 1 for q in self.string_quotes):
            raise ValueError("string quotes must be single characters")

    @cached_property
    def _scanner(self) -> _Scanner:
        return _Scanner(self)


LANGUAGES: dict[str, CommentSyntax] = {
    "python": CommentSyntax("python", ("#",)),
    "r": CommentSyntax("r", ("#",)),
    "matlab": CommentSyntax("matlab", ("%",), (("%{", "%}"),)),
    "generic": CommentSyntax("generic", ("#",)),
}

EXTENSION_LANGUAGES: dict[str, str] = {
    ".py": "python",
    ".r": "r",
    ".m": "matlab",
}


def detect_language(path: str | Path, override: str | None = None) -> CommentSyntax:
    """Pick the comment syntax for a script, by override or file extension."""
    if override is not None:
        syntax = LANGUAGES.get(override.lower())
        if syntax is None:
            known = ", ".join(sorted(LANGUAGES))
            raise UnknownLanguage(
                f"unknown language {override!r} (expected one of: {known})",
                file=str(path),
            )
        return syntax
    ext = Path(path).suffix.lower()
    lang = EXTENSION_LANGUAGES.get(ext)
    if lang is None:
        raise UnknownLanguage(
            f"cannot infer language from {str(path)!r}; pass an explicit language",
            file=str(path),
        )
    return LANGUAGES[lang]


@record
class SourceComment:
    """One comment's text with its location; markers already stripped."""

    text: str
    file: str
    start_line: int
    end_line: int


class _Scanner:
    """The compiled patterns of one CommentSyntax, built on first use.

    ``code`` finds the next token that leaves plain code: block openers
    longest first, then line markers longest first, then quotes, so that
    leftmost-first matching picks the same token the rules name. ``kinds``
    maps a token's text to what it opens. ``string_body[q]`` matches the
    inside of a string opened by ``q`` up to, not including, the character
    that ends it: the closing quote, a newline, or a backslash that escapes
    nothing.
    """

    def __init__(self, syntax: CommentSyntax) -> None:
        opens = sorted(syntax.block_delimiters, key=lambda pair: -len(pair[0]))
        markers = sorted(syntax.line_markers, key=len, reverse=True)
        quotes = list(syntax.string_quotes)
        self.kinds: dict[str, tuple[str, str]] = {}
        for opener, closer in opens:
            self.kinds.setdefault(opener, ("block", closer))
        for marker in markers:
            self.kinds.setdefault(marker, ("line", ""))
        for quote in quotes:
            self.kinds.setdefault(quote, ("string", quote))
        tokens = [o for o, _ in opens] + markers + quotes
        self.code = re.compile("|".join(re.escape(t) for t in tokens))
        self.string_body: dict[str, re.Pattern[str]] = {}
        for quote in quotes:
            plain = "[^" + re.escape("\\" + quote) + r"\n]*"
            self.string_body[quote] = re.compile(rf"{plain}(?:\\[^\n]{plain})*")


# A comment as the scan finds it: ``(kind, start, end, inner_start,
# inner_end, start_line, end_line)``. ``kind`` is "line" or "block";
# ``start``/``end`` cover the whole comment including its markers, and
# ``inner_start``/``inner_end`` just the text between them.
_Span = tuple[str, int, int, int, int, int, int]


def _scan(source: str, syntax: CommentSyntax, file: str) -> list[_Span]:
    """Locate every comment span in ``source``, in document order.

    The scan is in one of three states: plain code, inside a string, or
    inside a comment. Block delimiters are matched before line markers so
    that a block opener sharing a prefix with a line marker (e.g. ``%{`` vs
    ``%``) wins. Each step jumps to the next token with a compiled pattern,
    and line numbers are counted between jumps.

    Every command reads a script through it, in ``annotations._script_tags``:
    the spans give the comment lines (``_lines``) and, for ``validate``, the
    blanked code (``_blanked``). The public functions here wrap it.
    """
    scanner = syntax._scanner
    spans: list[_Span] = []
    n = len(source)
    line = 1  # the line number at ``counted``
    counted = 0
    i = 0
    while True:
        token = scanner.code.search(source, i)
        if token is None:
            return spans
        kind, arg = scanner.kinds[token.group()]
        if kind == "string":
            # Strings are assumed single-line: one ends at its closing quote
            # or at the end of its line, so a stray quote cannot swallow the
            # rest of the file.
            i = scanner.string_body[arg].match(source, token.end()).end() + 1
            continue
        start = token.start()
        line += source.count("\n", counted, start)
        counted = start
        if kind == "line":
            eol = source.find("\n", start)
            if eol < 0:
                eol = n
            spans.append(("line", start, eol, token.end(), eol, line, line))
            i = eol
            continue
        close_at = source.find(arg, token.end())
        if close_at < 0:
            raise UnterminatedBlockComment(
                f"block comment opened with {token.group()!r} is never closed",
                file=file,
                line=line,
            )
        end = close_at + len(arg)
        end_line = line + source.count("\n", token.end(), close_at)
        spans.append(("block", start, end, token.end(), close_at, line, end_line))
        line = end_line + source.count("\n", close_at, end)
        counted = i = end


def _read_scripts(
    paths: Iterable[str | Path], language: str | None
) -> Iterator[tuple[str, str, CommentSyntax]]:
    """Each script as ``(path, text, syntax)``, read when it is reached: its
    language is detected, by ``language`` if given, and then its text read."""
    for path in paths:
        syntax = detect_language(path, language)
        yield str(path), _read_text(path), syntax


def _lines(source: str, spans: Iterable[_Span], file: str) -> Iterator[tuple[str, str, int]]:
    """The non-blank lines of the comments at ``spans``, stripped, in order."""
    for kind, _, _, inner_start, inner_end, line, _ in spans:
        if kind == "line":
            text = source[inner_start:inner_end].strip()
            if text:
                yield text, file, line
        else:
            for offset, piece in enumerate(source[inner_start:inner_end].split("\n")):
                text = piece.strip()
                if text:
                    yield text, file, line + offset


def _blanked(source: str, spans: Iterable[_Span]) -> str:
    """``source`` with the comments at ``spans`` blanked, line structure kept."""
    pieces: list[str] = []
    done = 0
    for _, start, end, _, _, _, _ in spans:
        pieces.append(source[done:start])
        body = source[start:end]
        pieces.append("\n".join(" " * len(part) for part in body.split("\n")))
        done = end
    pieces.append(source[done:])
    return "".join(pieces)


def extract_comments(
    source: str, syntax: CommentSyntax, file: str = "<source>"
) -> list[SourceComment]:
    """Return every comment in ``source`` in document order.

    A block comment yields one SourceComment per non-blank enclosed line, so
    annotations written inside block comments keep distinct line numbers.
    Blank comments are dropped.
    """
    lines = _lines(source, _scan(source, syntax, file), file)
    return [SourceComment(text, file, line, line) for text, _, line in lines]


def strip_comments(source: str, syntax: CommentSyntax, file: str = "<source>") -> str:
    """Blank out every comment, preserving line structure exactly."""
    return _blanked(source, _scan(source, syntax, file))
