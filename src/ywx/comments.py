"""Comment extraction for annotated scripts.

The scanner never parses the host language: it knows only a syntax's line
markers, block delimiters and string quotes. Each syntax compiles one
pattern whose alternatives each match one whole construct: a block comment
through its closer, a line comment to the end of its line, or a string
through what ends it. One ``finditer`` over the source finds them in
document order. Strings are skipped, so a comment marker inside one is
code; a comment is matched whole, so a quote inside one is comment text.

A string ends at its closing quote, at a newline, at a backslash that
escapes nothing, or at the end of the text, so no string spans lines and a
stray quote cannot swallow later lines. A construct these rules do not name
is misread: the later lines of a Python triple-quoted string are read as
code, and a MATLAB transpose ``'`` or the quote of an R raw string opens a
string.
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
    """The one compiled pattern of a CommentSyntax, built on first use.

    Its alternatives, in precedence order: for each block opener, longest
    first, the comment up to its closer and then the opener alone (a
    comment never closed); each line marker, longest first, up to its
    newline; each quote through the character that ends its string. Each
    alternative holds one capturing group after its literal lead, for the
    inner text, and ``kinds[match.lastindex]`` names what it matched:
    "block", "open", "line" or "string". Leftmost-first matching then picks
    the construct the rules name at the first position where any starts.
    """

    def __init__(self, syntax: CommentSyntax) -> None:
        alternatives: list[tuple[str, str]] = []
        for opener, closer in sorted(syntax.block_delimiters, key=lambda pair: -len(pair[0])):
            lead = re.escape(opener)
            alternatives += [("block", f"{lead}(.*?){re.escape(closer)}"), ("open", f"{lead}()")]
        for marker in sorted(syntax.line_markers, key=len, reverse=True):
            alternatives.append(("line", re.escape(marker) + r"([^\n]*)"))
        for quote in syntax.string_quotes:
            ends = re.escape("\\" + quote) + r"\n"
            alternatives.append(
                ("string", rf"{re.escape(quote)}([^{ends}]*(?:\\[^\n][^{ends}]*)*)[{ends}]?")
            )
        self.kinds = [""] + [kind for kind, _ in alternatives]
        self.pattern = re.compile("|".join(alt for _, alt in alternatives), re.DOTALL)


# A comment as the scan finds it: ``(kind, start, end, inner_start,
# inner_end, start_line, end_line)``. ``kind`` is "line" or "block";
# ``start``/``end`` cover the whole comment including its markers, and
# ``inner_start``/``inner_end`` just the text between them.
_Span = tuple[str, int, int, int, int, int, int]


def _scan(source: str, syntax: CommentSyntax, file: str) -> list[_Span]:
    """Locate every comment span in ``source``, in document order.

    One ``finditer`` of the syntax's pattern walks the source construct by
    construct: strings are skipped, each comment becomes a span, and a
    block opener with no closer raises ``UnterminatedBlockComment`` at its
    line. Line numbers are counted between comments.

    Every command reads a script through it, in ``annotations._script_tags``:
    the spans give the comment lines (``_lines``) and, for ``validate``, the
    blanked code (``_blanked``). The public functions here wrap it.
    """
    kinds = syntax._scanner.kinds
    spans: list[_Span] = []
    line = 1  # the line number at ``counted``
    counted = 0
    for match in syntax._scanner.pattern.finditer(source):
        group = match.lastindex
        kind = kinds[group]
        if kind == "string":
            continue
        start, end = match.span()
        inner_start, inner_end = match.span(group)
        line += source.count("\n", counted, start)
        if kind == "open":
            raise UnterminatedBlockComment(
                f"block comment opened with {match.group()!r} is never closed",
                file=file,
                line=line,
            )
        # A line comment's inner text holds no newline.
        end_line = line + source.count("\n", inner_start, inner_end) if kind == "block" else line
        spans.append((kind, start, end, inner_start, inner_end, line, end_line))
        line, counted = end_line, inner_end
    return spans


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
