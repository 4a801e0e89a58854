"""Recognition and interchange of workflow annotations found in comments.

An annotation is ``@tag value [description]`` inside any comment. Five tags
are recognized: ``@begin``, ``@end``, ``@in``, ``@out``, ``@param``. Tag
keywords are case-insensitive; values are case-sensitive identifiers (dots
allowed, so file-like names such as ``NEE.monthly`` work). Several
annotations may share one comment; unknown ``@word`` tokens are ordinary
description text.
"""

from __future__ import annotations

import json
import re
from enum import Enum
from itertools import starmap
from json.encoder import encode_basestring_ascii as _json_str
from operator import attrgetter
from typing import Iterable

from ._record import record
from .comments import SourceComment
from .errors import (
    AnnotationError,
    InvalidValue,
    MalformedRecord,
    MissingValue,
    YwxError,
)


class Tag(Enum):
    BEGIN = "begin"
    END = "end"
    IN = "in"
    OUT = "out"
    PARAM = "param"

    # Members are singletons, so equality is identity; hashing by identity
    # spares the Python-level ``Enum.__hash__`` on every table lookup.
    __hash__ = object.__hash__


IDENTIFIER_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*\Z")

_TAG_WORDS = {"@" + tag.value: tag for tag in Tag}


@record
class Annotation:
    """One recognized ``@tag value`` occurrence with its location."""

    tag: Tag
    value: str  # empty only for END
    description: str | None
    file: str
    line: int


# An annotation as the tag walk yields it: the fields of an ``Annotation``.
_Tagged = tuple[Tag, str, "str | None", str, int]

# The same tuple read off an ``Annotation`` record.
_FIELDS = attrgetter("tag", "value", "description", "file", "line")


def _tags(
    comments: Iterable[tuple[str, str, int]], problems: list[AnnotationError] | None
) -> list[_Tagged]:
    """The annotations in comments given as ``(text, file, line)``, in order,
    as ``(tag, value, description, file, line)`` tuples.

    The one tag walk. With ``problems`` None an unreadable tag raises;
    otherwise it is recorded there and the walk resumes at the next token.
    ``Annotation(*item)`` makes an item's record, where one is needed.
    """
    found: list[_Tagged] = []
    # Bound once: the walk calls them for every "@" token and every tag.
    tag_word, identifier = _TAG_WORDS.get, IDENTIFIER_RE.match
    for text, file, line in comments:
        if "@" not in text:
            continue
        tokens = text.split()
        n = len(tokens)
        tag = None
        start = stop = 0
        while True:
            # Find the next tag from ``stop`` on. Only a token that starts
            # with "@" is looked up, and each token is classified once.
            following = None
            while stop < n:
                token = tokens[stop]
                if token[0] == "@" and (following := tag_word(token.lower())) is not None:
                    break
                stop += 1
            # The open tag's value and description are the tokens up to it.
            if tag is not None:
                value = None
                if start < stop and identifier(tokens[start]):
                    value = tokens[start]
                    start += 1
                elif tag is Tag.END:
                    value = ""
                else:
                    if start < stop:
                        error: AnnotationError = InvalidValue(
                            f"@{tag.value} value {tokens[start]!r} is not a valid name",
                            file=file,
                            line=line,
                        )
                    else:
                        error = MissingValue(
                            f"@{tag.value} requires a value", file=file, line=line
                        )
                    if problems is None:
                        raise error
                    problems.append(error)
                if value is not None:
                    description = " ".join(tokens[start:stop]) if start < stop else None
                    found.append((tag, value, description, file, line))
            if following is None:
                break
            tag = following
            stop += 1
            start = stop
    return found


# What the tag walk reads of a SourceComment.
_TEXT = attrgetter("text", "file", "start_line")


def parse_annotations(comments: Iterable[SourceComment]) -> list[Annotation]:
    """Scan comments left to right and return annotations in document order.

    Each recognized tag consumes the next whitespace-separated token as its
    value; ``@end`` may omit the value. Text between a value and the next
    recognized tag becomes the annotation's description. Comments without
    recognized tags contribute nothing.
    """
    return list(starmap(Annotation, _tags(map(_TEXT, comments), None)))


@record
class AnnotationDocument:
    """An annotation stream for one source file, ready for interchange."""

    source_file: str
    language: str
    annotations: tuple[Annotation, ...]


def serialize_annotations(doc: AnnotationDocument) -> str:
    """Render an annotation document as its JSON interchange form."""
    tags = map(_FIELDS, doc.annotations)
    return "".join(_listing_chunks(doc.source_file, doc.language, tags))


# -- writing JSON -------------------------------------------------------------
#
# An interchange file holds the text the stdlib encoder writes for its
# payload with ``indent=2``, plus a newline. The stdlib serves ``indent`` only
# from its pure-Python encoder, which walks a payload built for it and
# recurses once per nesting level. So a listing is written here straight from
# the tag-walk tuples, one f-string per annotation, and ``extract`` builds no
# record on the way; a model file from its records, one template each.


def _json_opt(text: str | None) -> str:
    """A JSON string, or null for None."""
    return "null" if text is None else _json_str(text)


def _json_int(number: int) -> str:
    """A JSON number; a bool, which is an int, is written as the stdlib does."""
    return int.__repr__(number) if number.__class__ is int else json.dumps(number)


def _json_list(items: list[str], indent: str) -> str:
    """A JSON list of items already written; ``indent`` indents its bracket."""
    if not items:
        return "[]"
    inner = f",\n{indent}  "
    return f"[\n{indent}  {inner.join(items)}\n{indent}]"


# Each tag's JSON text.
_TAG_JSON = {tag: _json_str(tag.value) for tag in Tag}


def _listing_chunks(source_file: str, language: str, tags: Iterable[_Tagged]) -> list[str]:
    """The JSON text of the listing of ``source_file``, whose annotations are
    given as tag-walk tuples, in four chunks or fewer.

    The whole text is formatted before it is returned, so an annotation from
    another file raises before any chunk is written. Each annotation is one
    f-string; its line is written as ``_json_int`` writes it.
    """
    tags = list(tags)
    for _, _, _, file, line in tags:
        if file != source_file:
            raise MalformedRecord(
                f"annotation at line {line} names file {file!r}, "
                f"but the document is for {source_file!r}"
            )
    head = (
        f'{{\n  "source": {{\n    "file": {_json_str(source_file)},\n'
        f'    "language": {_json_str(language)}\n  }},\n  "annotations": '
    )
    if not tags:
        return [head, "[]\n}\n"]
    tag_json, quote, dumps = _TAG_JSON, _json_str, json.dumps
    body = ",\n".join([
        f'    {{\n      "tag": {tag_json[tag]},\n      "value": {quote(value)},\n'
        f'      "description": {"null" if description is None else quote(description)},\n'
        f'      "line": {line if line.__class__ is int else dumps(line)}\n    }}'
        for tag, value, description, _, line in tags
    ])
    return [head, "[\n", body, "\n  ]\n}\n"]


# A JSON escape that decodes to a UTF-16 surrogate code point.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def _decode_json(text: str, error: type[YwxError]) -> object:
    """Decode a JSON intermediate, raising ``error`` with the line on failure."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"not valid JSON: {exc.msg}", line=exc.lineno) from exc


def _check_unicode(text: str, payload: object, error: type[YwxError]) -> None:
    """Reject a payload decoded from ``text`` that holds a lone surrogate.

    A loaded string UTF-8 cannot encode holds a lone surrogate, as a JSON
    escape like ``\\ud800`` can write; it would pass every other check on
    an input file and make writing the output fail. Such a string needs a
    surrogate escape or a surrogate in ``text``, so only a text holding one
    has its strings walked.
    """
    if _SURROGATE_ESCAPE.search(text) is None and _encodes(text):
        return
    todo = [payload]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            if not _encodes(item):
                raise error(f"string {item!r} is not valid Unicode text (lone surrogate)")
        elif isinstance(item, dict):
            todo.extend(item.items())
        elif isinstance(item, (list, tuple)):
            todo.extend(item)


def _encodes(text: str) -> bool:
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise MalformedRecord(message)


def _bad_record(index: int, problem: str, line: int | None = None) -> MalformedRecord:
    """The refusal of one record, naming the script line it is about, if
    known, in its text: a reader that names the listing file prefixes it."""
    where = "" if line is None else f" (script line {line})"
    return MalformedRecord(f"annotation record {index}{where}: {problem}")


def parse_annotation_file(text: str) -> AnnotationDocument:
    """Parse the JSON interchange form back into an annotation document."""
    file, language, tags = _listing_from_json(text, _decode_json(text, MalformedRecord))
    return AnnotationDocument(file, language, tuple(starmap(Annotation, tags)))


def _listing_from_json(text: str, payload: object) -> tuple[str, str, list[_Tagged]]:
    """Check an annotation listing already decoded from ``text``; returns its
    source file, its language and its annotations as tag-walk tuples."""
    _check_unicode(text, payload, MalformedRecord)
    _require(isinstance(payload, dict), "top level must be an object")
    source = payload.get("source")
    _require(isinstance(source, dict), "missing 'source' object")
    file = source.get("file")
    language = source.get("language")
    _require(isinstance(file, str) and file != "", "'source.file' must be a string")
    _require(isinstance(language, str) and language != "", "'source.language' must be a string")
    records = payload.get("annotations")
    _require(isinstance(records, list), "'annotations' must be a list")

    annotations: list[_Tagged] = []
    for index, raw in enumerate(records):
        if raw.__class__ is not dict:
            raise _bad_record(index, "must be an object")
        line = raw.get("line")
        if not (line.__class__ is int and line >= 1):  # a bool is an int, not a line
            raise _bad_record(index, "'line' must be a positive int")
        tag_name = raw.get("tag")
        if tag_name.__class__ is not str:
            raise _bad_record(index, "'tag' must be a string", line)
        tag = _TAG_WORDS.get("@" + tag_name.lower())
        if tag is None:
            raise _bad_record(index, f"unknown tag {tag_name!r}", line)
        value = raw.get("value")
        if value.__class__ is not str:
            raise _bad_record(index, "'value' must be a string", line)
        if not (IDENTIFIER_RE.match(value) or (tag is Tag.END and value == "")):
            bad = "end value" if tag is Tag.END else "value"
            suffix = "" if tag is Tag.END else f" for @{tag.value}"
            raise _bad_record(index, f"bad {bad} {value!r}{suffix}", line)
        description = raw.get("description")
        if description is not None and description.__class__ is not str:
            raise _bad_record(index, "'description' must be a string or null", line)
        annotations.append((tag, value, description or None, file, line))
    return file, language, annotations
