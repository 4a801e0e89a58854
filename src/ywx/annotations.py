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
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

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


IDENTIFIER_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*\Z")

_TAG_WORDS = {"@" + tag.value: tag for tag in Tag}


@dataclass(frozen=True)
class Annotation:
    """One recognized ``@tag value`` occurrence with its location."""

    tag: Tag
    value: str  # empty only for END
    description: str | None
    file: str
    line: int


def _tag_for(token: str) -> Tag | None:
    return _TAG_WORDS.get(token.lower())


def _scan_tokens(
    comment: SourceComment, problems: list[AnnotationError] | None
) -> list[Annotation]:
    found: list[Annotation] = []
    tokens = comment.text.split()
    i = 0
    while i < len(tokens):
        tag = _tag_for(tokens[i])
        if tag is None:
            i += 1
            continue
        j = i + 1
        if tag is Tag.END:
            value = ""
            if (
                j < len(tokens)
                and _tag_for(tokens[j]) is None
                and IDENTIFIER_RE.match(tokens[j])
            ):
                value = tokens[j]
                j += 1
        else:
            if j >= len(tokens) or _tag_for(tokens[j]) is not None:
                error: AnnotationError = MissingValue(
                    f"@{tag.value} requires a value",
                    file=comment.file,
                    line=comment.start_line,
                )
                if problems is None:
                    raise error
                problems.append(error)
                i = j
                continue
            value = tokens[j]
            if not IDENTIFIER_RE.match(value):
                error = InvalidValue(
                    f"@{tag.value} value {value!r} is not a valid name",
                    file=comment.file,
                    line=comment.start_line,
                )
                if problems is None:
                    raise error
                problems.append(error)
                i = j + 1
                continue
            j += 1
        desc_tokens = []
        while j < len(tokens) and _tag_for(tokens[j]) is None:
            desc_tokens.append(tokens[j])
            j += 1
        description = " ".join(desc_tokens) or None
        found.append(Annotation(tag, value, description, comment.file, comment.start_line))
        i = j
    return found


def parse_annotations(comments: Iterable[SourceComment]) -> list[Annotation]:
    """Scan comments left to right and return annotations in document order.

    Each recognized tag consumes the next whitespace-separated token as its
    value; ``@end`` may omit the value. Text between a value and the next
    recognized tag becomes the annotation's description. Comments without
    recognized tags contribute nothing.
    """
    found: list[Annotation] = []
    for comment in comments:
        found.extend(_scan_tokens(comment, None))
    return found


def parse_annotations_lenient(
    comments: Iterable[SourceComment],
) -> tuple[list[Annotation], list[AnnotationError]]:
    """Collect readable annotations and per-tag problems instead of raising.

    An unreadable tag is skipped and scanning resumes at the next token, so
    one bad annotation does not hide the rest of the comment.
    """
    found: list[Annotation] = []
    problems: list[AnnotationError] = []
    for comment in comments:
        found.extend(_scan_tokens(comment, problems))
    return found, problems


@dataclass(frozen=True)
class AnnotationDocument:
    """An annotation stream for one source file, ready for interchange."""

    source_file: str
    language: str
    annotations: tuple[Annotation, ...]


def serialize_annotations(doc: AnnotationDocument) -> str:
    """Render an annotation document as its JSON interchange form."""
    for ann in doc.annotations:
        if ann.file != doc.source_file:
            raise MalformedRecord(
                f"annotation at line {ann.line} names file {ann.file!r}, "
                f"but the document is for {doc.source_file!r}"
            )
    payload = {
        "source": {"file": doc.source_file, "language": doc.language},
        "annotations": [
            {
                "tag": ann.tag.value,
                "value": ann.value,
                "description": ann.description,
                "line": ann.line,
            }
            for ann in doc.annotations
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


# A JSON escape that decodes to a UTF-16 surrogate code point.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def _load_json(text: str, error: type[YwxError]) -> object:
    """Load a JSON intermediate, raising ``error`` for any input fault.

    A decode error carries its line. A loaded string UTF-8 cannot encode
    holds a lone surrogate, as a JSON escape like ``\\ud800`` can write; it
    would pass every other check on an input file and make writing the
    output fail. Such a string needs a surrogate escape or a surrogate in
    ``text``, so only a text holding one has its strings walked.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"not valid JSON: {exc.msg}", line=exc.lineno) from exc
    if _SURROGATE_ESCAPE.search(text) is None and _encodes(text):
        return payload
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
    return payload


def _encodes(text: str) -> bool:
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _require(condition: bool, message: str, line: int | None = None) -> None:
    if not condition:
        raise MalformedRecord(message, line=line)


def parse_annotation_file(text: str) -> AnnotationDocument:
    """Parse the JSON interchange form back into an annotation document."""
    payload = _load_json(text, MalformedRecord)
    _require(isinstance(payload, dict), "top level must be an object")
    source = payload.get("source")
    _require(isinstance(source, dict), "missing 'source' object")
    file = source.get("file")
    language = source.get("language")
    _require(isinstance(file, str) and file != "", "'source.file' must be a string")
    _require(isinstance(language, str) and language != "", "'source.language' must be a string")
    records = payload.get("annotations")
    _require(isinstance(records, list), "'annotations' must be a list")

    annotations: list[Annotation] = []
    for index, record in enumerate(records):
        where = f"annotation record {index}"
        _require(isinstance(record, dict), f"{where}: must be an object")
        line = record.get("line")
        _require(isinstance(line, int) and line >= 1, f"{where}: 'line' must be a positive int")
        tag_name = record.get("tag")
        _require(isinstance(tag_name, str), f"{where}: 'tag' must be a string", line)
        try:
            tag = Tag(tag_name.lower())
        except ValueError:
            raise MalformedRecord(f"{where}: unknown tag {tag_name!r}", line=line) from None
        value = record.get("value")
        _require(isinstance(value, str), f"{where}: 'value' must be a string", line)
        if tag is Tag.END:
            _require(
                value == "" or bool(IDENTIFIER_RE.match(value)),
                f"{where}: bad end value {value!r}",
                line,
            )
        else:
            _require(
                bool(IDENTIFIER_RE.match(value)),
                f"{where}: bad value {value!r} for @{tag.value}",
                line,
            )
        description = record.get("description")
        _require(
            description is None or isinstance(description, str),
            f"{where}: 'description' must be a string or null",
            line,
        )
        if description == "":
            description = None
        annotations.append(Annotation(tag, value, description, file, line))
    return AnnotationDocument(file, language, tuple(annotations))
