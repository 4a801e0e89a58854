"""Shared error types for the ywx toolchain, and the one input file reader."""

from __future__ import annotations

from pathlib import Path


class YwxError(Exception):
    """Base class for all toolchain errors.

    Carries an optional source location so callers can print
    ``FILE:LINE: message`` style reports.
    """

    def __init__(self, message: str, *, file: str | None = None, line: int | None = None):
        super().__init__(message)
        self.message = message
        self.file = file
        self.line = line

    def __str__(self) -> str:
        if self.file is not None and self.line is not None:
            return f"{self.file}:{self.line}: {self.message}"
        if self.file is not None:
            return f"{self.file}: {self.message}"
        return self.message


# -- comment scanning ------------------------------------------------------

class UnknownLanguage(YwxError):
    pass


class UnterminatedBlockComment(YwxError):
    pass


# -- annotation parsing ----------------------------------------------------

class AnnotationError(YwxError):
    pass


class MissingValue(AnnotationError):
    pass


class InvalidValue(AnnotationError):
    pass


class MalformedRecord(AnnotationError):
    pass


# -- model building --------------------------------------------------------

class ModelError(YwxError):
    pass


class UnbalancedEnd(ModelError):
    pass


class UnclosedBlock(ModelError):
    pass


class MismatchedEndName(ModelError):
    pass


class PortOutsideBlock(ModelError):
    pass


class DuplicatePort(ModelError):
    pass


class DuplicateBlockName(ModelError):
    pass


class NoBlocks(ModelError):
    pass


class AmbiguousWriter(ModelError):
    pass


class MalformedModel(ModelError):
    pass


# -- rendering -------------------------------------------------------------

class UnknownFocus(YwxError):
    pass


class StyleError(YwxError):
    pass


# -- queries ---------------------------------------------------------------

class UnknownName(YwxError):
    pass


class CyclicDerivation(YwxError):
    pass


class AmbiguousLineage(YwxError):
    pass


class MalformedManifest(YwxError):
    pass


# -- pipeline --------------------------------------------------------------

class UsageError(YwxError):
    """Command line arguments that parse but cannot be acted on."""


class FormatMismatch(YwxError):
    pass


class UnreadableInput(YwxError):
    """An input file whose bytes are not UTF-8 text."""


def _read_text(path: str | Path) -> str:
    """The UTF-8 text of an input file: a script, a listing, a model file, a
    manifest or a style file. Line endings are kept as written, so a file
    reads as the same text, and the same lines, as that text in memory.
    Bytes that do not decode raise ``UnreadableInput``, which names the file."""
    try:
        with open(path, encoding="utf-8", newline="") as file:
            return file.read()
    except UnicodeDecodeError as exc:
        raise UnreadableInput(
            f"not UTF-8 text: byte 0x{exc.object[exc.start]:02x} at offset "
            f"{exc.start}: {exc.reason}",
            file=str(path),
        ) from exc
