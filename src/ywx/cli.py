"""The ywx command line: extract, model, graph, query, validate.

Each subcommand starts from script files or from a serialized intermediate
(an annotation listing or a model, both JSON), so any stage can be replayed
from the previous stage's output file. Results are deterministic: running a
pipeline in stages through files yields byte-identical output to running the
final stage straight from the scripts.

A plain call is read straight from ``_ARGUMENTS`` and builds no parser.
Any other goes to argparse's full tree of all five commands, so only
argparse prints help, usage and errors, in the text it always did.

Exit status: 0 on success, 1 when validate reports errors, 2 for usage or
input problems.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from pathlib import Path
from typing import Iterable

from . import queries
from .annotations import _listing_chunks, _listing_from_json, _Tagged, _tags
from .comments import CommentSyntax, _lines, _scan, detect_language
from .errors import FormatMismatch, UsageError, YwxError, _read_text
from .model import (
    WorkflowModel,
    _build_model,
    _model_chunks,
    _model_from_json,
)
from .render import (
    DEFAULT_STYLE,
    RANKDIRS,
    VIEWS,
    RenderOptions,
    load_style_file,
    render,
)
from .validate import (
    diagnostics_as_dicts,
    format_diagnostics,
    has_errors,
    validate_scripts,
)


# -- query answers -------------------------------------------------------------
# Each returns the payload ``--json`` writes and the lines the text form
# writes. It looks its ``queries`` function up when it runs, so a wrapper
# bound in its place, as the benchmark's tracer binds one, is run.

def _names(function: str):
    """The answer of a subquery that finds a list of names, or a set, sorted."""
    def answer(model: WorkflowModel, value: str) -> tuple[list[str], list[str]]:
        names = getattr(queries, function)(model, value)
        names = sorted(names) if isinstance(names, set) else names
        return names, names
    return answer


def _blocks(model: WorkflowModel) -> tuple[list, list[str]]:
    rows = queries.list_blocks(model)
    payload = [{"qualified_name": name, "description": text} for name, text in rows]
    return payload, [f"{name}: {text}" if text else name for name, text in rows]


def _derivation(model: WorkflowModel, name: str) -> tuple[dict, list[str]]:
    result = queries.derivation(model, name)
    steps = [
        {"block": step.block, "consumed": list(step.consumed), "produced": step.produced}
        for step in result.steps
    ]
    lines = [
        f"{i}. {step.block} ({', '.join(step.consumed)}) -> {step.produced}"
        for i, step in enumerate(result.steps, start=1)
    ]
    return {"target": result.target, "steps": steps}, lines


def _sources(model: WorkflowModel, block: str) -> tuple[list, list[str]]:
    found = queries.step_input_sources(model, block)
    payload = [{"port": s.port, "kind": s.kind, "block": s.block} for s in found]
    return payload, [f"{s.port}: {s.kind}" + (f" {s.block}" if s.block else "") for s in found]


def _lineage(
    model: WorkflowModel, manifest_path: str, name: str, direction: str
) -> tuple[list, list[str]]:
    try:
        manifest = queries.parse_manifest(_read_text(manifest_path), model)
    except YwxError as exc:
        exc.file = exc.file or manifest_path
        raise
    records = queries.infer_file_lineage(model, manifest, direction, name)
    payload = [{"file": r.file, "port": r.port, "role": r.role} for r in records]
    return payload, [f"{r.file} (via {r.port}, {r.role})" for r in records]


# Each subquery, in the order ``QUERY_NAMES`` pins: its answer, and the
# options the answer takes after the model, in the order a missing one is
# reported (``--direction`` has a default).
_ANSWERS = {
    "blocks": (_blocks, ()),
    "nested": (_names("nested_blocks"), ("block",)),
    "containers": (_names("containing_blocks"), ("block",)),
    "downstream": (_names("downstream_blocks"), ("block",)),
    "affected-by": (_names("blocks_affected_by_input"), ("name",)),
    "upstream-inputs": (_names("upstream_inputs"), ("name",)),
    "deriving-blocks": (_names("deriving_blocks"), ("name",)),
    "derivation": (_derivation, ("name",)),
    "sources": (_sources, ("block",)),
    "lineage": (_lineage, ("manifest", "name", "direction")),
}
QUERY_NAMES = (*_ANSWERS, "invoking-blocks")


# Each command's arguments as (flags, ``add_argument`` keywords), in the
# order its parser declares them: positionals first, then options, each
# option's long flag last. ``_build_parser`` and ``_read_plain`` both read this.
_COMMON = (
    (("-l", "--language"), {"help": "comment syntax override"}),
    (("-o", "--output"), {"help": "write output to FILE instead of stdout"}),
)
_INPUTS = (("inputs",), {"nargs": "+", "metavar": "INPUT"})
_SWITCH = {"action": "store_true"}
_JSON = (("--json",), {**_SWITCH, "help": "machine-readable output"})
_ARGUMENTS = {
    "extract": ((("input",), {"metavar": "SCRIPT"}), *_COMMON),
    "model": (_INPUTS, *_COMMON),
    "graph": (
        _INPUTS,
        *_COMMON,
        (("--view",), {"choices": VIEWS, "default": "process"}),
        (("--rankdir",), {"choices": RANKDIRS, "default": "LR"}),
        (("--focus",), {"help": "qualified name of the workflow to draw"}),
        (("--nested",), {**_SWITCH, "help": "draw sub-workflows as nested clusters"}),
        (
            ("--de-emphasize-params",),
            {**_SWITCH, "help": "draw parameter channels and nodes in a muted style"},
        ),
    ),
    "query": (
        (("subquery",), {"choices": QUERY_NAMES}),
        _INPUTS,
        *_COMMON,
        (("--block",), {"help": "block name (qualified, or simple if unique)"}),
        (("--name",), {"help": "data, port, or file name"}),
        (("--manifest",), {"help": "run manifest JSON file (lineage)"}),
        (("--direction",), {"choices": ("upstream", "downstream"), "default": "upstream"}),
        _JSON,
    ),
    "validate": (_INPUTS, *_COMMON, _JSON),
}


def _build_parser() -> argparse.ArgumentParser:
    """The full tree: the top-level parser with one subparser per command."""
    parser = argparse.ArgumentParser(
        prog="ywx",
        description="Recover and inspect workflow structure from annotated scripts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flags, keywords in _ARGUMENTS[name]:
            command.add_argument(*flags, **keywords)
    return parser


def _read_plain(argv: list[str]) -> argparse.Namespace | None:
    """What the named command's parser returns for ``argv``, or None unless
    ``argv`` is a plain call: a command, its positionals, then options spelled
    as declared, a value-taking one followed by one value in its choices (the
    last of a repeated option wins), and no positional or value empty or
    starting with ``-``. argparse's result on that form is fixed and error-free.
    """
    specs = _ARGUMENTS.get(argv[0]) if argv else None
    if specs is None:
        return None
    end = 1
    while end < len(argv) and argv[end][:1] not in ("", "-"):
        end += 1
    words, rest = argv[1:end], iter(argv[end:])
    args = argparse.Namespace(command=argv[0])
    options = {}
    for flags, spec in specs:
        if flags[0][0] != "-":
            if not words or words[0] not in spec.get("choices", (words[0],)):
                return None
            value, words = (words, []) if "nargs" in spec else (words[0], words[1:])
            setattr(args, flags[0], value)
        else:
            dest = flags[-1][2:].replace("-", "_")
            options.update(dict.fromkeys(flags, (dest, spec)))
            setattr(args, dest, False if "action" in spec else spec.get("default"))
    if words:
        return None
    for flag in rest:
        if flag not in options:
            return None
        dest, spec = options[flag]
        if "action" in spec:
            value = True
        else:
            value = next(rest, "")
            if value[:1] in ("", "-") or value not in spec.get("choices", (value,)):
                return None
        setattr(args, dest, value)
    return args


def _parse(argv: list[str]) -> argparse.Namespace:
    """``_build_parser().parse_args(argv)``, with no parser built for a plain
    call (see ``_read_plain``). Any other call, such as an abbreviated
    option, ``--opt=value``, help or an error, builds the full tree.
    """
    plain = _read_plain(argv)
    return _build_parser().parse_args(argv) if plain is None else plain


# -- input handling -----------------------------------------------------------

def _is_intermediate(path: str) -> bool:
    return Path(path).suffix.lower() == ".json"


def _script_tags(path: str, syntax: CommentSyntax) -> list[_Tagged]:
    """``parse_annotations(extract_comments(...))`` of a script as tag-walk
    tuples, with no comment or annotation records built on the way."""
    text = _read_text(path)
    return _tags(_lines(text, _scan(text, syntax, path), path), None)


def _load_intermediate(path: str) -> tuple[str, str, list[_Tagged]] | WorkflowModel:
    """Read an annotation listing or a model file, decoding its JSON once.

    The decoded payload's keys tell the two kinds apart, and the same
    payload is then checked as ``parse_annotation_file`` or ``parse_model``
    would do from the text. A listing comes back as its source file, its
    language and its annotations as tag-walk tuples, with no records built.
    Each format problem names the file once; a listing record's text names
    the script line the record is about.
    """
    text = _read_text(path)
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatMismatch(f"not valid JSON: {exc.msg}", file=path, line=exc.lineno) from exc
    try:
        if isinstance(payload, dict) and "annotations" in payload:
            return _listing_from_json(text, payload)
        if isinstance(payload, dict) and "root" in payload and "channels" in payload:
            return _model_from_json(text, payload)
    except YwxError as exc:  # a format refusal names no file, a build error its script
        exc.file = exc.file or path
        raise
    raise FormatMismatch("neither an annotation listing nor a model file", file=path)


def _model_from_inputs(
    paths: list[str], language: str | None, allow_model: bool = True
) -> WorkflowModel:
    json_inputs = [p for p in paths if _is_intermediate(p)]
    if json_inputs:
        if len(paths) > 1:
            raise FormatMismatch(
                "an intermediate JSON file must be the only input",
                file=json_inputs[0],
            )
        loaded = _load_intermediate(paths[0])
        if isinstance(loaded, WorkflowModel):
            if not allow_model:
                raise FormatMismatch(
                    "already holds a model; pass scripts or an annotation listing",
                    file=paths[0],
                )
            return loaded
        source_file, _, annotations = loaded
        return _build_model(annotations, Path(source_file).stem, [source_file])
    merged = [
        ann for path in paths for ann in _script_tags(path, detect_language(path, language))
    ]
    return _build_model(merged, Path(paths[0]).stem, paths)


def _write(chunks: Iterable[str], output: str | None) -> None:
    """Write the output text, given as a stream of chunks, to ``output`` or stdout."""
    if output is not None:
        with open(output, "w", encoding="utf-8") as out:
            out.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _as_lines(items: list[str]) -> str:
    return "".join(item + "\n" for item in items)


def _as_json(payload: object) -> str:
    return json.dumps(payload, indent=2) + "\n"


# -- subcommands ---------------------------------------------------------------

def _cmd_extract(args: argparse.Namespace) -> int:
    if _is_intermediate(args.input):
        raise FormatMismatch(
            "extract starts from a script, not an intermediate file",
            file=args.input,
        )
    syntax = detect_language(args.input, args.language)
    tags = _script_tags(args.input, syntax)
    _write(_listing_chunks(args.input, syntax.language_name, tags), args.output)
    return 0


def _cmd_model(args: argparse.Namespace) -> int:
    model = _model_from_inputs(args.inputs, args.language, allow_model=False)
    _write(_model_chunks(model), args.output)
    return 0


def _cmd_graph(args: argparse.Namespace) -> int:
    model = _model_from_inputs(args.inputs, args.language)
    style = DEFAULT_STYLE
    style_path = os.environ.get("YWX_STYLE")
    if style_path:
        style = load_style_file(style_path)
    options = RenderOptions(
        view=args.view,
        rankdir=args.rankdir,
        focus=args.focus,
        nested=args.nested,
        de_emphasize_params=args.de_emphasize_params,
    )
    _write((render(model, options, style),), args.output)
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    sub = args.subquery
    if sub == "invoking-blocks":
        raise UsageError(
            "query invoking-blocks is unsupported: requires function annotations"
        )
    model = _model_from_inputs(args.inputs, args.language)
    answer, options = _ANSWERS[sub]
    values = [getattr(args, option) for option in options]
    if None in values:
        raise UsageError(f"query {sub} requires --{options[values.index(None)]}")
    payload, lines = answer(model, *values)
    _write((_as_json(payload) if args.json else _as_lines(lines),), args.output)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    for path in args.inputs:
        if _is_intermediate(path):
            raise FormatMismatch(
                "validate needs the scripts themselves, not intermediates",
                file=path,
            )
    diagnostics = validate_scripts(args.inputs, args.language)
    if args.json:
        text = _as_json(diagnostics_as_dicts(diagnostics))
    else:
        text = format_diagnostics(diagnostics)
        if text:
            text += "\n"
    _write((text,), args.output)
    return 1 if has_errors(diagnostics) else 0


# Each command's handler and its line in the top-level help.
_COMMANDS = {
    "extract": (_cmd_extract, "list a script's annotations as JSON"),
    "model": (_cmd_model, "build the workflow model as JSON"),
    "graph": (_cmd_graph, "render a DOT graph view of the model"),
    "query": (_cmd_query, "answer structure and provenance questions"),
    "validate": (_cmd_validate, "check annotations for consistency"),
}


def run(argv: list[str] | None = None) -> int:
    """Run one ywx command; returns its exit status.

    ``argv`` defaults to ``sys.argv[1:]``. A plain call builds no parser;
    see the module docstring for the rest.

    The cyclic garbage collector is suspended while the command runs, and
    left as the caller had it. A command builds acyclic records, which
    reference counting frees, so a collection pass would walk every live
    record and free nothing; the few cycles argparse leaves go at the next
    pass after the command.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if enabled:
            gc.enable()


def _run(argv: list[str] | None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _COMMANDS[args.command][0](args)
    except YwxError as exc:
        print(f"ywx: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"ywx: error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # JSON decoding recurses once per nesting level, so a model file
        # nested past the interpreter's limit is one it cannot read: an input
        # problem, not a crash.
        print("ywx: error: the input nests too deeply to process", file=sys.stderr)
        return 2
