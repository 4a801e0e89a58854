"""Command line behaviour: exit codes, piping through intermediates, output."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ywx import cli
from ywx.annotations import _FIELDS, parse_annotation_file, parse_annotations
from ywx.cli import run
from ywx.comments import detect_language, extract_comments
from ywx.errors import DuplicateBlockName, MalformedManifest, MalformedModel, MalformedRecord
from ywx.model import _bracket, build_blocks, iter_blocks, parse_model
from ywx.queries import parse_manifest
from ywx.validate import _diagnostic

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).parent.parent / "src"
AFFY = str(FIXTURES / "affymetrix.R")
MSTMIP = str(FIXTURES / "mstmip_nee.m")
PALEO = str(FIXTURES / "paleoclimate.R")
MANIFEST = str(FIXTURES / "mstmip_manifest.json")


def run_ok(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out


def run_err(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.err


def digit_limit():
    """The most digits ``int()`` converts, which ``json.loads`` calls on every
    integer; skips the test on an interpreter with no limit."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit == 0:
        pytest.skip("this interpreter converts integers of any length")
    return limit


def run_child(*argv, **environ):
    """Run ``python -m ywx`` in a child process that imports this checkout,
    with ``environ`` added to its environment."""
    env = {**os.environ, **environ}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "ywx", *argv], capture_output=True, text=True, env=env
    )


class TestExitCodes:
    def test_no_arguments_is_usage_error(self, capsys):
        assert run([]) == 2

    def test_unknown_command(self, capsys):
        assert run(["summon"]) == 2

    def test_unknown_subquery(self, capsys):
        assert run(["query", "teleport", AFFY]) == 2

    def test_lineage_requires_manifest(self, capsys):
        code, err = run_err(
            capsys, "query", "lineage", MSTMIP, "--name", "NEE_std"
        )
        assert (code, err) == (2, "ywx: error: query lineage requires --manifest\n")

    # The options each subquery needs on mstmip_nee.m, in the order a
    # missing one is named, with a value it answers.
    NEEDED = {
        "blocks": (),
        "nested": (("--block", "QualityControl"),),
        "containers": (("--block", "GapFill"),),
        "downstream": (("--block", "LoadData"),),
        "affected-by": (("--name", "NEE_data"),),
        "upstream-inputs": (("--name", "NEE_std"),),
        "deriving-blocks": (("--name", "NEE_std"),),
        "derivation": (("--name", "NEE_std"),),
        "sources": (("--block", "Standardize"),),
        "lineage": (("--manifest", MANIFEST), ("--name", "NEE_std")),
    }

    @pytest.mark.parametrize("sub", [s for s in cli.QUERY_NAMES if s != "invoking-blocks"])
    def test_each_missing_option_is_named(self, capsys, sub):
        """Options are checked before any input is read, so a missing
        option is named even when the input file is missing too."""
        given = []
        for option, value in self.NEEDED[sub]:
            for inp in (MSTMIP, "no_such_script.py"):
                code, err = run_err(capsys, "query", sub, inp, *given)
                assert (code, err) == (2, f"ywx: error: query {sub} requires {option}\n")
            given += [option, value]
        assert run_ok(capsys, "query", sub, MSTMIP, *given)

    def test_unknown_language(self, capsys):
        code, err = run_err(capsys, "model", AFFY, "-l", "fortran")
        assert code == 2
        assert "fortran" in err

    def test_missing_file(self, capsys):
        code, err = run_err(capsys, "model", "no_such_script.py")
        assert code == 2
        assert err.startswith("ywx: error:")

    def test_no_blocks_names_the_scripts(self, tmp_path, capsys):
        a, b = tmp_path / "a.py", tmp_path / "b.py"
        a.write_text("x = 1\n")
        b.write_text("# no tags here\n")
        listing = tmp_path / "ann.json"
        assert run(["extract", str(a), "-o", str(listing)]) == 0
        for argv, named in (
            (["model", str(a), str(b)], f"{a}, {b}"),
            (["graph", str(listing)], str(a)),  # a listing names the script it lists
        ):
            message = f"ywx: error: {named}: the annotation stream defines no blocks\n"
            assert run_err(capsys, *argv) == (2, message)

    def test_validate_flags_no_blocks(self, tmp_path, capsys):
        """A stream that defines no block fails validate (YW008), as it
        fails every command that builds a model."""
        a, b = tmp_path / "a.py", tmp_path / "b.py"
        a.write_text("x = 1\n")
        b.write_text("# no tags here\n")
        code = run(["validate", str(a), str(b)])
        out = capsys.readouterr().out
        assert (code, out) == (
            1, f"{a}:1: error YW008 the annotation stream of {a}, {b} defines no blocks\n"
        )
        assert run_err(capsys, "model", str(a))[0] == 2

    def test_validate_clean_is_zero(self, capsys):
        assert run(["validate", AFFY]) == 0

    def test_validate_warnings_only_is_zero(self, capsys):
        path = str(FIXTURES / "defects" / "d07_name_not_in_code.py")
        code = run(["validate", path])
        out = capsys.readouterr().out
        assert code == 0
        assert "YW010" in out

    def test_validate_errors_are_one(self, capsys):
        path = str(FIXTURES / "defects" / "d09_broken_chain.py")
        code = run(["validate", path])
        out = capsys.readouterr().out
        assert code == 1
        assert "YW020" in out

    @pytest.mark.parametrize("command", ["extract", "model", "validate"])
    def test_non_utf8_script_is_input_error(self, tmp_path, command):
        script = tmp_path / "latin1.py"
        script.write_bytes(
            b"# caf\xe9\n# @begin W @in x @out y\n# @begin P @in x @out y\n"
            b"y = x\n# @end P\n# @end W\n"
        )
        proc = run_child(command, str(script))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("ywx: error:")


class TestUndecodableInput:
    """Every input file that is not UTF-8 text is an input error naming it."""

    @pytest.fixture
    def bad(self, tmp_path):
        for name in ("bad.py", "bad.json", "bad.style"):
            (tmp_path / name).write_bytes(b"\xff# @begin W\n")
        return tmp_path

    @staticmethod
    def assert_names(err, path):
        assert err == (
            f"ywx: error: {path}: not UTF-8 text: byte 0xff at offset 0: "
            "invalid start byte\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["extract", "{bad}.py"],
            ["model", "{bad}.py"],
            ["graph", "{bad}.py"],
            ["query", "blocks", "{bad}.py"],
            ["validate", AFFY, "{bad}.py"],
            ["model", "{bad}.json"],  # an annotation listing
            ["graph", "{bad}.json"],  # a model file
            ["query", "lineage", MSTMIP, "--name", "NEE_std", "--manifest", "{bad}.json"],
        ],
        ids=[
            "extract", "model", "graph", "query", "validate",
            "listing", "model-file", "manifest",
        ],
    )
    def test_input_file(self, bad, capsys, argv):
        argv = [a.format(bad=bad / "bad") for a in argv]
        code, err = run_err(capsys, *argv)
        assert code == 2
        self.assert_names(err, next(a for a in argv if a.startswith(str(bad))))

    def test_style_file(self, bad, capsys, monkeypatch):
        monkeypatch.setenv("YWX_STYLE", str(bad / "bad.style"))
        code, err = run_err(capsys, "graph", AFFY)
        assert code == 2
        self.assert_names(err, bad / "bad.style")


class TestUnencodableOutput:
    """A result standard output cannot encode is refused, not a traceback."""

    REFUSAL = (
        "ywx: error: standard output cannot encode the result (ascii); "
        "write it to a file with -o\n"
    )

    @pytest.mark.parametrize("command", [["query", "blocks"], ["validate"]])
    def test_ascii_stdout(self, tmp_path, command):
        script = tmp_path / "café.py"
        script.write_text(
            "# @begin W @in x @out y\n# @begin P étape @in x @out y\n# @end P\n# @end W\n",
            encoding="utf-8",
        )
        proc = run_child(*command, str(script), PYTHONIOENCODING="ascii")
        assert proc.returncode == 2
        assert proc.stderr == self.REFUSAL

    def test_lineage_in_process(self, tmp_path, capsys, monkeypatch):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"bindings": {"NEE_data": ["données.csv"]}}))
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(io.BytesIO(), encoding="ascii"))
        argv = ["query", "lineage", MSTMIP, "--manifest", str(manifest), "--name", "NEE_std"]
        code, err = run_err(capsys, *argv)
        assert (code, err) == (2, self.REFUSAL)
        assert run_ok(capsys, *argv, "-o", str(tmp_path / "out.txt")) == ""
        assert "données.csv" in (tmp_path / "out.txt").read_text(encoding="utf-8")


class TestIntermediateHandling:
    def test_extract_rejects_json(self, capsys):
        code, err = run_err(capsys, "extract", MANIFEST)
        assert code == 2
        assert "script" in err

    def test_validate_rejects_json(self, tmp_path, capsys):
        doc = tmp_path / "annotations.json"
        run(["extract", AFFY, "-o", str(doc)])
        capsys.readouterr()
        code, err = run_err(capsys, "validate", str(doc))
        assert code == 2

    def test_model_rejects_model_input(self, tmp_path, capsys):
        model_file = tmp_path / "model.json"
        run(["model", AFFY, "-o", str(model_file)])
        capsys.readouterr()
        code, err = run_err(capsys, "model", str(model_file))
        assert code == 2
        assert "already holds a model" in err

    def test_json_must_be_sole_input(self, tmp_path, capsys):
        doc = tmp_path / "annotations.json"
        run(["extract", AFFY, "-o", str(doc)])
        capsys.readouterr()
        code, err = run_err(capsys, "model", str(doc), AFFY)
        assert code == 2
        assert "only input" in err

    def test_unrecognized_json_payload(self, tmp_path, capsys):
        stray = tmp_path / "stray.json"
        stray.write_text('{"neither": true}\n')
        code, err = run_err(capsys, "graph", str(stray))
        assert code == 2
        assert "neither" in err

    def test_invalid_json_payload(self, tmp_path, capsys):
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        code, err = run_err(capsys, "model", str(broken))
        assert code == 2

    def test_manifest_is_not_a_model(self, capsys):
        code, err = run_err(capsys, "graph", MANIFEST)
        assert code == 2

    @pytest.mark.parametrize(
        "text, message",
        [
            ("{", "not valid JSON"),
            ("[]", "manifest must be a JSON object"),
            ('{"bindings": {"x": []}}', "binding 'x' does not name a top-level workflow port"),
        ],
    )
    def test_manifest_refusal_names_the_manifest(self, tmp_path, capsys, text, message):
        manifest = tmp_path / "run.json"
        manifest.write_text(text)
        argv = ["query", "lineage", MSTMIP, "--manifest", str(manifest), "--name", "NEE_std"]
        code, err = run_err(capsys, *argv)
        assert code == 2 and err.startswith(f"ywx: error: {manifest}"), err
        assert message in err

    @staticmethod
    def rename_data(channel):
        channel["data"] = "renamed_data"

    @staticmethod
    def swap_source_and_sink(channel):
        channel["source"], channel["sinks"][0] = channel["sinks"][0], channel["source"]

    @pytest.mark.parametrize("view", ["process", "data"])
    @pytest.mark.parametrize("edit", ["rename_data", "swap_source_and_sink"])
    def test_channel_endpoint_without_matching_port(self, tmp_path, view, edit):
        model_file = tmp_path / "model.json"
        assert run(["model", AFFY, "-o", str(model_file)]) == 0
        payload = json.loads(model_file.read_text())
        getattr(self, edit)(payload["channels"][0])
        model_file.write_text(json.dumps(payload))
        proc = run_child("graph", str(model_file), "--view", view)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "channel" in proc.stderr


    @staticmethod
    def surrogate_in_listing(tmp_path):
        doc = tmp_path / "annotations.json"
        assert run(["extract", AFFY, "-o", str(doc)]) == 0
        payload = json.loads(doc.read_text())
        begins = [a for a in payload["annotations"] if a["tag"] == "begin"]
        begins[1]["description"] = "\ud800"
        doc.write_text(json.dumps(payload))
        return ["query", "blocks", str(doc)]

    @staticmethod
    def surrogate_in_model(tmp_path):
        model_file = tmp_path / "model.json"
        assert run(["model", AFFY, "-o", str(model_file)]) == 0
        payload = json.loads(model_file.read_text())
        payload["root"]["children"][0]["description"] = "\udfff"
        model_file.write_text(json.dumps(payload))
        return ["query", "blocks", str(model_file)]

    @staticmethod
    def surrogate_in_manifest(tmp_path):
        manifest = json.loads(Path(MANIFEST).read_text())
        manifest["bindings"]["NEE_std"].append("\udc80.nc")
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        return [
            "query", "lineage", MSTMIP, "--manifest", str(path), "--name", "NEE_data",
            "--direction", "downstream",
        ]

    @pytest.mark.parametrize("to_file", [False, True])
    @pytest.mark.parametrize(
        "edit", ["surrogate_in_listing", "surrogate_in_model", "surrogate_in_manifest"]
    )
    def test_lone_surrogate_is_input_error(self, tmp_path, capsys, edit, to_file):
        argv = getattr(self, edit)(tmp_path)
        capsys.readouterr()
        if to_file:
            argv += ["-o", str(tmp_path / "out.txt")]
        proc = run_child(*argv)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("ywx: error: ")
        assert "surrogate" in proc.stderr

    @staticmethod
    def long_int_in_listing(tmp_path, digits):
        doc = tmp_path / "annotations.json"
        assert run(["extract", AFFY, "-o", str(doc)]) == 0
        payload = json.loads(doc.read_text())
        payload["annotations"][0]["line"] = "LONG"
        doc.write_text(json.dumps(payload).replace('"LONG"', digits))
        return doc, ["query", "blocks", str(doc)]

    @staticmethod
    def long_int_in_model(tmp_path, digits):
        model_file = tmp_path / "model.json"
        assert run(["model", AFFY, "-o", str(model_file)]) == 0
        payload = json.loads(model_file.read_text())
        payload["root"]["ports"][0]["line"] = "LONG"
        model_file.write_text(json.dumps(payload).replace('"LONG"', digits))
        return model_file, ["graph", str(model_file)]

    @staticmethod
    def long_int_in_manifest(tmp_path, digits):
        manifest = json.loads(Path(MANIFEST).read_text())
        manifest["run_id"] = "LONG"
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest).replace('"LONG"', digits))
        return path, ["query", "lineage", MSTMIP, "--manifest", str(path), "--name", "NEE_std"]

    @pytest.mark.parametrize(
        "edit", ["long_int_in_listing", "long_int_in_model", "long_int_in_manifest"]
    )
    def test_integer_past_the_digit_limit_is_input_error(self, tmp_path, edit):
        limit = digit_limit()
        path, argv = getattr(self, edit)(tmp_path, "7" * (limit + 1))
        proc = run_child(*argv)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr == f"ywx: error: {path}: an integer has more than {limit} digits\n"

    @pytest.mark.parametrize(
        "read, error",
        [
            (parse_annotation_file, MalformedRecord),
            (parse_model, MalformedModel),
            (lambda text: parse_manifest(text, cli._model_from_inputs([MSTMIP], None)),
             MalformedManifest),
        ],
        ids=["listing", "model", "manifest"],
    )
    def test_integer_past_the_digit_limit_is_the_readers_error(self, read, error):
        limit = digit_limit()
        with pytest.raises(error, match=f"more than {limit} digits"):
            read('{"line": ' + "7" * (limit + 1) + "}")


class TestIntermediateLoad:
    """Each intermediate file is decoded once, then checked as its kind."""

    @staticmethod
    def intermediates(tmp_path):
        doc = tmp_path / "annotations.json"
        model_file = tmp_path / "model.json"
        assert run(["extract", AFFY, "-o", str(doc)]) == 0
        assert run(["model", AFFY, "-o", str(model_file)]) == 0
        return doc, model_file

    @pytest.mark.parametrize(
        "argv",
        [
            ["model", "{doc}"],
            ["graph", "{doc}", "--view", "data"],
            ["graph", "{model}", "--nested"],
            ["query", "blocks", "{model}"],
            ["query", "downstream", "{model}", "--block", "affy_analysis.Normalize"],
        ],
    )
    def test_json_decoded_once_per_intermediate(self, tmp_path, capsys, monkeypatch, argv):
        doc, model_file = self.intermediates(tmp_path)
        calls = []
        real_loads = json.loads

        def counting_loads(*args, **kwargs):
            calls.append(args)
            return real_loads(*args, **kwargs)

        monkeypatch.setattr(json, "loads", counting_loads)
        argv = [a.format(doc=doc, model=model_file) for a in argv]
        run_ok(capsys, *argv, "-o", str(tmp_path / "out.txt"))
        assert len(calls) == 1

    @pytest.mark.parametrize("field", ["direction", "role"])
    @pytest.mark.parametrize("value", [["in"], {"in": 1}, 1, "IN"])
    def test_bad_port_direction_or_role(self, tmp_path, capsys, field, value):
        _, model_file = self.intermediates(tmp_path)
        payload = json.loads(model_file.read_text())
        payload["root"]["ports"][0][field] = value
        model_file.write_text(json.dumps(payload))
        code, err = run_err(capsys, "query", "blocks", str(model_file))
        assert code == 2
        root = payload["root"]["qualified_name"]
        assert err == f"ywx: error: {model_file}: bad port direction/role on {root!r}\n"

    @staticmethod
    def bool_line_in_listing(doc, model_file):
        payload = json.loads(doc.read_text())
        payload["annotations"][0]["line"] = True
        doc.write_text(json.dumps(payload))
        return doc, f"{doc}: annotation record 0: 'line' must be a positive int"

    @staticmethod
    def bool_port_line(doc, model_file):
        payload = json.loads(model_file.read_text())
        port = payload["root"]["ports"][0]
        port["line"] = True
        model_file.write_text(json.dumps(payload))
        root = payload["root"]["qualified_name"]
        return model_file, f"{model_file}: port {port['name']!r} on {root!r} needs an integer line"

    @staticmethod
    def bool_block_span(doc, model_file):
        payload = json.loads(model_file.read_text())
        block = payload["root"]["children"][0]
        block["span"] = [False, block["span"][1]]
        model_file.write_text(json.dumps(payload))
        return model_file, f"{model_file}: block {block['name']!r} needs a [begin, end] span"

    @pytest.mark.parametrize("edit", ["bool_line_in_listing", "bool_port_line", "bool_block_span"])
    @pytest.mark.parametrize("command", [["graph", "--nested"], ["query", "blocks"]])
    def test_bool_is_not_a_line_number(self, tmp_path, capsys, edit, command):
        path, message = getattr(self, edit)(*self.intermediates(tmp_path))
        code, err = run_err(capsys, *command, str(path), "-o", str(tmp_path / "out.txt"))
        assert (code, err) == (2, f"ywx: error: {message}\n")

    def test_lone_surrogate_in_model_is_malformed_model(self, tmp_path):
        from ywx.cli import _load_intermediate
        from ywx.errors import MalformedModel

        _, model_file = self.intermediates(tmp_path)
        payload = json.loads(model_file.read_text())
        payload["root"]["ports"][0]["description"] = "\ud800"
        model_file.write_text(json.dumps(payload))
        with pytest.raises(MalformedModel, match="lone surrogate"):
            _load_intermediate(str(model_file))

    def test_lone_surrogate_in_listing_is_malformed_record(self, tmp_path):
        from ywx.cli import _load_intermediate
        from ywx.errors import MalformedRecord

        doc, _ = self.intermediates(tmp_path)
        payload = json.loads(doc.read_text())
        payload["annotations"][0]["description"] = "x\udfff"
        doc.write_text(json.dumps(payload))
        with pytest.raises(MalformedRecord, match="lone surrogate"):
            _load_intermediate(str(doc))

    def test_invalid_json_message(self, tmp_path, capsys):
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        code, err = run_err(capsys, "graph", str(broken))
        assert code == 2
        assert err == (
            f"ywx: error: {broken}:1: not valid JSON: "
            "Expecting property name enclosed in double quotes\n"
        )

    @pytest.mark.parametrize("text", ['{"neither": true}', "[1, 2]", '{"root": {}}'])
    def test_neither_kind_message(self, tmp_path, capsys, text):
        stray = tmp_path / "stray.json"
        stray.write_text(text)
        code, err = run_err(capsys, "query", "blocks", str(stray))
        assert code == 2
        assert err == (
            f"ywx: error: {stray}: neither an annotation listing nor a model file\n"
        )


class TestRootAndScopeOrder:
    """What a load gives does not depend on the order the model is built in:
    the root is decided before the blocks are, and scopes close innermost
    first."""

    @staticmethod
    def script_and_listing(tmp_path, name, text):
        script = tmp_path / name
        script.write_text(text)
        listing = tmp_path / "listing.json"
        assert run(["extract", str(script), "-o", str(listing)]) == 0
        return str(script), str(listing)

    @pytest.mark.parametrize(
        "name, text, names, span",
        [
            (
                "two_top.py",
                "# @begin A @out x\nx = 1\n# @end A\n# @begin B @in x\nprint(x)\n# @end B\n",
                ["two_top", "two_top.A", "two_top.B"],
                (0, 7),
            ),
            ("lone.py", "# @begin P @in x @out y\ny = x\n# @end P\n", ["lone", "lone.P"], (0, 4)),
        ],
        ids=["several-top-level-blocks", "one-top-level-program"],
    )
    def test_implicit_root(self, tmp_path, name, text, names, span):
        script, listing = self.script_and_listing(tmp_path, name, text)
        for path in (script, listing):
            model = cli._model_from_inputs([path], None)
            assert [b.qualified_name for b in iter_blocks(model.root)] == names
            assert (model.root.span, model.root.file) == (span, script)
            assert model.source_files == (script,)

    def test_two_scripts_share_an_implicit_root(self, tmp_path):
        # Each script alone has a workflow for its root.
        out = tmp_path / "model.json"
        assert run(["model", AFFY, PALEO, "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        root = payload["root"]
        assert (root["qualified_name"], root["span"], root["file"]) == (
            "affymetrix",
            [0, 41],
            AFFY,
        )
        assert [child["qualified_name"] for child in root["children"]] == [
            "affymetrix.affy_analysis",
            "affymetrix.paleo_recon",
        ]
        assert payload["source_files"] == [AFFY, PALEO]

    NESTED_AMBIGUITY = (
        "# @begin W @in x @out y\n"
        "# @begin A @in x @out d\nd = a(x)\n# @end A\n"
        "# @begin B @in x @out d\nd = b(x)\n# @end B\n"
        "# @begin C @in d @out y\n"
        "# @begin C1 @in d @out e\ne = c1(d)\n# @end C1\n"
        "# @begin C2 @in d @out e\ne = c2(d)\n# @end C2\n"
        "# @begin C3 @in e @out y\ny = c3(e)\n# @end C3\n"
        "# @end C\n"
        "# @end W\n"
    )

    def test_outer_ambiguity_is_reported(self, tmp_path, capsys):
        # W's 'd' and W.C's 'e' both have two writers; W.C closes first.
        script, listing = self.script_and_listing(tmp_path, "amb.py", self.NESTED_AMBIGUITY)
        for path in (script, listing):
            assert run_err(capsys, "model", path) == (
                2,
                f"ywx: error: {script}:5: data 'd' has several writers in scope 'W': "
                f"W.A ({script}:2), W.B ({script}:5)\n",
            )
        assert run(["validate", script]) == 1
        assert capsys.readouterr().out == (
            f"{script}:5: error YW030 data 'd' has more than one writer in scope 'W'\n"
            f"{script}:12: error YW030 data 'e' has more than one writer in scope 'W.C'\n"
        )


class TestDeepNesting:
    """Nesting deeper than Python's recursion limit never ends in a traceback."""

    DEPTH = 3000

    @pytest.fixture(scope="class")
    def deep_inputs(self, tmp_path_factory):
        where = tmp_path_factory.mktemp("deep")
        lines = [f"# @begin b{i} @in x @out y" for i in range(self.DEPTH)]
        lines.append("y = x")
        lines += [f"# @end b{i}" for i in reversed(range(self.DEPTH))]
        script = where / "deep.py"
        script.write_text("\n".join(lines) + "\n")
        nested_json = where / "deep.json"
        nested_json.write_text(
            '{"root": ' + "[" * self.DEPTH + "]" * self.DEPTH + ', "channels": []}'
        )
        return {"script": str(script), "json": str(nested_json)}

    @pytest.mark.parametrize(
        "argv",
        [
            ["extract", "{script}"],
            ["model", "{script}"],
            ["graph", "{script}"],
            ["graph", "{script}", "--view", "combined"],
            ["query", "blocks", "{script}"],
            ["query", "containers", "{script}", "--block", "b0.b1.b2"],
            ["validate", "{script}"],
            ["graph", "{json}"],
        ],
    )
    def test_exit_code_without_traceback(self, deep_inputs, argv):
        # The model text grows with the square of the depth (712 MB here).
        proc = run_child(*(a.format(**deep_inputs) for a in argv), "-o", os.devnull)
        assert proc.returncode in ((0,) if argv[0] in ("extract", "model") else (0, 2))
        assert "Traceback" not in proc.stderr
        if proc.returncode == 2:
            assert proc.stderr.startswith("ywx: error:")

    @pytest.mark.parametrize(
        "argv",
        [
            ["graph", "{script}", "--nested"],
            ["graph", "{script}", "--nested", "--view", "data"],
            ["graph", "{script}", "--nested", "--view", "combined"],
            ["query", "sources", "{script}", "--block", f"b{DEPTH - 1}"],
        ],
    )
    def test_nested_views_and_sources_succeed(self, deep_inputs, tmp_path, argv):
        out = tmp_path / "out.txt"
        proc = run_child(*(a.format(**deep_inputs) for a in argv), "-o", str(out))
        assert proc.returncode == 0, proc.stderr
        text = out.read_text(encoding="utf-8")
        if argv[0] == "query":
            assert text == "x: script-input\n"
        else:
            # A cluster for every level but the root and the innermost program.
            assert text.count("subgraph") == self.DEPTH - 2
            assert text.endswith("}\n")


class TestDeepModelFile:
    """A model file is written without recursion, as the stdlib encoder would."""

    DEPTH = 600  # past the depth at which that encoder exceeds the recursion limit

    def test_model_is_the_stdlib_text(self, tmp_path):
        script = tmp_path / "deep.py"
        lines = [f"# @begin b{i} @in x @out y" for i in range(self.DEPTH)]
        lines += ["y = x", *(f"# @end b{i}" for i in reversed(range(self.DEPTH)))]
        script.write_text("\n".join(lines) + "\n")
        listing = tmp_path / "ann.json"
        assert run_child("extract", str(script), "-o", str(listing)).returncode == 0
        outputs = []
        for source in (script, listing):
            outputs.append(tmp_path / f"model-from-{source.suffix[1:]}.json")
            proc = run_child("model", str(source), "-o", str(outputs[-1]))
            assert proc.returncode == 0, proc.stderr
        # The oracle recurses once per level, so it runs with a raised limit.
        oracle = (
            "import json, sys\n"
            "sys.setrecursionlimit(20000)\n"
            "from support import model_payload, stdlib_json\n"
            "from ywx.annotations import parse_annotations\n"
            "from ywx.comments import LANGUAGES, extract_comments\n"
            "from ywx.model import build_model\n"
            "script, *outputs = sys.argv[1:]\n"
            "text = open(script, encoding='utf-8').read()\n"
            "comments = extract_comments(text, LANGUAGES['python'], file=script)\n"
            "model = build_model(parse_annotations(comments), 'deep', [script])\n"
            "payload = model_payload(model)\n"
            "expected = stdlib_json(payload)\n"
            "for path in outputs:\n"
            "    written = open(path, encoding='utf-8').read()\n"
            "    assert written == expected, path\n"
            "    assert json.loads(written) == payload, path\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), str(Path(__file__).parent), env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-c", oracle, str(script), *map(str, outputs)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr


class TestStagedPipelines:
    def test_extract_output_shape(self, capsys):
        payload = json.loads(run_ok(capsys, "extract", AFFY))
        assert payload["source"]["file"] == AFFY
        assert payload["source"]["language"] == "r"
        first = payload["annotations"][0]
        assert first["tag"] == "begin"
        assert first["value"] == "affy_analysis"

    @pytest.mark.parametrize("view", ["process", "data", "combined"])
    def test_staged_equals_single_shot(self, tmp_path, capsys, view):
        doc = tmp_path / "annotations.json"
        model_file = tmp_path / "model.json"
        run(["extract", AFFY, "-o", str(doc)])
        run(["model", str(doc), "-o", str(model_file)])
        capsys.readouterr()
        staged = run_ok(capsys, "graph", str(model_file), "--view", view)
        direct = run_ok(capsys, "graph", AFFY, "--view", view)
        assert staged == direct

    def test_query_on_intermediates_matches_script(self, tmp_path, capsys):
        model_file = tmp_path / "model.json"
        run(["model", MSTMIP, "-o", str(model_file)])
        capsys.readouterr()
        argv = ["query", "downstream", "--block", "LoadData", "--json"]
        from_script = run_ok(capsys, *argv, MSTMIP)
        from_model = run_ok(capsys, *argv, str(model_file))
        assert from_script == from_model
        assert json.loads(from_script) == [
            "standardize_nee.QualityControl.FilterOutliers",
            "standardize_nee.QualityControl.GapFill",
            "standardize_nee.Standardize",
        ]

    def test_model_then_model_roundtrip_stable(self, tmp_path, capsys):
        first = run_ok(capsys, "model", PALEO)
        again = run_ok(capsys, "model", PALEO)
        assert first == again
        payload = json.loads(first)
        assert payload["root"]["name"] == "paleo_recon"

    def test_multi_file_ingest(self, tmp_path, capsys):
        (tmp_path / "a.py").write_text(
            "# @begin Load @in x @out mid\nmid = load(x)\n# @end Load\n"
        )
        (tmp_path / "b.py").write_text(
            "# @begin Save @in mid\nsave(mid)\n# @end Save\n"
        )
        out = run_ok(
            capsys, "model", str(tmp_path / "a.py"), str(tmp_path / "b.py")
        )
        payload = json.loads(out)
        assert payload["source_files"] == [
            str(tmp_path / "a.py"),
            str(tmp_path / "b.py"),
        ]
        assert payload["root"]["name"] == "a"
        assert [c["name"] for c in payload["root"]["children"]] == [
            "Load",
            "Save",
        ]

    def test_block_stack_may_not_span_files(self, tmp_path, capsys):
        (tmp_path / "a.py").write_text("# @begin W @in x\nuse(x)\n")
        (tmp_path / "b.py").write_text("# @end W\n")
        code, err = run_err(
            capsys, "model", str(tmp_path / "a.py"), str(tmp_path / "b.py")
        )
        assert code == 2
        assert "a.py" in err

    def test_unclosed_block_names_the_file(self, tmp_path, capsys):
        bad = tmp_path / "broken.py"
        bad.write_text("# @begin W @in x\n")
        code, err = run_err(capsys, "model", str(bad))
        assert code == 2
        assert "broken.py" in err
        assert "W" in err


class TestQueryOutput:
    def test_blocks_lines_include_descriptions(self, capsys):
        out = run_ok(capsys, "query", "blocks", AFFY)
        lines = out.splitlines()
        assert lines[0].startswith("affy_analysis.Normalize")
        assert all(not l.startswith("affy_analysis:") for l in lines)

    def test_blocks_json(self, capsys):
        payload = json.loads(run_ok(capsys, "query", "blocks", AFFY, "--json"))
        assert {"qualified_name", "description"} == set(payload[0])

    def test_nested_and_containers(self, capsys):
        out = run_ok(capsys, "query", "nested", MSTMIP, "--block", "QualityControl")
        assert out.splitlines() == [
            "standardize_nee.QualityControl.FilterOutliers",
            "standardize_nee.QualityControl.GapFill",
        ]
        out = run_ok(capsys, "query", "containers", MSTMIP, "--block", "GapFill")
        assert out.splitlines() == [
            "standardize_nee.QualityControl",
            "standardize_nee",
        ]

    def test_affected_and_upstream(self, capsys):
        out = run_ok(
            capsys, "query", "affected-by", MSTMIP, "--name", "scale_factor"
        )
        assert out.splitlines() == ["standardize_nee.Standardize"]
        out = run_ok(
            capsys, "query", "upstream-inputs", MSTMIP, "--name", "NEE_std"
        )
        assert out.splitlines() == ["NEE_data", "scale_factor"]

    def test_derivation_text_and_json(self, capsys):
        out = run_ok(capsys, "query", "derivation", MSTMIP, "--name", "NEE_std")
        assert out.splitlines() == [
            "1. standardize_nee.LoadData (NEE_data) -> nee_monthly",
            "2. standardize_nee.QualityControl.FilterOutliers (nee_monthly)"
            " -> nee_kept",
            "3. standardize_nee.QualityControl.GapFill (nee_kept)"
            " -> nee_clean",
            "4. standardize_nee.Standardize (nee_clean, scale_factor)"
            " -> NEE_std",
        ]
        payload = json.loads(
            run_ok(capsys, "query", "derivation", MSTMIP, "--name", "NEE_std", "--json")
        )
        assert payload["target"] == "NEE_std"
        assert [s["block"] for s in payload["steps"]] == [
            "standardize_nee.LoadData",
            "standardize_nee.QualityControl.FilterOutliers",
            "standardize_nee.QualityControl.GapFill",
            "standardize_nee.Standardize",
        ]

    def test_sources_text(self, capsys):
        out = run_ok(capsys, "query", "sources", MSTMIP, "--block", "Standardize")
        assert out.splitlines() == [
            "nee_clean: produced-by standardize_nee.QualityControl.GapFill",
            "scale_factor: script-input",
        ]

    def test_lineage_both_directions(self, capsys):
        out = run_ok(
            capsys,
            "query", "lineage", MSTMIP,
            "--name", "NEE_std",
            "--manifest", MANIFEST,
        )
        assert out.splitlines() == [
            "runs/2010-06/nee_monthly_biome_bgc.mat (via NEE_data, data)",
            "runs/2010-06/nee_monthly_clm4.mat (via NEE_data, data)",
            "runs/2010-06/scale_factor.txt (via scale_factor, parameter)",
        ]
        payload = json.loads(
            run_ok(
                capsys,
                "query", "lineage", MSTMIP,
                "--name", "NEE_data",
                "--direction", "downstream",
                "--manifest", MANIFEST,
                "--json",
            )
        )
        assert payload == [
            {
                "file": "runs/2010-06/NEE_std.nc",
                "port": "NEE_std",
                "role": "data",
            }
        ]

    def test_unknown_block_is_input_problem(self, capsys):
        code, err = run_err(capsys, "query", "nested", AFFY, "--block", "Missing")
        assert code == 2
        assert "Missing" in err

    def test_function_query_reported_unsupported(self, capsys):
        code, err = run_err(capsys, "query", "invoking-blocks", AFFY)
        assert code == 2
        assert "unsupported: requires function annotations" in err


class TestGraphCommand:
    def test_writes_to_file_not_stdout(self, tmp_path, capsys):
        target = tmp_path / "wf.dot"
        out = run_ok(capsys, "graph", PALEO, "-o", str(target))
        assert out == ""
        text = target.read_text()
        assert text.startswith("digraph ")
        assert text.rstrip().endswith("}")

    def test_deterministic_bytes(self, capsys):
        first = run_ok(capsys, "graph", MSTMIP, "--view", "combined", "--nested")
        second = run_ok(capsys, "graph", MSTMIP, "--view", "combined", "--nested")
        assert first == second

    def test_focus_and_nested_flags(self, capsys):
        out = run_ok(
            capsys,
            "graph", MSTMIP,
            "--nested",
            "--focus", "standardize_nee.QualityControl",
        )
        assert "FilterOutliers" in out
        assert "subgraph" not in out  # focus workflow has no sub-workflows

    def test_bad_focus(self, capsys):
        code, err = run_err(capsys, "graph", MSTMIP, "--focus", "Elsewhere")
        assert code == 2

    def test_rankdir_flag(self, capsys):
        out = run_ok(capsys, "graph", AFFY, "--rankdir", "TB")
        assert 'rankdir="TB"' in out

    def test_style_override_from_environment(self, tmp_path, capsys, monkeypatch):
        style = tmp_path / "house.style"
        style.write_text("# site conventions\nshape.program = component\n")
        monkeypatch.setenv("YWX_STYLE", str(style))
        out = run_ok(capsys, "graph", AFFY)
        assert "component" in out
        monkeypatch.delenv("YWX_STYLE")
        assert "component" not in run_ok(capsys, "graph", AFFY)

    def test_broken_style_file(self, tmp_path, capsys, monkeypatch):
        style = tmp_path / "house.style"
        style.write_text("shape.program component\n")
        monkeypatch.setenv("YWX_STYLE", str(style))
        code, err = run_err(capsys, "graph", AFFY)
        assert code == 2
        assert "key=value" in err


class TestDuplicateQualifiedNames:
    """A model file in which two blocks share a qualified name is rejected."""

    @pytest.fixture(scope="class")
    def dotted_model(self, tmp_path_factory):
        where = tmp_path_factory.mktemp("dotted")
        script = where / "w.py"
        script.write_text(
            "# @begin W @in x @out y\n"
            "# @begin A @in x @out m\n"
            "# @begin B @in x @out m\n"
            "m = b(x)\n"
            "# @end B\n"
            "# @end A\n"
            "# @begin C @in m @out y\n"
            "y = c(m)\n"
            "# @end C\n"
            "# @end W\n"
        )
        proc = run_child("model", str(script))
        assert proc.returncode == 0, proc.stderr
        # Renaming C to A.B makes it collide with A's child B as W.A.B.
        text = proc.stdout.replace('"W.C"', '"W.A.B"').replace('"name": "C"', '"name": "A.B"')
        model = where / "model.json"
        model.write_text(text)
        return str(model)

    @pytest.mark.parametrize(
        "argv",
        [
            ["graph", "{model}", "--nested"],
            ["graph", "{model}", "--view", "data", "--nested"],
            ["query", "blocks", "{model}"],
            ["query", "derivation", "{model}", "--name", "y"],
        ],
    )
    def test_rejected_without_traceback(self, dotted_model, argv):
        proc = run_child(*(a.format(model=dotted_model) for a in argv))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("ywx: error:")
        assert "'W.A.B'" in proc.stderr


class TestImplicitRootName:
    """A dotted-name clash is named under the root the model would get:
    the first input's stem, even when that input holds no annotations."""

    @pytest.fixture
    def scripts(self, tmp_path):
        a = tmp_path / "a.py"
        a.write_text("x = 1\n")
        b = tmp_path / "b.py"
        b.write_text(
            "# @begin A\n"
            "# @begin B\n"
            "# @end B\n"
            "# @end A\n"
            "# @begin A.B\n"
            "# @end A.B\n"
        )
        return str(a), str(b)

    def test_validate_names_the_models_root(self, capsys, scripts):
        code = run(["validate", *scripts])
        out = capsys.readouterr().out
        assert code == 1
        [clash] = [line for line in out.splitlines() if " YW007 " in line]
        assert "'a.A.B'" in clash

    def test_model_names_the_same_root(self, capsys, scripts):
        code, err = run_err(capsys, "model", *scripts)
        assert code == 2
        assert "'a.A.B'" in err

    def test_check_structure_matches_the_build(self, scripts):
        stream = [
            ann
            for path in scripts
            for ann in parse_annotations(
                extract_comments(Path(path).read_text(), detect_language(path), path)
            )
        ]
        problems, _, _ = _bracket(list(map(_FIELDS, stream)), "a")
        [diagnostic] = map(_diagnostic, problems)
        with pytest.raises(DuplicateBlockName) as raised:
            build_blocks(stream, root_name="a")
        assert diagnostic.message == raised.value.message
        assert "'a.A.B'" in diagnostic.message


class TestValidateCommand:
    def test_line_format(self, capsys):
        path = str(FIXTURES / "defects" / "d11_multiple_writers.py")
        run(["validate", path])
        out = capsys.readouterr().out
        line = out.splitlines()[0]
        assert line.startswith(f"{path}:5: error YW030 ")

    def test_json_output(self, capsys):
        path = str(FIXTURES / "defects" / "d12_dangling_out.m")
        code = run(["validate", path, "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload[0]["code"] == "YW031"
        assert payload[0]["severity"] == "warning"

    def test_clean_output_is_empty(self, capsys):
        out = run_ok(capsys, "validate", PALEO)
        assert out == ""

    def test_multiple_files_at_once(self, capsys):
        path = str(FIXTURES / "defects" / "d01_end_without_begin.py")
        code = run(["validate", AFFY, path])
        out = capsys.readouterr().out
        assert code == 1
        assert "YW001" in out


# -- the command line contract, one row per check ------------------------------
#
# Each row: a command, the input it reads (``{}``), and either a second input it
# prints the same bytes for or the lines it prints. Every command exits 0.
# A script and its model file draw and answer alike, muted parameters included;
# a CRLF copy reads as the script; a lone carriage return starts no line.

_QUERIES = {
    "blocks": "blocks {}",
    "derivation": "derivation {} --name NEE_std",
    "sources": "sources {} --block Standardize",
    "lineage-up": "lineage {} --manifest {manifest} --name NEE_std",
    "upstream-inputs": "upstream-inputs {} --name NEE_std",
    "affected-by": "affected-by {} --name NEE_data",
    "deriving-blocks": "deriving-blocks {} --name NEE_std",
    "lineage-down": "lineage {} --direction downstream --manifest {manifest} --name NEE_data",
}
CONTRACT = {
    "model-file-data-nested": ("graph {} --view data --nested", "affy_model", "affy"),
    "model-file-combined-nested-muted": (
        "graph {} --view combined --nested --de-emphasize-params", "affy_model", "affy"
    ),
    "model-file-process-muted": (
        "graph {} --view process --de-emphasize-params", "affy_model", "affy"
    ),
    **{
        f"model-file-{key}{form}": (f"query {query}{option}", "mstmip_model", "mstmip")
        for key, query in _QUERIES.items()
        for form, option in (("", ""), ("-json", " --json"))
    },
    "crlf-graph": ("graph {}", "crlf", "mstmip"),
    "crlf-blocks": ("query blocks {}", "crlf", "mstmip"),
    "lone-cr-yw010": (
        "validate {}",
        "cr",
        ["{}:5: warning YW010 port name 'a' does not appear in the code of block 'W.P'"],
    ),
}


@pytest.fixture(scope="module")
def contract_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("contract")
    files = {"affy": AFFY, "mstmip": MSTMIP, "cr": tmp / "cr.py", "crlf": tmp / "crlf.m"}
    for name in ("affy", "mstmip"):
        files[f"{name}_model"] = tmp / f"{name}.json"
        assert run(["model", files[name], "-o", str(files[f"{name}_model"])]) == 0
    files["crlf"].write_bytes(Path(MSTMIP).read_bytes().replace(b"\n", b"\r\n"))
    files["cr"].write_bytes(
        b"# @begin W @in a @out b\ny = 0\rz = 1\nx = a\n# @begin P\n# @in a\n"
        b"# @out b\nb = g()\n# @end P\n# @end W\n"
    )
    return files


@pytest.mark.parametrize("command, given, expected", CONTRACT.values(), ids=CONTRACT)
def test_contract(contract_files, capsys, command, given, expected):
    def output(name):
        path = contract_files[name]
        return run_ok(capsys, *(arg.format(path, manifest=MANIFEST) for arg in command.split()))

    out = output(given)
    assert out
    if isinstance(expected, list):
        assert out.splitlines() == [line.format(contract_files[given]) for line in expected]
    else:
        assert out == output(expected)


class TestInstalledEntryPoint:
    def test_help_via_subprocess(self):
        proc = run_child("--help")
        assert proc.returncode == 0
        assert "extract" in proc.stdout
        assert "validate" in proc.stdout


# -- plain calls and one parser per command ------------------------------------
#
# ``run`` reads a plain call with no parser, builds only the named command's
# parser for most other calls, and falls back to the full tree,
# ``_build_parser()``, for anything else; every way it must behave as the
# full tree alone does.

def full_tree_run(argv):
    """``run`` as it was with the full tree: parse, then run the command."""
    try:
        args = cli._build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code
    return cli._COMMANDS[args.command][0](args)


USAGE_CASES = [
    [],
    ["-h"],
    ["--help"],
    ["bogus"],
    ["extr", "{F}"],
    *([name, "-h"] for name in ("extract", "model", "graph", "query", "validate")),
    ["extract"],
    ["extract", "{F}", "{G}"],
    ["query", "blocks"],
    ["query", "nope", "{F}"],
    ["query", "blocks", "{F}", "--direction", "x"],
    ["graph", "{F}", "--view", "nope"],
    ["validate", "{F}", "--js"],
    ["graph", "{F}", "--nest"],
    ["graph", "{F}", "--rankdir=TB"],
    ["--rankdir=TB", "graph", "{F}"],
    ["extract", "{F}", "-lpython"],
    ["-lpython", "extract", "{F}"],
    ["extract", "--", "{F}"],
    ["--", "extract", "{F}"],
    ["query", "blocks", "{F}", "--json", "--", "extra"],
    ["extract", "{F}", "-o", "{tmp}/a.json", "-o", "{tmp}/b.json"],
]


class TestUsageText:
    @pytest.mark.parametrize(
        "argv", USAGE_CASES, ids=[" ".join(argv) or "no-args" for argv in USAGE_CASES]
    )
    def test_run_matches_the_full_tree(self, tmp_path, capsys, argv):
        argv = [a.format(F=AFFY, G=PALEO, tmp=tmp_path) for a in argv]
        seen = []
        for runner in (run, full_tree_run):
            code = runner(list(argv))
            seen.append((code, *capsys.readouterr()))
        assert seen[0] == seen[1]


LONG_OPTIONS = [
    "--help", "--language", "--output", "--view", "--rankdir", "--focus", "--nested",
    "--de-emphasize-params", "--block", "--name", "--manifest", "--direction", "--json",
]
VALUES = ["F", "data", "TB", "python", "downstream"]
# Standalone values: every choice of --view, --rankdir and --direction, two
# inputs, and words argparse reads in its own ways.
WORDS = [
    "process", "data", "combined", "LR", "TB", "upstream", "downstream",
    "F", "G", "-", "", "-1", "a=b",
]
TOKENS = sorted(
    {*cli._COMMANDS, *cli.QUERY_NAMES, *WORDS, "--", "-h", "-l", "-o", "-lpython", "-oF"}
    | {option[:end] for option in LONG_OPTIONS for end in range(3, len(option) + 1)}
    | {f"{option}={value}" for option in LONG_OPTIONS for value in VALUES}
)


def parse_outcome(parse, argv):
    """What parsing ``argv`` gives: a Namespace or an exit, with the text printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(argv)
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


COMMON_FLAGS = ["-l", "--language", "-o", "--output"]
FLAGS_OF = {
    "extract": COMMON_FLAGS,
    "model": COMMON_FLAGS,
    "graph": [
        *COMMON_FLAGS, "--view", "--rankdir", "--focus", "--nested", "--de-emphasize-params",
    ],
    "query": [*COMMON_FLAGS, "--block", "--name", "--manifest", "--direction", "--json"],
    "validate": [*COMMON_FLAGS, "--json"],
}
SWITCHES = {"--nested", "--de-emphasize-params", "--json"}


def near_plain(head):
    """``head``, its inputs, then the command's own flags spelled out in full:
    a switch alone, any other flag with a word after it (a value, a bad
    choice, or a word argparse would not take as a value)."""
    option = st.sampled_from(FLAGS_OF[head[0]]).flatmap(
        lambda flag: st.just((flag,))
        if flag in SWITCHES
        else st.tuples(
            st.just(flag),
            st.sampled_from([*WORDS, *VALUES, "-l", "--json", "--view=data", "-h"]),
        )
    )
    return st.builds(
        lambda inputs, options: [*head, *inputs, *(w for o in options for w in o)],
        st.lists(st.sampled_from(["F", "G"]), min_size=1, max_size=2),
        st.lists(option, max_size=3),
    )


plain_strategy = st.one_of(
    st.sampled_from(sorted(set(cli._COMMANDS) - {"query"})).map(lambda n: [n]),
    st.sampled_from(cli.QUERY_NAMES).map(lambda sub: ["query", sub]),
).flatmap(near_plain)

argv_strategy = st.one_of(
    st.lists(st.sampled_from(TOKENS), max_size=6),
    st.builds(
        lambda name, rest: [name, *rest],
        st.sampled_from(sorted(cli._COMMANDS)),
        st.lists(st.sampled_from(TOKENS), max_size=6),
    ),
    plain_strategy,
)


@settings(max_examples=400, deadline=None)
@given(argv=argv_strategy)
def test_parse_matches_the_full_tree(argv):
    expected = parse_outcome(lambda a: cli._build_parser().parse_args(a), list(argv))
    assert parse_outcome(cli._parse, list(argv)) == expected


@pytest.mark.parametrize(
    "argv",
    [["extract", AFFY], ["model", AFFY], ["graph", AFFY], ["query", "blocks", AFFY],
     ["validate", AFFY]],
    ids=lambda argv: argv[0],
)
def test_empty_output_path_is_input_error(capsys, argv):
    code = run([*argv, "-o", ""])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("ywx: error: ")
