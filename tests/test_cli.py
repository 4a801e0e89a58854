"""Command line behaviour: exit codes, piping through intermediates, output."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ywx.cli import run

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


def run_child(*argv):
    """Run ``python -m ywx`` in a child process that imports this checkout."""
    env = dict(os.environ)
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

    def test_missing_block_flag(self, capsys):
        code, err = run_err(capsys, "query", "nested", AFFY)
        assert code == 2
        assert "--block" in err

    def test_missing_name_flag(self, capsys):
        code, err = run_err(capsys, "query", "derivation", AFFY)
        assert code == 2
        assert "--name" in err

    def test_lineage_requires_manifest(self, capsys):
        code, err = run_err(
            capsys, "query", "lineage", MSTMIP, "--name", "NEE_std"
        )
        assert code == 2
        assert "--manifest" in err

    def test_unknown_language(self, capsys):
        code, err = run_err(capsys, "model", AFFY, "-l", "fortran")
        assert code == 2
        assert "fortran" in err

    def test_missing_file(self, capsys):
        code, err = run_err(capsys, "model", "no_such_script.py")
        assert code == 2
        assert err.startswith("ywx: error:")

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


class TestInstalledEntryPoint:
    def test_help_via_subprocess(self):
        proc = run_child("--help")
        if proc.returncode != 0:
            proc = subprocess.run(
                ["ywx", "--help"], capture_output=True, text=True
            )
        assert proc.returncode == 0
        assert "extract" in proc.stdout
        assert "validate" in proc.stdout
