"""Structure, provenance, derivation, and lineage queries."""

import json
import random
from pathlib import Path

import pytest

from support import (
    model_from_source,
    oracle_edges,
    oracle_upstream_inputs,
    random_tree,
    script_from_tree,
)
from ywx import queries
from ywx.comments import detect_language
from ywx.errors import (
    AmbiguousLineage,
    AmbiguousWriter,
    CyclicDerivation,
    MalformedManifest,
    UnknownName,
)
from ywx.queries import (
    LineageRecord,
    PortSource,
    RunManifest,
    build_dependency_graph,
    blocks_affected_by_input,
    chain_defects,
    containing_blocks,
    derivation,
    deriving_blocks,
    downstream_blocks,
    infer_file_lineage,
    list_blocks,
    nested_blocks,
    parse_manifest,
    step_input_sources,
    upstream_inputs,
)
from ywx.model import Direction
from ywx.validate import validate_sources

FIXTURES = Path(__file__).parent / "fixtures"

NESTED_SRC = """\
# @begin outer @in x @out z
# @begin Pre @in x @out mid
mid = pre(x)
# @end Pre
# @begin QC @in mid @out clean
# @begin Filter @in mid @out kept
kept = drop_bad(mid)
# @end Filter
# @begin Fill @in kept @out clean
clean = fill(kept)
# @end Fill
# @end QC
# @begin Post @in clean @out z
z = post(clean)
# @end Post
# @end outer
"""

DIAMOND_SRC = """\
# @begin recon @in série @out final
# @end recon
"""


def nested_model():
    return model_from_source(NESTED_SRC)


def diamond_model():
    return model_from_source(
        """\
        # @begin recon @in field @param window @out final
        # @begin Calibrate @in field @param window @out params
        # @end Calibrate
        # @begin Left @in params @out left_part
        # @end Left
        # @begin Right @in params @out right_part
        # @end Right
        # @begin Merge @in left_part @in right_part @out final
        # @end Merge
        # @end recon
        """
    )


def mstmip_model():
    return model_from_source(
        (FIXTURES / "mstmip_nee.m").read_text(),
        language="matlab",
        file="mstmip_nee.m",
    )


class TestStructureQueries:
    def test_list_blocks_excludes_root_preorder(self):
        got = list_blocks(nested_model())
        assert [q for q, _ in got] == [
            "outer.Pre",
            "outer.QC",
            "outer.QC.Filter",
            "outer.QC.Fill",
            "outer.Post",
        ]

    def test_list_blocks_carries_descriptions(self):
        model = model_from_source(
            """\
            # @begin W @in x @out y
            # @begin P first pass @in x @out y
            # @end P
            # @end W
            """
        )
        assert list_blocks(model) == [("W.P", "first pass")]

    def test_nested_blocks(self):
        model = nested_model()
        assert nested_blocks(model, "outer.QC") == [
            "outer.QC.Filter",
            "outer.QC.Fill",
        ]
        assert nested_blocks(model, "outer.Post") == []

    def test_containing_blocks(self):
        model = nested_model()
        assert containing_blocks(model, "outer.QC.Fill") == ["outer.QC", "outer"]
        assert containing_blocks(model, "outer") == []

    def test_simple_name_resolution(self):
        model = nested_model()
        assert nested_blocks(model, "QC") == nested_blocks(model, "outer.QC")

    def test_ambiguous_simple_name(self):
        model = model_from_source(
            """\
            # @begin W @in x @out y
            # @begin A @in x @out mid
            # @begin Fit @in x @out mid
            # @end Fit
            # @end A
            # @begin B @in mid @out y
            # @begin Fit @in mid @out y
            # @end Fit
            # @end B
            # @end W
            """
        )
        with pytest.raises(UnknownName) as err:
            containing_blocks(model, "Fit")
        assert "W.A.Fit" in str(err.value)

    def test_unknown_block(self):
        with pytest.raises(UnknownName):
            nested_blocks(nested_model(), "Nowhere")


class TestReachability:
    def test_downstream_crosses_boundaries(self):
        assert downstream_blocks(nested_model(), "Pre") == {
            "outer.QC.Filter",
            "outer.QC.Fill",
            "outer.Post",
        }

    def test_downstream_of_last_block_empty(self):
        assert downstream_blocks(nested_model(), "Post") == set()

    def test_downstream_diamond(self):
        assert downstream_blocks(diamond_model(), "Calibrate") == {
            "recon.Left",
            "recon.Right",
            "recon.Merge",
        }

    def test_affected_by_input(self):
        assert blocks_affected_by_input(nested_model(), "x") == {
            "outer.Pre",
            "outer.QC.Filter",
            "outer.QC.Fill",
            "outer.Post",
        }

    def test_affected_by_param(self):
        assert blocks_affected_by_input(diamond_model(), "window") == {
            "recon.Calibrate",
            "recon.Left",
            "recon.Right",
            "recon.Merge",
        }

    def test_affected_requires_root_input(self):
        with pytest.raises(UnknownName):
            blocks_affected_by_input(nested_model(), "z")

    def test_upstream_inputs(self):
        assert upstream_inputs(diamond_model(), "final") == {"field", "window"}
        assert upstream_inputs(nested_model(), "z") == {"x"}

    def test_upstream_of_intermediate_name(self):
        assert upstream_inputs(nested_model(), "mid") == {"x"}

    def test_deriving_blocks(self):
        assert deriving_blocks(nested_model(), "z") == {
            "outer.Pre",
            "outer.QC.Filter",
            "outer.QC.Fill",
            "outer.Post",
        }
        assert deriving_blocks(diamond_model(), "left_part") == {
            "recon.Calibrate",
            "recon.Left",
        }

    def test_requires_root_scope_name(self):
        with pytest.raises(UnknownName):
            deriving_blocks(nested_model(), "kept")


class TestDependencyGraph:
    @pytest.mark.parametrize("factory", [nested_model, diamond_model, mstmip_model])
    def test_edges_match_independent_search(self, factory):
        model = factory()
        graph = build_dependency_graph(model)
        built = {
            (a, b) for a, nexts in graph.forward.items() for b in nexts
        }
        assert built == oracle_edges(model)

    def test_reverse_mirrors_forward(self):
        graph = build_dependency_graph(nested_model())
        forward = {(a, b) for a, ns in graph.forward.items() for b in ns}
        reverse = {(a, b) for b, ns in graph.reverse.items() for a in ns}
        assert forward == reverse

    def test_reachable_directions(self):
        model = nested_model()
        graph = build_dependency_graph(model)
        start = {("data", "outer", "x")}
        assert ("block", "outer.Post") in graph.reachable(start, "forward")
        assert graph.reachable(start, "reverse") == start


class TestDerivation:
    def test_pipeline_order_and_consumed_names(self):
        got = derivation(nested_model(), "z")
        assert got.target == "z"
        assert [
            (s.block, s.consumed, s.produced) for s in got.steps
        ] == [
            ("outer.Pre", ("x",), "mid"),
            ("outer.QC.Filter", ("mid",), "kept"),
            ("outer.QC.Fill", ("kept",), "clean"),
            ("outer.Post", ("clean",), "z"),
        ]

    def test_diamond_partial_order(self):
        steps = derivation(diamond_model(), "final").steps
        order = [s.block for s in steps]
        assert order[0] == "recon.Calibrate"
        assert order[-1] == "recon.Merge"
        assert set(order[1:3]) == {"recon.Left", "recon.Right"}
        assert steps[-1].consumed == ("left_part", "right_part")

    def test_root_input_has_no_steps(self):
        assert derivation(nested_model(), "x").steps == ()

    def test_cycle_detected(self):
        model = model_from_source(
            """\
            # @begin W @out report
            # @begin A @in fed_back @out report
            # @end A
            # @begin B @in report @out fed_back
            # @end B
            # @end W
            """
        )
        with pytest.raises(CyclicDerivation):
            derivation(model, "report")


class TestStepSources:
    def test_classification_through_boundaries(self):
        model = mstmip_model()
        got = step_input_sources(model, "Standardize")
        assert got == [
            PortSource(
                "nee_clean",
                "produced-by",
                "standardize_nee.QualityControl.GapFill",
            ),
            PortSource("scale_factor", "script-input"),
        ]

    def test_boundary_ascent(self):
        got = step_input_sources(mstmip_model(), "FilterOutliers")
        assert got == [
            PortSource(
                "nee_monthly", "produced-by", "standardize_nee.LoadData"
            )
        ]

    def test_root_ports_are_script_inputs(self):
        got = step_input_sources(mstmip_model(), "standardize_nee")
        assert got == [
            PortSource("NEE_data", "script-input"),
            PortSource("scale_factor", "script-input"),
        ]

    def test_unbound_input(self):
        model = model_from_source(
            """\
            # @begin W @in x @out y
            # @begin P @in x @in mystery @out y
            y = f(x, mystery)
            # @end P
            # @end W
            """
        )
        assert PortSource("mystery", "unbound") in step_input_sources(model, "P")


class TestChainDefects:
    def test_clean_fixture_has_none(self):
        assert chain_defects(mstmip_model(), "NEE_std") == ()

    def test_unbound_program_port_blamed(self):
        model = model_from_source(
            """\
            # @begin W @in x @out y
            # @begin P @in x @in lost @out y
            y = f(x, lost)
            # @end P
            # @end W
            """
        )
        refs = chain_defects(model, "y")
        assert [(r.block, r.port.name) for r in refs] == [("W.P", "lost")]

    def test_subworkflow_without_inner_writer(self):
        model = model_from_source(
            """\
            # @begin W @in x @out y
            # @begin Sub @in x @out y
            # @begin Inner @in x @out other
            # @end Inner
            # @end Sub
            # @end W
            """
        )
        refs = chain_defects(model, "y")
        assert [(r.block, r.port.name, r.port.direction.value) for r in refs] == [
            ("W.Sub", "y", "out")
        ]

    def test_workflow_input_without_outer_source(self):
        model = model_from_source(
            """\
            # @begin W @in x @out y
            # @begin Sub @in q @out y
            # @begin Inner @in q @out y
            # @end Inner
            # @end Sub
            # @end W
            """
        )
        refs = chain_defects(model, "y")
        assert [(r.block, r.port.name, r.port.direction.value) for r in refs] == [
            ("W.Sub", "q", "in")
        ]

    def test_root_output_without_channel(self):
        model = model_from_source(
            """\
            # @begin W @in x @out ghost
            # @begin P @in x @out y
            # @end P
            # @end W
            """
        )
        refs = chain_defects(model, "ghost")
        assert [(r.block, r.port.name) for r in refs] == [("W", "ghost")]

    def test_root_inputs_are_legitimate_starts(self):
        model = model_from_source(
            "# @begin W @in x @out x\n# @begin P @in x @out other\n# @end P\n# @end W\n"
        )
        assert chain_defects(model, "x") == ()

    def test_unknown_output(self):
        with pytest.raises(UnknownName):
            chain_defects(nested_model(), "nothing")


class TestManifest:
    def manifest_text(self):
        return (FIXTURES / "mstmip_manifest.json").read_text()

    def test_parse(self):
        manifest = parse_manifest(self.manifest_text(), mstmip_model())
        assert manifest.run_id == "mstmip-2010-06"
        assert manifest.bindings["scale_factor"] == (
            "runs/2010-06/scale_factor.txt",
        )

    def test_run_id_optional(self):
        manifest = parse_manifest(
            '{"bindings": {"NEE_std": ["a.nc"]}}', mstmip_model()
        )
        assert manifest.run_id == ""

    @pytest.mark.parametrize(
        "text",
        [
            "oops",
            "[1, 2]",
            '{"bindings": {"not_a_port": ["x"]}}',
            '{"bindings": {"NEE_std": "not-a-list"}}',
            '{"bindings": {"NEE_std": [3]}}',
            '{"run_id": 9, "bindings": {}}',
            '{"run_id": "r"}',
        ],
    )
    def test_malformed(self, text):
        with pytest.raises(MalformedManifest):
            parse_manifest(text, mstmip_model())


class TestLineage:
    def load(self):
        model = mstmip_model()
        manifest = parse_manifest(
            (FIXTURES / "mstmip_manifest.json").read_text(), model
        )
        return model, manifest

    def test_upstream_of_output(self):
        model, manifest = self.load()
        got = infer_file_lineage(model, manifest, "upstream", "NEE_std")
        assert got == [
            LineageRecord(
                "runs/2010-06/nee_monthly_biome_bgc.mat", "NEE_data", "data"
            ),
            LineageRecord(
                "runs/2010-06/nee_monthly_clm4.mat", "NEE_data", "data"
            ),
            LineageRecord(
                "runs/2010-06/scale_factor.txt", "scale_factor", "parameter"
            ),
        ]

    def test_downstream_of_input(self):
        model, manifest = self.load()
        got = infer_file_lineage(model, manifest, "downstream", "NEE_data")
        assert got == [
            LineageRecord("runs/2010-06/NEE_std.nc", "NEE_std", "data")
        ]

    def test_file_path_resolves_to_port(self):
        model, manifest = self.load()
        by_port = infer_file_lineage(model, manifest, "upstream", "NEE_std")
        by_file = infer_file_lineage(
            model, manifest, "upstream", "runs/2010-06/NEE_std.nc"
        )
        assert by_file == by_port

    def test_unknown_name(self):
        model, manifest = self.load()
        with pytest.raises(UnknownName):
            infer_file_lineage(model, manifest, "upstream", "nothing.nc")

    def test_wrong_side_rejected(self):
        model, manifest = self.load()
        with pytest.raises(UnknownName):
            infer_file_lineage(model, manifest, "upstream", "NEE_data")
        with pytest.raises(UnknownName):
            infer_file_lineage(model, manifest, "downstream", "NEE_std")

    def test_broken_chain_is_ambiguous(self):
        text = (FIXTURES / "mstmip_nee.m").read_text()
        assert " @out nee_monthly" in text
        broken = text.replace(" @out nee_monthly", "", 1)
        model = model_from_source(broken, language="matlab", file="mstmip_nee.m")
        manifest = parse_manifest(
            (FIXTURES / "mstmip_manifest.json").read_text(), model
        )
        with pytest.raises(AmbiguousLineage):
            infer_file_lineage(model, manifest, "upstream", "NEE_std")

    def test_bad_direction(self):
        model, manifest = self.load()
        with pytest.raises(ValueError):
            infer_file_lineage(model, manifest, "sideways", "NEE_std")


def bind_every_root_port(model):
    """A manifest giving each root port its own file plus one file they share."""
    return RunManifest(
        "all-ports",
        {p.name: (f"run/{p.name}.dat", "run/shared.dat") for p in model.root.ports},
    )


class TestOnePassEquivalence:
    """Lineage and YW020 over all root outputs at once agree with the
    per-output definitions: oracle_upstream_inputs for reachability and
    chain_defects, called once per output, for completeness."""

    def cases(self, count=120, seed=4242):
        rng = random.Random(seed)
        found = []
        while len(found) < count:
            script = script_from_tree(random_tree(rng, max_blocks=30), rng)
            try:
                model = model_from_source(script)
            except AmbiguousWriter:
                continue
            found.append((script, model))
        return found

    @staticmethod
    def expected_lineage(model, manifest, direction, name):
        """Files per the per-output definitions, or the AmbiguousLineage text."""
        root_ports = {p.name: p for p in model.root.ports}
        if name in root_ports:
            names = {name}
        else:
            names = {n for n, files in manifest.bindings.items() if name in files}
        outputs = sorted(
            p.name for p in model.root.ports if p.direction is Direction.OUT
        )
        inputs = {p.name for p in model.root.ports if p.direction is Direction.IN}
        checked = sorted(names & set(outputs)) if direction == "upstream" else outputs
        for output in checked:
            if chain_defects(model, output):
                return f"dependency chain behind output {output!r} has unbound ports"
        if direction == "upstream":
            ports = set()
            for output in names & set(outputs):
                ports |= oracle_upstream_inputs(model, output)
        else:
            ports = {
                output
                for output in outputs
                if names & inputs & oracle_upstream_inputs(model, output)
            }
        return sorted(
            (path, port, root_ports[port].role.value)
            for port in ports
            for path in manifest.bindings[port]
        )

    def test_lineage_matches_per_output_definition(self):
        outcomes = {"files": 0, "ambiguous": 0}
        for _, model in self.cases():
            manifest = bind_every_root_port(model)
            for port in model.root.ports:
                direction = "upstream" if port.direction is Direction.OUT else "downstream"
                for name in (port.name, f"run/{port.name}.dat", "run/shared.dat"):
                    expected = self.expected_lineage(model, manifest, direction, name)
                    try:
                        got = infer_file_lineage(model, manifest, direction, name)
                    except AmbiguousLineage as exc:
                        assert str(exc) == expected, (name, direction)
                        outcomes["ambiguous"] += 1
                        continue
                    assert [(r.file, r.port, r.role) for r in got] == expected
                    outcomes["files"] += 1
        # The corpus must exercise both the clean path and the fallback.
        assert outcomes["files"] > 50 and outcomes["ambiguous"] > 50, outcomes

    def test_yw020_matches_per_output_definition(self):
        broken = 0
        for script, model in self.cases():
            expected = sorted(
                (
                    ref.port.line,
                    f"output {port.name!r} has no complete dependency chain: "
                    f"port {ref.port.name!r} of block {ref.block!r} is unbound",
                )
                for port in model.root.ports
                if port.direction is Direction.OUT
                for ref in chain_defects(model, port.name)
            )
            diagnostics = validate_sources(
                [("script.py", script, detect_language("script.py"))]
            )
            got = [(d.line, d.message) for d in diagnostics if d.code == "YW020"]
            assert got == expected
            broken += bool(expected)
        assert broken > 10


def fan_out_script(outputs):
    lines = ["# @begin fan @in raw"]
    lines += [f"# @out out_{i:03d}" for i in range(outputs)]
    lines += ["# @begin load @in raw @out mid", "mid = load(raw)", "# @end load"]
    for i in range(outputs):
        lines += [
            f"# @begin emit_{i:03d} @in mid @out out_{i:03d}",
            f"out_{i:03d} = emit(mid)",
            f"# @end emit_{i:03d}",
        ]
    lines.append("# @end fan")
    return "\n".join(lines) + "\n"


class TestOneGraphPerCall:
    """Work per call must not grow with root outputs times graph size."""

    OUTPUTS = 60

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"builds": 0, "walks": 0}
        build = queries.build_dependency_graph
        reachable = queries.DependencyGraph.reachable

        def counting_build(model):
            counts["builds"] += 1
            return build(model)

        def counting_reachable(graph, *args, **kwargs):
            counts["walks"] += 1
            return reachable(graph, *args, **kwargs)

        monkeypatch.setattr(queries, "build_dependency_graph", counting_build)
        monkeypatch.setattr(queries.DependencyGraph, "reachable", counting_reachable)
        return counts

    def test_lineage_upstream(self, counts):
        model = model_from_source(fan_out_script(self.OUTPUTS))
        manifest = bind_every_root_port(model)
        got = infer_file_lineage(model, manifest, "upstream", "run/shared.dat")
        assert {r.file for r in got} == {"run/raw.dat", "run/shared.dat"}
        assert counts == {"builds": 1, "walks": 2}

    def test_lineage_downstream(self, counts):
        model = model_from_source(fan_out_script(self.OUTPUTS))
        manifest = bind_every_root_port(model)
        got = infer_file_lineage(model, manifest, "downstream", "raw")
        assert len({r.port for r in got}) == self.OUTPUTS
        assert counts == {"builds": 1, "walks": 2}

    def test_validate_sources(self, counts):
        script = fan_out_script(self.OUTPUTS)
        diagnostics = validate_sources([("fan.py", script, detect_language("fan.py"))])
        assert not [d for d in diagnostics if d.code == "YW020"]
        assert counts == {"builds": 1, "walks": 1}
