"""Block-tree building, channel inference, and the model interchange format."""

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import (
    SELF_FEEDING_SRC,
    annotations_from_source,
    channels_as_dict,
    model_from_source,
    model_payload,
    oracle_channels,
    random_tree,
    script_from_tree,
    stdlib_json,
)
from ywx.annotations import parse_annotations
from ywx.cli import run
from ywx.comments import detect_language, extract_comments
from ywx.errors import (
    AmbiguousWriter,
    DuplicateBlockName,
    DuplicatePort,
    MalformedModel,
    MismatchedEndName,
    NoBlocks,
    PortOutsideBlock,
    UnbalancedEnd,
    UnclosedBlock,
    YwxError,
)
from ywx.model import (
    Block,
    Channel,
    Direction,
    Endpoint,
    ModelIndex,
    Port,
    Role,
    WorkflowModel,
    build_blocks,
    build_model,
    infer_channels,
    iter_blocks,
    parse_model,
    sanitize_name,
    serialize_model,
)


class TestTreeBuilding:
    def test_single_top_level_block_with_children_is_root(self):
        model = model_from_source(
            """\
            # @begin flow @in x @out y
            # @begin Step @in x @out y
            y = f(x)
            # @end Step
            # @end flow
            """
        )
        root = model.root
        assert root.name == "flow"
        assert root.qualified_name == "flow"
        assert [c.qualified_name for c in root.children] == ["flow.Step"]
        assert root.span == (1, 5)
        assert root.children[0].span == (2, 4)

    def test_multiple_top_level_blocks_get_implicit_root(self):
        model = model_from_source(
            """\
            # @begin First @in x @out mid
            # @end First
            # @begin Second @in mid @out y
            # @end Second
            """,
            file="my-script.py",
        )
        root = model.root
        assert root.name == "my_script"
        assert root.ports == ()
        assert [c.name for c in root.children] == ["First", "Second"]
        assert root.span[0] == 0
        assert root.span[1] > root.children[-1].span[1]

    def test_single_childless_block_is_wrapped(self):
        model = model_from_source("# @begin Only\n# @end Only\n", file="run.py")
        assert model.root.name == "run"
        assert [c.name for c in model.root.children] == ["Only"]

    def test_port_order_and_roles(self):
        model = model_from_source(
            """\
            # @begin W @in a @param k @out b
            # @begin P
            # @in a
            # @param k
            # @out b
            work(a, k, b)
            # @end P
            # @end W
            """
        )
        inner = model.root.children[0]
        assert [(p.name, p.direction, p.role) for p in inner.ports] == [
            ("a", Direction.IN, Role.DATA),
            ("k", Direction.IN, Role.PARAMETER),
            ("b", Direction.OUT, Role.DATA),
        ]

    def test_descriptions_attach(self):
        model = model_from_source(
            """\
            # @begin W the whole analysis @in x input grid @out y
            # @begin P @in x @out y
            y = f(x)
            # @end P
            # @end W
            """
        )
        assert model.root.description == "the whole analysis"
        assert model.root.ports[0].description == "input grid"
        assert model.root.ports[1].description is None

    def test_end_without_name_closes_innermost(self):
        model = model_from_source(
            """\
            # @begin W @in x @out y
            # @begin P @in x @out y
            # @end
            # @end
            """
        )
        assert [b.qualified_name for b in iter_blocks(model.root)] == ["W", "W.P"]

    def test_same_name_allowed_in_different_scopes(self):
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
        names = [b.qualified_name for b in iter_blocks(model.root)]
        assert "W.A.Fit" in names and "W.B.Fit" in names

    def test_build_leaves_no_cyclic_garbage(self):
        import gc

        anns = annotations_from_source(
            "# @begin W @in x @out y\n"
            "# @begin A @in x @out m\n# @end A\n"
            "# @begin B @in m @out y\n# @end B\n"
            "# @end W\n"
        )
        gc.collect()
        gc.disable()
        try:
            build_blocks(anns)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_ambiguous_build_leaves_no_cyclic_garbage(self):
        import gc

        # W.C's 'e' is ambiguous too, and its scope is closed before W's.
        anns = annotations_from_source(
            "# @begin W @in x @out y\n"
            "# @begin A @in x @out d\n# @end A\n"
            "# @begin B @in x @out d\n# @end B\n"
            "# @begin C @in d @out y\n"
            "# @begin C1 @in d @out e\n# @end C1\n"
            "# @begin C2 @in d @out e\n# @end C2\n"
            "# @begin C3 @in e @out y\n# @end C3\n"
            "# @end C\n"
            "# @end W\n"
        )
        gc.collect()
        gc.disable()
        try:
            try:
                build_model(anns)
            except AmbiguousWriter:
                pass
            else:
                raise AssertionError("the build should fail")
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestStructureErrors:
    def check(self, source, error, file="s.py"):
        with pytest.raises(error):
            model_from_source(source, file=file)

    def test_unbalanced_end(self):
        self.check("# @end Ghost\n", UnbalancedEnd)

    def test_unclosed_block(self):
        self.check("# @begin W @in x\n", UnclosedBlock)

    def test_unclosed_reports_innermost(self):
        with pytest.raises(UnclosedBlock) as err:
            model_from_source(
                "# @begin W\n# @begin Inner\n", file="s.py"
            )
        assert "Inner" in err.value.message
        assert err.value.line == 2

    def test_mismatched_end_name(self):
        self.check(
            "# @begin W\n# @begin P\n# @end W\n# @end W\n", MismatchedEndName
        )

    def test_port_outside_block(self):
        self.check("# @in stray\n# @begin W\n# @end W\n", PortOutsideBlock)

    def test_duplicate_port(self):
        self.check("# @begin W @in a @in a\n# @end W\n", DuplicatePort)

    def test_param_conflicts_with_in(self):
        self.check("# @begin W @in a @param a\n# @end W\n", DuplicatePort)

    @staticmethod
    def many_ports_source(count, repeat=None):
        lines = ["# @begin W", "# @begin P"]
        lines += [f"# @in d{i}" for i in range(count)]
        if repeat is not None:
            lines.append(f"# @out d{repeat}")
            lines.append(f"# @in d{repeat}")
        lines += ["# @end P", "# @end W"]
        return "\n".join(lines) + "\n"

    def test_five_thousand_ports_build(self):
        model = model_from_source(self.many_ports_source(5000))
        assert len(model.root.children[0].ports) == 5000

    def test_duplicate_after_five_thousand_ports_is_at_its_line(self):
        with pytest.raises(DuplicatePort) as err:
            model_from_source(self.many_ports_source(5000, repeat=4321), file="s.py")
        # Two begins, 5,000 ins and the @out come before the repeated @in.
        assert (err.value.file, err.value.line) == ("s.py", 5004)
        assert "'d4321'" in err.value.message

    def test_in_and_out_may_share_a_name(self):
        model = model_from_source(
            """\
            # @begin W @out state
            # @begin Advance @in state @out state
            state = step(state)
            # @end Advance
            # @end W
            """
        )
        assert len(model.root.children[0].ports) == 2

    def test_duplicate_sibling_name(self):
        self.check(
            "# @begin W\n# @begin P\n# @end P\n# @begin P\n# @end P\n# @end W\n",
            DuplicateBlockName,
        )

    def test_no_blocks(self):
        self.check("x = 1\n", NoBlocks)
        self.check("# @in floating\n", PortOutsideBlock)

    def test_block_may_not_span_files(self):
        anns = annotations_from_source("# @begin W @in x\n", file="a.py")
        anns += annotations_from_source("# @end W\n", file="b.py")
        with pytest.raises(UnclosedBlock) as err:
            build_blocks(anns)
        assert (err.value.file, err.value.line) == ("a.py", 1)

    def test_ensure_balanced(self):
        anns = annotations_from_source("# @begin W\n# @end W\n")
        build_blocks(anns)
        with pytest.raises(UnclosedBlock):
            build_blocks(annotations_from_source("# @begin W\n"))
        with pytest.raises(UnbalancedEnd):
            build_blocks(annotations_from_source("# @end W\n"))


class TestChannels:
    def test_linear_chain(self):
        model = model_from_source(
            """\
            # @begin W @in raw @out final
            # @begin A @in raw @out mid
            mid = a(raw)
            # @end A
            # @begin B @in mid @out final
            final = b(mid)
            # @end B
            # @end W
            """
        )
        got = channels_as_dict(model)
        assert got == {
            ("W", "raw"): (("W", "in"), (("W.A", "in"),), "data"),
            ("W", "mid"): (("W.A", "out"), (("W.B", "in"),), "data"),
            ("W", "final"): (("W.B", "out"), (("W", "out"),), "data"),
        }

    def test_fan_out_sink_order(self):
        model = model_from_source(
            """\
            # @begin W @in x @out p @out q
            # @begin Zeta @in x @out p
            # @end Zeta
            # @begin Alpha @in x @out q
            # @end Alpha
            # @end W
            """
        )
        ch = {c.data: c for c in model.channels}["x"]
        assert [s.block for s in ch.sinks] == ["W.Alpha", "W.Zeta"]

    def test_parameter_role_propagates(self):
        model = model_from_source(
            """\
            # @begin W @in x @param cutoff @out y
            # @begin P @in x @param cutoff @out y
            # @end P
            # @end W
            """
        )
        roles = {c.data: c.role for c in model.channels}
        assert roles["cutoff"] is Role.PARAMETER
        assert roles["x"] is Role.DATA

    def test_param_on_either_endpoint_wins(self):
        model = model_from_source(
            """\
            # @begin W @in x @out y
            # @begin A @in x @out knob
            # @end A
            # @begin B @param knob @out y
            # @end B
            # @end W
            """
        )
        roles = {c.data: c.role for c in model.channels}
        assert roles["knob"] is Role.PARAMETER

    def test_workflow_pass_through(self):
        model = model_from_source(
            """\
            # @begin W @in x @out x
            # @begin P @in x @out other
            # @end P
            # @end W
            """
        )
        got = channels_as_dict(model)
        assert got[("W", "x")] == (
            ("W", "in"),
            (("W", "out"), ("W.P", "in")),
            "data",
        )

    def test_self_loop(self):
        model = model_from_source(
            """\
            # @begin W @out log
            # @begin Update @in log @out log
            # @end Update
            # @end W
            """
        )
        got = channels_as_dict(model)
        assert got[("W", "log")] == (
            ("W.Update", "out"),
            (("W", "out"), ("W.Update", "in")),
            "data",
        )

    def test_unbound_names_make_no_channel(self):
        model = model_from_source(
            """\
            # @begin W @in unused @out y
            # @begin P @in missing @out y
            # @end P
            # @end W
            """
        )
        assert {c.data for c in model.channels} == {"y"}

    def test_two_writers_with_reader_rejected(self):
        with pytest.raises(AmbiguousWriter) as err:
            model_from_source(
                """\
                # @begin W @out result
                # @begin A @out result
                # @end A
                # @begin B @out result
                # @end B
                # @end W
                """
            )
        assert "result" in err.value.message
        assert "W.A" in err.value.message and "W.B" in err.value.message

    def test_two_writers_without_reader_allowed(self):
        model = model_from_source(
            """\
            # @begin W @in x @out y
            # @begin A @in x @out scratch
            # @end A
            # @begin B @in x @out scratch @out y
            # @end B
            # @end W
            """
        )
        assert {c.data for c in model.channels} == {"x", "y"}

    def test_channels_scoped_per_workflow(self):
        model = model_from_source(
            """\
            # @begin W @in x @out z
            # @begin Sub @in x @out mid
            # @begin Inner @in x @out mid
            # @end Inner
            # @end Sub
            # @begin Tail @in mid @out z
            # @end Tail
            # @end W
            """
        )
        got = channels_as_dict(model)
        assert got[("W.Sub", "x")] == (("W.Sub", "in"), (("W.Sub.Inner", "in"),), "data")
        assert got[("W.Sub", "mid")] == (
            ("W.Sub.Inner", "out"),
            (("W.Sub", "out"),),
            "data",
        )
        assert got[("W", "mid")] == (("W.Sub", "out"), (("W.Tail", "in"),), "data")

    def test_oracle_agreement_spot_check(self):
        rng = random.Random(7)
        checked = 0
        while checked < 40:
            tree = random_tree(rng, max_blocks=25)
            script = script_from_tree(tree, rng)
            expected, ambiguous = oracle_channels(tree)
            if ambiguous:
                with pytest.raises(AmbiguousWriter):
                    model_from_source(script)
            else:
                assert channels_as_dict(model_from_source(script)) == expected
            checked += 1


class TestHelpers:
    def model(self):
        return model_from_source(
            """\
            # @begin W @in x @out y
            # @begin A @in x @out mid
            # @begin Inner @in x @out mid
            # @end Inner
            # @end A
            # @begin B @in mid @out y
            # @end B
            # @end W
            """
        )

    def test_iter_blocks_preorder(self):
        names = [b.qualified_name for b in iter_blocks(self.model().root)]
        assert names == ["W", "W.A", "W.A.Inner", "W.B"]

    def test_find_block(self):
        blocks = ModelIndex(self.model()).blocks
        assert blocks["W.A.Inner"].name == "Inner"
        assert "nope" not in blocks

    def test_parent_map(self):
        parents = ModelIndex(self.model()).parents
        assert parents == {
            "W": None,
            "W.A": "W",
            "W.A.Inner": "W.A",
            "W.B": "W",
        }

    def test_is_workflow(self):
        blocks = ModelIndex(self.model()).blocks
        assert blocks["W"].is_workflow
        assert blocks["W.A"].is_workflow
        assert not blocks["W.B"].is_workflow

    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("plain", "plain"),
            ("my-script", "my_script"),
            ("2fast", "_2fast"),
            ("a b.c", "a_b_c"),
            ("", "script"),
        ],
    )
    def test_sanitize_name(self, raw, expected):
        assert sanitize_name(raw) == expected


# Channel x has two sinks, W.P and W.Q.
MALFORMED_SRC = (
    "# @begin W @in x @out y\n# @begin P @in x @out y\n# @end P\n"
    "# @begin Q @in x\n# @end Q\n# @end W\n"
)


def _dotted_name_collision(payload):
    """P gains a child R and its sibling Q is renamed P.R: both are W.P.R."""
    p, q = payload["root"]["children"]
    p["children"].append(
        {**q, "name": "R", "qualified_name": "W.P.R", "ports": [], "children": []}
    )
    q.update(name="P.R", qualified_name="W.P.R")
    sinks = payload["channels"][0]["sinks"]
    assert sinks[1]["block"] == "W.Q"
    sinks[1]["block"] = "W.P.R"


def _duplicate_port(payload):
    """P declares its in port x twice."""
    ports = payload["root"]["children"][0]["ports"]
    ports.append(dict(ports[0]))


def _renamed_to_sibling(payload):
    """Q is renamed P, so W has two children W.P."""
    payload["root"]["children"][1].update(name="P", qualified_name="W.P")


def _port_in_another_file(payload):
    """P's in port x is in a file other than P's: a block spans two files."""
    payload["root"]["children"][0]["ports"][0]["file"] = "other.py"


def _child_in_another_file(payload):
    """Q is in a file other than its parent W's, so W would span two files."""
    payload["root"]["children"][1]["file"] = "other.py"


def _implicit_root_with_ports(payload):
    """W spans from line 0, so it is an implicit root, yet it has ports."""
    payload["root"]["span"][0] = 0


def _child_span_from_line_0(payload):
    """Only an implicit root's span starts at 0; any @begin line is 1 or more."""
    payload["root"]["children"][0]["span"][0] = 0


# Two top-level blocks: the implicit root "two" spans [0, 5] in two.py.
IMPLICIT_SRC = "# @begin P @in x @out y\n# @end P\n# @begin Q @in y\n# @end Q\n"


def _as_implicit(payload, **root):
    """Make ``payload`` IMPLICIT_SRC's model file, with ``root`` edited into its root."""
    payload.clear()
    payload.update(json.loads(serialize_model(model_from_source(IMPLICIT_SRC, file="two.py"))))
    assert payload["root"]["span"] == [0, 5]
    payload["root"].update(root)


def _implicit_root_with_wrong_span(payload):
    _as_implicit(payload, span=[0, 9])


def _implicit_root_in_wrong_file(payload):
    _as_implicit(payload, file="other.py")


# Each mutation that only a tree rule or the root rule rejects, and its message.
TREE_RULE_MUTATIONS = [
    (_duplicate_port, "script.py:2: block 'P' already declares in port 'x'"),
    (_renamed_to_sibling, "script.py:4: block name 'P' is declared twice in the same scope"),
    (
        _port_in_another_file,
        "port 'x' on 'W.P' is in file 'other.py', but its block is in 'script.py'",
    ),
    (
        _child_in_another_file,
        "child 'W.Q' is in file 'other.py', but its parent 'W' is in 'script.py'",
    ),
    (
        _implicit_root_with_ports,
        "root 'W' spans from line 0 but is not the implicit root its children make: "
        "'W', span [0, 6], file 'script.py', no description and no ports",
    ),
    (
        _implicit_root_with_wrong_span,
        "root 'two' spans from line 0 but is not the implicit root its children make: "
        "'two', span [0, 5], file 'two.py', no description and no ports",
    ),
    (
        _implicit_root_in_wrong_file,
        "root 'two' spans from line 0 but is not the implicit root its children make: "
        "'two', span [0, 5], file 'two.py', no description and no ports",
    ),
]


class TestInterchange:
    def test_round_trip_structural_equality(self):
        model = model_from_source(
            """\
            # @begin W top level @in x the input @param k @out y
            # @begin Sub @in x @out mid
            # @begin Inner @in x @out mid
            # @end Inner
            # @end Sub
            # @begin Tail @in mid @param k @out y
            # @end Tail
            # @end W
            """
        )
        assert parse_model(serialize_model(model)) == model

    def test_serialized_shape(self):
        import json

        model = model_from_source(
            """\
            # @begin W @in x @out y
            # @begin P @in x @out y
            # @end P
            # @end W
            """,
            file="w.py",
        )
        payload = json.loads(serialize_model(model))
        assert set(payload) == {"root", "channels", "source_files"}
        assert payload["source_files"] == ["w.py"]
        root = payload["root"]
        assert root["name"] == "W"
        assert root["qualified_name"] == "W"
        assert root["span"] == [1, 4]
        port = root["ports"][0]
        assert set(port) >= {"name", "direction", "role", "line"}
        channel = next(c for c in payload["channels"] if c["data"] == "x")
        assert channel["source"] == {"block": "W", "port_direction": "in"}
        assert channel["sinks"] == [{"block": "W.P", "port_direction": "in"}]

    def test_output_ends_with_newline_and_is_stable(self):
        model = model_from_source(
            "# @begin W @in x @out y\n# @begin P @in x @out y\n# @end P\n# @end W\n"
        )
        one = serialize_model(model)
        assert one.endswith("\n")
        assert one == serialize_model(parse_model(one))

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.pop("root"),
            lambda d: d["root"].pop("name"),
            lambda d: d["root"]["children"][0].__setitem__(
                "qualified_name", "Elsewhere.P"
            ),
            lambda d: d["root"]["ports"][0].__setitem__("direction", "sideways"),
            lambda d: d["root"]["ports"][0].__setitem__("role", "banana"),
            lambda d: d["channels"][0].__setitem__("scope", "W.P"),
            lambda d: d["channels"][0].__setitem__("sinks", []),
            lambda d: d["channels"][0]["source"].__setitem__("block", "Other"),
            lambda d: d["channels"].pop(),
            lambda d: d["channels"][0].__setitem__("role", "parameter"),
            lambda d: d["channels"][0]["sinks"].pop(),
            _dotted_name_collision,
            _child_span_from_line_0,
            *(mutate for mutate, _ in TREE_RULE_MUTATIONS),
        ],
    )
    def test_malformed_models_rejected(self, tmp_path, capsys, mutate):
        payload = json.loads(serialize_model(model_from_source(MALFORMED_SRC)))
        mutate(payload)
        text = json.dumps(payload)
        with pytest.raises(MalformedModel):
            parse_model(text)
        model_file = tmp_path / "model.json"
        model_file.write_text(text)
        assert run(["graph", str(model_file)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"ywx: error: {model_file}: ")
        assert err.count("\n") == 1  # one line, no traceback

    @pytest.mark.parametrize(
        "mutate, message", TREE_RULE_MUTATIONS, ids=[m.__name__ for m, _ in TREE_RULE_MUTATIONS]
    )
    def test_tree_rule_messages(self, mutate, message):
        # A model file breaking a tree rule fails with the first problem the
        # annotation stream it describes has, in that problem's words.
        payload = json.loads(serialize_model(model_from_source(MALFORMED_SRC)))
        mutate(payload)
        with pytest.raises(MalformedModel) as caught:
            parse_model(json.dumps(payload))
        assert str(caught.value) == message

    def test_first_error_in_depth_first_order(self):
        # File-format problems are found anywhere before any tree rule is
        # applied; tree rules then fail in the stream's document order.
        model = model_from_source(
            "# @begin W @in x @out y\n# @begin P @in x @out m\n"
            "# @begin A\n# @end A\n# @begin B\n# @end B\n# @end P\n"
            "# @begin Q @in m @out y\n# @end Q\n# @end W\n"
        )
        payload = json.loads(serialize_model(model))
        p, q = payload["root"]["children"]
        p["children"][1].update(name="A", qualified_name="W.P.A")  # a tree rule, line 5
        q["ports"][0]["direction"] = "sideways"  # a file-format problem, line 8
        with pytest.raises(MalformedModel, match="^bad port direction/role on 'W.Q'$"):
            parse_model(json.dumps(payload))
        p["children"][1]["ports"] = None
        with pytest.raises(MalformedModel, match="^block 'A' needs a port list$"):
            parse_model(json.dumps(payload))
        p["children"][1]["ports"] = []
        q["ports"][0]["direction"] = "in"
        q["ports"].append(dict(q["ports"][0]))  # a tree rule, line 8
        with pytest.raises(MalformedModel) as caught:
            parse_model(json.dumps(payload))
        assert str(caught.value) == (
            "script.py:5: block name 'A' is declared twice in the same scope"
        )
        p["ports"].append(dict(p["ports"][0]))  # a tree rule, line 2
        with pytest.raises(MalformedModel) as caught:
            parse_model(json.dumps(payload))
        assert str(caught.value) == "script.py:2: block 'P' already declares in port 'x'"

    def test_a_block_or_port_without_a_file_is_in_its_parents(self):
        model = model_from_source(MALFORMED_SRC)
        payload = json.loads(serialize_model(model))
        p = payload["root"]["children"][0]
        del p["file"], p["ports"][0]["file"]
        assert parse_model(json.dumps(payload)) == model

    def test_not_json_rejected(self):
        with pytest.raises(MalformedModel):
            parse_model("digraph {}")

    def test_out_param_rejected(self):
        import json

        model = model_from_source(
            "# @begin W @in x @out y\n# @begin P @in x @out y\n# @end P\n# @end W\n"
        )
        payload = json.loads(serialize_model(model))
        out_port = next(
            p for p in payload["root"]["ports"] if p["direction"] == "out"
        )
        out_port["role"] = "parameter"
        with pytest.raises(MalformedModel):
            parse_model(json.dumps(payload))


# Any text: non-ASCII, control characters, quotes, backslashes, U+2028.
TEXT = st.text(st.characters() | st.sampled_from('"\\\x00\x1f\x7f\u2028\u00e9\U0001F600'), max_size=8)
# A line or span end may be any int, a bool included: an annotation listing's
# "line": true loads as one.
INTS = st.integers(-(10**12), 10**12) | st.booleans()
_PORTS = st.builds(
    Port, TEXT, st.sampled_from(Direction), st.sampled_from(Role), TEXT, INTS,
    st.none() | TEXT,
)
_ENDS = st.builds(Endpoint, TEXT, st.sampled_from(Direction))
_CHANNELS = st.builds(
    Channel, TEXT, TEXT, st.sampled_from(Role), _ENDS, st.lists(_ENDS, max_size=3).map(tuple)
)


@st.composite
def _blocks(draw, depth=0):
    children = () if depth == 2 else tuple(draw(st.lists(_blocks(depth + 1), max_size=3)))
    return Block(
        draw(TEXT),
        draw(TEXT),
        draw(st.none() | TEXT),
        tuple(draw(st.lists(_PORTS, max_size=3))),
        children,
        (draw(INTS), draw(INTS)),
        draw(TEXT),
    )


_MODELS = st.builds(
    WorkflowModel,
    _blocks(),
    st.lists(_CHANNELS, max_size=4).map(tuple),
    st.lists(TEXT, max_size=3).map(tuple),
)


class TestWriter:
    """A model file holds exactly the stdlib encoder's ``indent=2`` text."""

    @settings(max_examples=100, deadline=None)
    @given(_MODELS)
    def test_generated_models(self, model):
        assert serialize_model(model) == stdlib_json(model_payload(model))

    def test_corpus_and_fixture_models(self, corpus_models, fixtures_dir):
        models = [*corpus_models, model_from_source(SELF_FEEDING_SRC)]
        for path in sorted(fixtures_dir.rglob("*.[pRm]*")):
            if path.suffix == ".json":
                continue
            syntax = detect_language(str(path), None)
            text = path.read_text(encoding="utf-8")
            try:
                anns = parse_annotations(extract_comments(text, syntax, file=str(path)))
                models.append(build_model(anns, root_name=Path(path).stem))
            except YwxError:
                continue
        assert len(models) > len(corpus_models) + 3
        for model in models:
            assert serialize_model(model) == stdlib_json(model_payload(model))


def test_infer_channels_gives_the_built_models_channels(corpus):
    """``infer_channels`` of a tree built on its own gives the channels
    ``build_model`` derives while it builds, and raises ``AmbiguousWriter``
    on a tree with two writers of one data name in a scope."""
    buildable, rejected = corpus
    for _, script, model, _, _ in buildable:
        assert infer_channels(build_blocks(annotations_from_source(script))) == model.channels
    assert rejected
    for _, script, _ in rejected:
        tree = build_blocks(annotations_from_source(script))
        with pytest.raises(AmbiguousWriter):
            infer_channels(tree)
