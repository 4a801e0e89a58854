"""DOT rendering: the three views, nesting, styles, and determinism."""

import pytest

from support import (
    SELF_FEEDING_SRC,
    descendant_workflows,
    expected_data_nodes,
    expected_process_edges,
    model_from_source,
    oracle_edges,
    parse_dot,
)
from ywx.errors import StyleError, UnknownFocus
from ywx.model import ModelIndex
from ywx.render import (
    VIEWS,
    RenderOptions,
    load_style_file,
    render,
    render_combined_view,
    render_data_view,
    render_process_view,
)

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

PARAM_SRC = """\
# @begin W @in x @param cutoff @out y
# @begin P @in x @param cutoff @out y
y = f(x, cutoff)
# @end P
# @end W
"""


# d lives in both scopes, and no boundary port of Sub carries it.
SHADOWED_SRC = """\
# @begin W @in x @out y
# @begin Sub @in x @out z
# @begin A @in x @out d
d = a(x)
# @end A
# @begin B @in d @out z
z = b(d)
# @end B
# @end Sub
# @begin C @in z @out d
d = c(z)
# @end C
# @begin E @in d @out y
y = e(d)
# @end E
# @end W
"""


SELF_FEEDING_DOT = {
    "process": """\
digraph "W" {
  rankdir="LR"
  subgraph "cluster_W.C" {
    label="C"
    "port:in:W.C:d" [shape="circle", label="d"]
    "port:out:W.C:d" [shape="circle", label="d"]
    "W.C.X" [shape="box", label="X"]
  }
  "W.Y" [shape="box", label="Y"]
  "port:in:W.C:d" -> "W.C.X" [label="d"]
  "port:in:W.C:d" -> "W.Y" [label="d"]
  "port:in:W.C:d" -> "port:out:W.C:d" [label="d"]
  "port:out:W.C:d" -> "W.C.X" [label="d"]
  "port:out:W.C:d" -> "W.Y" [label="d"]
  "port:out:W.C:d" -> "port:in:W.C:d" [label="d"]
}
""",
    "data": """\
digraph "W" {
  rankdir="LR"
  subgraph "cluster_W.C" {
    label="C"
  }
  "data:W:d" [shape="oval", label="d"]
}
""",
    "combined": """\
digraph "W" {
  rankdir="LR"
  subgraph "cluster_W.C" {
    label="C"
    "W.C.X" [shape="box", label="X"]
  }
  "data:W:d" [shape="oval", label="d"]
  "W.Y" [shape="box", label="Y"]
  "data:W:d" -> "W.C.X"
  "data:W:d" -> "W.Y"
}
""",
}


def nested_model():
    return model_from_source(NESTED_SRC)


def render_text(model, **kwargs):
    return render(model, RenderOptions(**kwargs))


def dot(model, **kwargs):
    return parse_dot(render_text(model, **kwargs))


class TestProcessView:
    def test_chain_of_four(self):
        model = model_from_source(
            """\
            # @begin W @in a @out d
            # @begin S1 @in a @out b
            # @end S1
            # @begin S2 @in b @out c
            # @end S2
            # @begin S3 @in b @out e
            # @end S3
            # @begin S4 @in c @in e @out d
            # @end S4
            # @end W
            """
        )
        graph = dot(model, view="process")
        assert len(graph.shaped("box")) == 4
        boxes = graph.shaped("box")
        box_edges = [
            (s, d, a["label"])
            for s, d, a in graph.edges
            if s in boxes and d in boxes
        ]
        assert sorted(box_edges) == [
            ("W.S1", "W.S2", "b"),
            ("W.S1", "W.S3", "b"),
            ("W.S2", "W.S4", "c"),
            ("W.S3", "W.S4", "e"),
        ]

    def test_single_program_no_channels(self):
        model = model_from_source("# @begin Only\n# @end Only\n", file="solo.py")
        graph = dot(model, view="process")
        assert list(graph.nodes) == ["solo.Only"]
        assert graph.edges == []

    def test_terminals_for_focus_ports(self):
        graph = dot(nested_model(), view="process")
        circles = graph.shaped("circle")
        assert circles == {"port:in:outer:x", "port:out:outer:z"}
        assert graph.nodes["port:in:outer:x"]["label"] == "x"
        edge_set = {(s, d) for s, d, _ in graph.edges}
        assert ("port:in:outer:x", "outer.Pre") in edge_set
        assert ("outer.Post", "port:out:outer:z") in edge_set

    def test_subworkflow_collapses_to_box_without_nested(self):
        graph = dot(nested_model(), view="process")
        assert "outer.QC" in graph.shaped("box")
        assert "outer.QC.Filter" not in graph.nodes
        assert graph.clusters == {}

    def test_self_loop(self):
        model = model_from_source(
            """\
            # @begin W @out log
            # @begin Update @in log @out log
            log = tick(log)
            # @end Update
            # @end W
            """
        )
        graph = dot(model, view="process")
        assert ("W.Update", "W.Update", {"label": "log"}) in graph.edges

    def test_edges_sorted(self):
        graph = dot(nested_model(), view="process")
        triples = [(s, d, a.get("label", "")) for s, d, a in graph.edges]
        assert triples == sorted(triples)

    def test_nodes_in_document_order(self):
        graph = dot(nested_model(), view="process")
        blocks = [n for n in graph.node_order if not n.startswith("port:")]
        assert blocks == ["outer.Pre", "outer.QC", "outer.Post"]


class TestDataView:
    def test_one_step(self):
        model = model_from_source(
            """\
            # @begin W @in x @out y
            # @begin P @in x @out y
            y = f(x)
            # @end P
            # @end W
            """
        )
        graph = dot(model, view="data")
        assert set(graph.nodes) == {"data:W:x", "data:W:y"}
        assert graph.nodes["data:W:x"]["shape"] == "oval"
        assert graph.edges == [("data:W:x", "data:W:y", {"label": "P"})]

    def test_isolated_nodes_for_ports_without_channels(self):
        model = model_from_source(
            """\
            # @begin W @in a @out b
            # @begin P @in other @out scrap
            work(other, scrap)
            # @end P
            # @end W
            """
        )
        graph = dot(model, view="data")
        assert set(graph.nodes) == {"data:W:a", "data:W:b"}
        assert graph.edges == []

    def test_edge_labels_name_programs(self):
        graph = dot(nested_model(), view="data")
        labels = {a["label"] for _, _, a in graph.edges}
        assert labels == {"Pre", "QC", "Post"}


class TestCombinedView:
    def test_bipartite_alternation(self):
        graph = dot(nested_model(), view="combined")
        boxes = graph.shaped("box")
        ovals = graph.shaped("oval")
        assert boxes and ovals
        assert boxes | ovals == set(graph.nodes)
        for src, dst, attrs in graph.edges:
            assert (src in boxes) != (dst in boxes)
            assert "label" not in attrs

    def test_program_reads_and_writes(self):
        model = model_from_source(
            "# @begin W @in x @out y\n# @begin P @in x @out y\n# @end P\n# @end W\n"
        )
        graph = dot(model, view="combined")
        assert {(s, d) for s, d, _ in graph.edges} == {
            ("data:W:x", "W.P"),
            ("W.P", "data:W:y"),
        }


class TestNested:
    def test_cluster_per_descendant_workflow(self):
        model = nested_model()
        graph = dot(model, view="process", nested=True)
        assert set(graph.clusters) == {"cluster_outer.QC"}
        assert graph.clusters["cluster_outer.QC"]["label"] == "QC"
        assert graph.membership["outer.QC.Filter"] == "cluster_outer.QC"
        assert graph.membership["outer.Pre"] is None

    def test_channels_flatten_through_boundaries(self):
        graph = dot(nested_model(), view="process", nested=True)
        edge_set = {(s, d, a.get("label")) for s, d, a in graph.edges}
        assert ("outer.Pre", "outer.QC.Filter", "mid") in edge_set
        assert ("outer.QC.Fill", "outer.Post", "clean") in edge_set
        assert ("outer.QC.Filter", "outer.QC.Fill", "kept") in edge_set
        assert "outer.QC" not in graph.nodes

    def test_unbound_boundary_port_gets_stub(self):
        model = model_from_source(
            """\
            # @begin W @in x @out y
            # @begin Sub @in x @out y
            # @begin Inner @in x @out partial
            partial = g(x)
            # @end Inner
            # @end Sub
            # @end W
            """
        )
        graph = dot(model, view="process", nested=True)
        stub = "port:out:W.Sub:y"
        assert stub in graph.nodes
        assert graph.membership[stub] == "cluster_W.Sub"

    def test_data_view_merges_boundary_names(self):
        graph = dot(nested_model(), view="data", nested=True)
        assert "data:outer:mid" in graph.nodes
        assert "data:outer.QC:mid" not in graph.nodes
        assert "data:outer:clean" in graph.nodes
        assert graph.membership["data:outer.QC:kept"] == "cluster_outer.QC"
        edge_set = {(s, d, a.get("label")) for s, d, a in graph.edges}
        assert ("data:outer:mid", "data:outer.QC:kept", "Filter") in edge_set

    @pytest.mark.parametrize("view", ["data", "combined"])
    def test_same_name_in_two_scopes_stays_two_nodes(self, view):
        graph = dot(model_from_source(SHADOWED_SRC), view=view, nested=True)
        assert graph.membership["data:W:d"] is None
        assert graph.membership["data:W.Sub:d"] == "cluster_W.Sub"
        assert "data:W.Sub:x" not in graph.nodes
        assert "data:W.Sub:z" not in graph.nodes

    def test_data_nodes_are_boundary_components(self, corpus_models):
        """One data node per connected component of the data-to-data edges."""
        for model in corpus_models[:150]:
            root_q = model.root.qualified_name
            parent = {("data", ch.scope, ch.data): None for ch in model.channels}
            for port in model.root.ports:
                parent[("data", root_q, port.name)] = None

            def find(node):
                while parent[node] is not None:
                    node = parent[node]
                return node

            for a, b in oracle_edges(model):
                if a[0] == b[0] == "data" and find(a) != find(b):
                    parent[find(a)] = find(b)
            components = sum(1 for node in parent if parent[node] is None)
            graph = dot(model, view="data", nested=True)
            assert len(graph.shaped("oval")) == components

    @pytest.mark.parametrize("view", ["process", "data", "combined"])
    def test_self_feeding_pass_through(self, view):
        model = model_from_source(SELF_FEEDING_SRC)
        assert render_text(model, view=view, nested=True) == SELF_FEEDING_DOT[view]

    def test_program_edges_follow_data_paths(self, corpus_models):
        """Box-to-box edges of the nested process view at the root are the
        program pairs the oracle joins by a path through data nodes only."""
        for model in corpus_models:
            forward = {}
            for a, b in oracle_edges(model):
                forward.setdefault(a, set()).add(b)
            expected = set()
            for writer in [n for n in forward if n[0] == "block"]:
                for data in forward[writer]:
                    seen, todo = {data}, [data]
                    while todo:
                        for nxt in forward.get(todo.pop(), ()):
                            if nxt[0] == "block":
                                expected.add((writer[1], nxt[1], data[2]))
                            elif nxt not in seen:
                                seen.add(nxt)
                                todo.append(nxt)
            graph = dot(model, view="process", nested=True)
            boxes = graph.shaped("box")
            got = {(s, d, a["label"]) for s, d, a in graph.edges if s in boxes and d in boxes}
            assert got == expected

    def test_each_boundary_step_taken_once(self, monkeypatch):
        """A nested view of a deep pass-through nest steps through each
        channel end at most once, so its cost grows linearly with depth."""
        depth = 300
        lines = [f"# @begin b{i} @in x @out y" for i in range(depth)]
        lines += ["y = x"] + [f"# @end b{i}" for i in reversed(range(depth))]
        model = model_from_source("\n".join(lines) + "\n")
        ends = sum(1 + len(ch.sinks) for ch in model.channels)
        calls = []
        across = ModelIndex.across
        monkeypatch.setattr(
            ModelIndex, "across", lambda *args: calls.append(1) or across(*args)
        )
        for view in ("process", "data", "combined"):
            calls.clear()
            graph = dot(model, view=view, nested=True)
            assert len(graph.clusters) == depth - 2
            assert 0 < len(calls) <= ends

    @pytest.mark.parametrize("view", ["process", "data", "combined"])
    def test_focus_excludes_a_dotted_sibling(self, view):
        # W.A.B is W's child A.B, outside the subtree of W.A.
        model = model_from_source(
            """\
            # @begin W @in x @out y
            # @begin A @in x @out m
            # @begin P @in x @out m
            m = p(x)
            # @end P
            # @end A
            # @begin A.B @in m @out y
            # @begin Q @in m @out y
            y = q(m)
            # @end Q
            # @end A.B
            # @end W
            """
        )
        graph = dot(model, view=view, focus="W.A", nested=True)
        assert graph.clusters == {}
        assert not [n for n in graph.nodes if "W.A.B" in n or n.startswith("port:out:W:")]
        for src, dst, _ in graph.edges:
            assert src in graph.nodes and dst in graph.nodes

    def test_focus_on_subworkflow(self):
        graph = dot(nested_model(), view="process", focus="outer.QC")
        assert graph.name == "outer.QC"
        assert set(graph.shaped("box")) == {"outer.QC.Filter", "outer.QC.Fill"}
        assert set(graph.shaped("circle")) == {
            "port:in:outer.QC:mid",
            "port:out:outer.QC:clean",
        }

    def test_unknown_focus(self):
        with pytest.raises(UnknownFocus):
            render_text(nested_model(), focus="outer.Missing")


class TestOptionsAndStyle:
    def test_rankdir(self):
        model = nested_model()
        assert parse_dot(render_text(model, rankdir="TB")).rankdir == "TB"
        assert parse_dot(render_text(model)).rankdir == "LR"

    def test_rankdir_changes_nothing_else(self):
        model = nested_model()
        for view in ("process", "data", "combined"):
            lr = dot(model, view=view, rankdir="LR")
            tb = dot(model, view=view, rankdir="TB")
            assert set(lr.nodes) == set(tb.nodes)
            assert lr.edge_multiset() == tb.edge_multiset()

    def test_bad_view_and_rankdir(self):
        model = nested_model()
        with pytest.raises(ValueError):
            render_text(model, view="sideways")
        with pytest.raises(ValueError):
            render_text(model, rankdir="RL")

    @pytest.mark.parametrize("nested", [False, True])
    @pytest.mark.parametrize("view", VIEWS)
    def test_view_functions_draw_their_own_view(self, view, nested):
        model = nested_model()
        draw = {
            "process": render_process_view,
            "data": render_data_view,
            "combined": render_combined_view,
        }[view]
        expected = render(model, RenderOptions(view=view, nested=nested))
        for asked in VIEWS:
            assert draw(model, RenderOptions(view=asked, nested=nested)) == expected
        if not nested:
            assert draw(model) == draw(model, None) == expected
        with pytest.raises(ValueError):
            draw(model, RenderOptions(view=view, nested=nested, rankdir="RL"))

    def test_param_edges_plain_by_default(self):
        model = model_from_source(PARAM_SRC)
        graph = dot(model, view="process")
        for _, _, attrs in graph.edges:
            assert "style" not in attrs and "color" not in attrs

    def test_param_edges_muted_on_request(self):
        model = model_from_source(PARAM_SRC)
        graph = dot(model, view="process", de_emphasize_params=True)
        by_label = {a.get("label"): a for _, _, a in graph.edges}
        assert by_label["cutoff"].get("style") == "dashed"
        assert by_label["cutoff"].get("color") == "gray"
        assert "style" not in by_label["x"]

    def test_param_data_nodes_muted(self):
        model = model_from_source(PARAM_SRC)
        graph = dot(model, view="data", de_emphasize_params=True)
        assert graph.nodes["data:W:cutoff"].get("color") == "gray"
        assert "color" not in graph.nodes["data:W:x"]

    def test_style_file_overrides(self, tmp_path):
        style = tmp_path / "style.cfg"
        style.write_text(
            "# custom theme\nshape.program=component\nshape.data=note\n"
        )
        table = load_style_file(style)
        model = nested_model()
        from ywx.render import render_process_view

        text = render_process_view(model, RenderOptions(), style=table)
        graph = parse_dot(text)
        assert graph.nodes["outer.Pre"]["shape"] == "component"

    def test_style_file_unknown_key(self, tmp_path):
        style = tmp_path / "style.cfg"
        style.write_text("shape.arrow=vee\n")
        with pytest.raises(StyleError):
            load_style_file(style)


class TestDeterminismAndFormulas:
    def test_byte_identical_rerender(self):
        model = nested_model()
        for view in ("process", "data", "combined"):
            first = render_text(model, view=view, nested=True)
            second = render_text(model, view=view, nested=True)
            assert first == second

    def test_counting_formulas_on_fixture(self):
        model = nested_model()
        focus = model.root.qualified_name
        graph = dot(model, view="process")
        boxes = graph.shaped("box")
        box_edges = [
            (s, d) for s, d, _ in graph.edges if s in boxes and d in boxes
        ]
        assert len(box_edges) == expected_process_edges(model, focus)
        data_graph = dot(model, view="data")
        assert len(data_graph.nodes) == expected_data_nodes(model, focus)
        nested_graph = dot(model, view="process", nested=True)
        assert len(nested_graph.clusters) == len(descendant_workflows(model, focus))
