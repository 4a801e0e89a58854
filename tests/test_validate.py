"""Diagnostics: codes, positions, recovery, ordering, and the build guarantee."""

import random
import re
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ywx.comments
from support import model_from_source, random_tree, script_from_tree
from ywx.annotations import Tag, parse_annotations
from ywx.comments import LANGUAGES, detect_language, extract_comments, strip_comments
from ywx.errors import (
    AmbiguousWriter,
    DuplicateBlockName,
    DuplicatePort,
    MismatchedEndName,
    NoBlocks,
    PortOutsideBlock,
    UnbalancedEnd,
    UnclosedBlock,
    YwxError,
)
from ywx.model import build_blocks, build_model, iter_blocks
from ywx.queries import list_blocks
from ywx.render import RenderOptions, render
from ywx.validate import (
    STRUCTURE_CODES,
    Diagnostic,
    check_port_names_in_code,
    check_structure,
    diagnostics_as_dicts,
    format_diagnostics,
    has_errors,
    validate_scripts,
    validate_sources,
)

FIXTURES = Path(__file__).parent / "fixtures"
DEFECTS = FIXTURES / "defects"


def validate_text(text, path="script.py"):
    return validate_sources([(path, text, detect_language(path))])


class TestDiagnosticType:
    def test_render_format(self):
        diag = Diagnostic("error", "YW001", "no opening @begin", "run.py", 3)
        assert diag.render() == "run.py:3: error YW001 no opening @begin"

    def test_format_joins_lines(self):
        diags = [
            Diagnostic("error", "YW001", "a", "f.py", 1),
            Diagnostic("warning", "YW010", "b", "f.py", 2),
        ]
        assert format_diagnostics(diags) == (
            "f.py:1: error YW001 a\nf.py:2: warning YW010 b"
        )

    def test_as_dicts(self):
        diag = Diagnostic("warning", "YW031", "unused", "f.m", 7)
        assert diagnostics_as_dicts([diag]) == [
            {
                "file": "f.m",
                "line": 7,
                "severity": "warning",
                "code": "YW031",
                "message": "unused",
            }
        ]

    def test_has_errors(self):
        warning = Diagnostic("warning", "YW010", "m", "f.py", 1)
        error = Diagnostic("error", "YW020", "m", "f.py", 1)
        assert not has_errors([warning])
        assert has_errors([warning, error])


class TestPinnedDefects:
    """Each defect fixture triggers exactly one diagnostic."""

    CASES = [
        ("d01_end_without_begin.py", "YW001", "error", 1),
        ("d02_end_wrong_name.py", "YW002", "error", 4),
        ("d03_end_wrong_name_nested.m", "YW002", "error", 17),
        ("d04_unclosed_block.py", "YW003", "error", 1),
        ("d05_port_outside_block.py", "YW004", "error", 6),
        ("d06_port_before_begin.R", "YW004", "error", 1),
        ("d07_name_not_in_code.py", "YW010", "warning", 3),
        ("d08_name_only_in_comment.R", "YW010", "warning", 2),
        ("d09_broken_chain.py", "YW020", "error", 5),
        ("d10_broken_chain_diamond.R", "YW020", "error", 5),
        ("d11_multiple_writers.py", "YW030", "error", 5),
        ("d12_dangling_out.m", "YW031", "warning", 2),
    ]

    @pytest.mark.parametrize("name,code,severity,line", CASES)
    def test_defect(self, name, code, severity, line):
        diags = validate_scripts([DEFECTS / name])
        assert [(d.code, d.severity, d.line) for d in diags] == [
            (code, severity, line)
        ]

    def test_every_fixture_is_pinned(self):
        assert sorted(p.name for p in DEFECTS.iterdir()) == sorted(
            name for name, *_ in self.CASES
        )


class TestCleanFixtures:
    @pytest.mark.parametrize(
        "name", ["affymetrix.R", "mstmip_nee.m", "paleoclimate.R"]
    )
    def test_no_diagnostics(self, name):
        assert validate_scripts([FIXTURES / name]) == []


class TestUnreadableInput:
    def test_invalid_annotation_value(self):
        diags = validate_text(
            "# @begin W @in x @out y\n"
            "# @begin P @in x @param 9bad @out y\n"
            "y = f(x)\n"
            "# @end P\n"
            "# @end W\n"
        )
        assert [(d.code, d.line) for d in diags] == [("YW005", 2)]
        assert "9bad" in diags[0].message

    def test_missing_annotation_value(self):
        diags = validate_text(
            "# @begin W @in x @out y\n"
            "# @begin P @in x @out y @in\n"
            "y = f(x)\n"
            "# @end P\n"
            "# @end W\n"
        )
        assert [(d.code, d.line) for d in diags] == [("YW005", 2)]

    def test_unterminated_block_comment(self):
        diags = validate_text("%{\n% @begin W\n", path="script.m")
        assert [(d.code, d.severity, d.line) for d in diags] == [
            ("YW005", "error", 1)
        ]


class TestRecovery:
    def test_wrong_end_still_closes_the_block(self):
        diags = validate_text(
            "# @begin W @in x @out y\n"
            "# @begin A @in x @out y\n"
            "y = f(x)\n"
            "# @end Wrong\n"
            "# @end W\n"
        )
        assert [(d.code, d.line) for d in diags] == [("YW002", 4)]

    def test_stray_end_is_skipped(self):
        diags = validate_text(
            "# @end Stray\n"
            "# @begin W @in x @out y\n"
            "y = f(x)\n"
            "# @end W\n"
        )
        assert [(d.code, d.line) for d in diags] == [("YW001", 1)]

    def test_every_unclosed_block_reported(self):
        diags = validate_text("# @begin W @in x\n# @begin A @in x\n")
        assert [(d.code, d.line) for d in diags] == [
            ("YW003", 1),
            ("YW003", 2),
        ]

    def test_duplicate_port_line(self):
        diags = validate_text(
            "# @begin W @in x @in x @out y\ny = f(x)\n# @end W\n"
        )
        assert [(d.code, d.line) for d in diags] == [("YW006", 1)]

    def test_dotted_name_collision_with_a_stray_end(self):
        # A's child B and the sibling A.B both qualify as W.A.B.
        diags = validate_text(
            "# @begin W @in x @out y\n"
            "# @begin A @in x @out m\n"
            "# @begin B @in x @out m\n"
            "m = b(x)\n"
            "# @end B\n"
            "# @end A\n"
            "# @begin A.B @in m @out y\n"
            "y = c(m)\n"
            "# @end A.B\n"
            "# @end W\n"
            "# @end Stray\n"
        )
        assert [(d.code, d.line) for d in diags] == [("YW007", 7), ("YW001", 11)]

    def test_duplicate_name_messages(self):
        same_scope = validate_text(
            "# @begin W\n# @begin P\n# @end P\n# @begin P\n# @end P\n# @end W\n"
        )
        assert [d.render() for d in same_scope] == [
            "script.py:4: error YW007 block name 'P' is declared twice in the same scope"
        ]
        dotted = validate_text(
            "# @begin W\n# @begin A\n# @begin B\n# @end B\n# @end A\n"
            "# @begin A.B\n# @end A.B\n# @end W\n"
        )
        assert [d.render() for d in dotted] == [
            "script.py:6: error YW007 block 'A.B' and the block declared at "
            "script.py:3 share the qualified name 'W.A.B'"
        ]

    def test_dotted_name_collision_under_an_implicit_root(self):
        # Two top-level blocks: the root is named after the file.
        diags = validate_text(
            "# @begin A\n# @begin B\n# @end B\n# @end A\n# @begin A.B\n# @end A.B\n"
        )
        assert [d.render() for d in diags] == [
            "script.py:5: error YW007 block 'A.B' and the block declared at "
            "script.py:2 share the qualified name 'script.A.B'"
        ]

    def test_dotted_name_collision_before_a_second_top_level_block(self):
        # The collision sits in W, but the later V makes the root implicit.
        diags = validate_text(
            "# @begin W\n# @begin A\n# @begin B\n# @end B\n# @end A\n"
            "# @begin A.B\n# @end A.B\n# @end W\n# @begin V\n# @end V\n"
        )
        assert [d.render() for d in diags] == [
            "script.py:6: error YW007 block 'A.B' and the block declared at "
            "script.py:3 share the qualified name 'script.W.A.B'"
        ]

    @pytest.mark.parametrize(
        "tail, expected",
        [
            # Two blocks open at the top level, but only W closes, and it
            # has children: the collision is named under W.
            (
                "# @end W\n# @begin U\n",
                [
                    "script.py:6: error YW007 block 'A.B' and the block declared at "
                    "script.py:3 share the qualified name 'W.A.B'",
                    "script.py:9: error YW003 block 'U' is never closed",
                ],
            ),
            # One block opens at the top level, but it never closes: the
            # collision is named under the implicit root.
            (
                "",
                [
                    "script.py:1: error YW003 block 'W' is never closed",
                    "script.py:6: error YW007 block 'A.B' and the block declared at "
                    "script.py:3 share the qualified name 'script.W.A.B'",
                ],
            ),
        ],
        ids=["second-top-level-unclosed", "only-top-level-unclosed"],
    )
    def test_dotted_name_collision_with_an_unclosed_block(self, tail, expected):
        diags = validate_text(
            "# @begin W\n# @begin A\n# @begin B\n# @end B\n# @end A\n"
            "# @begin A.B\n# @end A.B\n" + tail
        )
        assert [d.render() for d in diags] == expected

    def test_in_and_out_with_one_name_is_fine(self):
        diags = validate_text(
            "# @begin W @in state @out state\nstate = step(state)\n# @end W\n"
        )
        assert diags == []


class TestGating:
    def test_structure_error_suppresses_model_checks(self):
        diags = validate_text(
            "# @end Phantom\n"
            "# @begin W @in x @out y\n"
            "# @begin A @in x @out y\n"
            "y = a(x)\n"
            "# @end A\n"
            "# @begin B @in x @out y\n"
            "y = b(x)\n"
            "# @end B\n"
            "# @end W\n"
        )
        assert [d.code for d in diags] == ["YW001"]

    def test_multiple_writers_suppress_chain_check_only(self):
        diags = validate_text(
            "# @begin W @in x @out best\n"
            "# @begin A @in x @out best\n"
            "best = a(x)\n"
            "# @end A\n"
            "# @begin B @in x @out best\n"
            "best = b(x)\n"
            "# @end B\n"
            "# @end W\n"
        )
        assert [d.code for d in diags] == ["YW030"]


class TestOrdering:
    def test_document_order_not_alphabetical(self):
        text = "# @end Stray\n"
        syntax = detect_language("any.py")
        diags = validate_sources(
            [("zz.py", text, syntax), ("aa.py", text, syntax)]
        )
        assert [d.file for d in diags] == ["zz.py", "aa.py"]

    def test_line_order_within_a_file(self):
        diags = validate_text("# @in early\n# @end Ghost\n")
        assert [(d.code, d.line) for d in diags] == [
            ("YW004", 1),
            ("YW001", 2),
        ]


class TestCrossFile:
    def test_clean_split_script(self):
        a = "# @begin Load @in x @out mid\nmid = load(x)\n# @end Load\n"
        b = "# @begin Save @in mid\nsave(mid)\n# @end Save\n"
        syntax = detect_language("any.py")
        diags = validate_sources([("a.py", a, syntax), ("b.py", b, syntax)])
        assert diags == []

    def test_block_stacks_do_not_span_files(self):
        a = "# @begin W @in x\nuse(x)\n"
        b = "# @end W\n"
        syntax = detect_language("any.py")
        diags = validate_sources([("a.py", a, syntax), ("b.py", b, syntax)])
        assert [(d.code, d.file, d.line) for d in diags] == [
            ("YW003", "a.py", 1),
            ("YW001", "b.py", 1),
        ]

    def test_duplicate_top_level_name_across_files(self):
        a = "# @begin Load @in x @out y\ny = f(x)\n# @end Load\n"
        b = "# @begin Load @in y @out z\nz = g(y)\n# @end Load\n"
        syntax = detect_language("any.py")
        diags = validate_sources([("a.py", a, syntax), ("b.py", b, syntax)])
        assert [(d.code, d.file, d.line) for d in diags] == [
            ("YW007", "b.py", 1)
        ]

    def test_every_duplicate_across_files_reported(self):
        a = "# @begin Load @in x @out y\ny = f(x)\n# @end Load\n"
        a += "# @begin Save @in y\nsave(y)\n# @end Save\n"
        syntax = detect_language("any.py")
        diags = validate_sources([("a.py", a, syntax), ("b.py", a, syntax)])
        assert [(d.code, d.file, d.line) for d in diags] == [
            ("YW007", "b.py", 1),
            ("YW007", "b.py", 4),
        ]


class TestBuildGuarantee:
    """No error diagnostics means the toolchain runs end to end."""

    def test_corpus_scripts(self, corpus):
        buildable, rejected = corpus
        for tree, script, model, expected, ambiguous in buildable[:60]:
            diags = validate_text(script)
            assert not any(d.code in STRUCTURE_CODES for d in diags)
            if has_errors(diags):
                continue
            rebuilt = model_from_source(script)
            render(rebuilt, RenderOptions(view="process"))
            list_blocks(rebuilt)

    def test_rejected_scripts_get_yw030(self, corpus):
        buildable, rejected = corpus
        assert rejected, "corpus should include ambiguous-writer scripts"
        for tree, script, ambiguous in rejected[:40]:
            diags = validate_text(script)
            assert any(d.code == "YW030" for d in diags)
            assert has_errors(diags)


class TestPortNamesInCode:
    """YW010 against its specification: a whole-word search of the span."""

    @staticmethod
    def spec(tree, stripped):
        """One regex per port over the block's newline-separated lines."""
        found = []
        for block in iter_blocks(tree):
            if block.file not in stripped:
                continue
            lines = stripped[block.file].split("\n")
            segment = "\n".join(lines[max(block.span[0], 1) - 1 : block.span[1]])
            for port in block.ports:
                word = r"(?<![A-Za-z0-9_])" + re.escape(port.name) + r"(?![A-Za-z0-9_])"
                if not re.search(word, segment):
                    found.append((port.file, port.line, port.name, block.qualified_name))
        return found

    # Port renames: names with dots, non-ASCII names, and names that are a
    # prefix or a suffix of other words written in the code.
    RENAMES = {
        "alpha": "alpha.csv",
        "beta": "bêta",
        "gamma": "gam",
        "delta": "δ",
        "eta": "eta.",
        "kappa": "k.a_p",
        "mu": "m",
    }
    DECOYS = (
        "gamma", "gam_x", "xgam", "alpha", "alpha.csvx", "alpha.csv.gz", "alpha_csv",
        "bêtas", "bêta2", "δδ", "eta.x", "zeta", "theta", "m2", "_m", "mu", "k.a_px",
        "sigma.csv", "iota.", "Alpha", "@in", "'sigma'", "#theta", "\f", "\r", "\u2028",
    )

    def case(self, rng):
        tree = random_tree(rng, max_blocks=30)
        lines = script_from_tree(tree, rng).split("\n")
        for i in [i for i, line in enumerate(lines) if line.startswith("work(")]:
            words = re.findall(r"[a-z]+", lines[i][len("work(") :])
            words = [w for w in words if rng.random() < 0.7]
            words += rng.sample(self.DECOYS, rng.randint(0, 4))
            code = "work(" + ", ".join(words) + ")"
            # Sometimes the code shares the block's first or last line.
            lines[i], at = "", i + rng.choice([-1, 0, 0, 1])
            lines[at] = code + ("  " + lines[at] if lines[at] else "")
        text = "\n".join(lines)
        anns = parse_annotations(extract_comments(text, LANGUAGES["python"], "gen.py"))
        anns = [
            replace(a, value=self.RENAMES.get(a.value, a.value))
            if a.tag not in (Tag.BEGIN, Tag.END)
            else a
            for a in anns
        ]
        code = re.sub(
            r"[A-Za-z]+", lambda m: self.RENAMES.get(m.group(), m.group()), text
        ) if rng.random() < 0.5 else text
        try:
            tree = build_blocks(anns, root_name="gen")
        except YwxError:
            return None
        return tree, {"gen.py": strip_comments(code, LANGUAGES["python"])}

    def test_matches_spec_on_random_trees(self):
        rng = random.Random(4101)
        checked = warned = 0
        while checked < 250:
            built = self.case(rng)
            if built is None:
                continue
            tree, stripped = built
            got = [
                (d.file, d.line, d.message)
                for d in check_port_names_in_code(tree, stripped)
            ]
            expected = [
                (f, line, f"port name {name!r} does not appear in the code of block {q!r}")
                for f, line, name, q in self.spec(tree, stripped)
            ]
            assert got == expected
            checked += 1
            warned += bool(expected)
        assert 50 < warned < 250

    @pytest.mark.parametrize("sep", ["\f", "\r", "\v", "\x1c", "\x85", "\u2028"])
    def test_lines_are_newline_separated(self, sep):
        """Only ``\\n`` ends a line, as in every annotation's line number."""
        text = (
            "# @begin W @in a @out b\n"
            f"y = 0{sep}z = 1\n"
            "x = a\n"
            "# @begin P\n"
            "# @in a\n"
            "# @out b\n"
            "b = g()\n"
            "# @end P\n"
            "# @end W\n"
        )
        assert [d.render() for d in validate_text(text, "w.py")] == [
            "w.py:5: warning YW010 port name 'a' does not appear in the code of block 'W.P'"
        ]

    def test_one_scan_per_file(self, monkeypatch):
        original = ywx.comments._scan
        scanned = []

        def counting(source, syntax, file):
            scanned.append(file)
            return original(source, syntax, file)

        for name, module in list(sys.modules.items()):
            if name.startswith("ywx") and getattr(module, "_scan", None) is original:
                monkeypatch.setattr(module, "_scan", counting)
        a = "# @begin A @in x @out y\ny = f(x)  # first\n# @end A\n"
        b = "# @begin B @in y @out z\nz = g(y)\n# @end B\n"
        syntax = detect_language("any.py")
        validate_sources([("a.py", a, syntax), ("b.py", b, syntax)])
        assert scanned == ["a.py", "b.py"]


# -- one bracket walker: validate and the model builder agree ------------------

_CODES = {
    UnbalancedEnd: "YW001",
    MismatchedEndName: "YW002",
    UnclosedBlock: "YW003",
    PortOutsideBlock: "YW004",
    DuplicatePort: "YW006",
    DuplicateBlockName: "YW007",
}
_BLOCK_NAMES = st.sampled_from(["A", "B", "A.B", "W"])
_ANNOTATION = st.one_of(
    _BLOCK_NAMES.map(lambda name: f"@begin {name}"),
    st.just("@end"),
    _BLOCK_NAMES.map(lambda name: f"@end {name}"),
    st.tuples(st.sampled_from(["@in", "@out", "@param"]), st.sampled_from(["x", "y"]))
    .map(" ".join),
)
_FILES = st.lists(st.lists(_ANNOTATION, max_size=10), min_size=1, max_size=3)


@settings(max_examples=400, deadline=None)
@given(_FILES)
def test_structure_diagnostics_match_the_build(files):
    syntax = detect_language("any.py")
    sources = [
        (f"f{i}.py", "".join(f"# {line}\nx = y\n" for line in lines), syntax)
        for i, lines in enumerate(files)
    ]
    merged = [
        ann
        for path, text, _ in sources
        for ann in parse_annotations(extract_comments(text, syntax, file=path))
    ]
    structure = check_structure(merged, root_name="f0")
    try:
        build_blocks(merged, root_name="f0")
    except NoBlocks:
        assert structure == []
    except YwxError as exc:
        # The build raises the problem behind the first structural diagnostic.
        first = structure[0]
        assert (_CODES[type(exc)], exc.message, exc.file, exc.line) == (
            first.code,
            first.message,
            first.file,
            first.line,
        )
    else:
        assert structure == []

    diags = validate_sources(sources)
    structural = [d for d in diags if d.code in STRUCTURE_CODES]
    assert sorted(structural, key=lambda d: (d.file, d.line, d.code, d.message)) == (
        sorted(structure, key=lambda d: (d.file, d.line, d.code, d.message))
    )
    if structural or not any(a.tag is Tag.BEGIN for a in merged):
        return
    try:
        build_model(merged, root_name="f0")
    except AmbiguousWriter:
        assert any(d.code == "YW030" for d in diags)
    else:
        assert not any(d.code == "YW030" for d in diags)
