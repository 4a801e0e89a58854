"""The public contract: the package's exported names and the query names.

Everything behind these names may move between modules; the names
themselves, and what ``from ywx import *`` yields, must not change silently.
"""

import ast
import warnings
from pathlib import Path

import ywx
from ywx import cli

PUBLIC_NAMES = (
    "Annotation",
    "AnnotationDocument",
    "Block",
    "Channel",
    "CommentSyntax",
    "DEFAULT_STYLE",
    "Derivation",
    "Diagnostic",
    "Direction",
    "Endpoint",
    "LANGUAGES",
    "Port",
    "RenderOptions",
    "Role",
    "RunManifest",
    "SourceComment",
    "Tag",
    "WorkflowModel",
    "YwxError",
    "__version__",
    "blocks_affected_by_input",
    "build_blocks",
    "build_dependency_graph",
    "build_model",
    "containing_blocks",
    "derivation",
    "deriving_blocks",
    "detect_language",
    "downstream_blocks",
    "extract_comments",
    "infer_channels",
    "infer_file_lineage",
    "list_blocks",
    "load_style_file",
    "nested_blocks",
    "parse_annotation_file",
    "parse_annotations",
    "parse_manifest",
    "parse_model",
    "render",
    "render_combined_view",
    "render_data_view",
    "render_process_view",
    "serialize_annotations",
    "serialize_model",
    "step_input_sources",
    "strip_comments",
    "upstream_inputs",
    "validate_scripts",
    "validate_sources",
)


def test_all_is_pinned():
    assert len(PUBLIC_NAMES) == 50
    assert len(set(ywx.__all__)) == len(ywx.__all__)
    assert sorted(ywx.__all__) == sorted(PUBLIC_NAMES)


def test_every_public_name_resolves():
    namespace: dict = {}
    exec("from ywx import *", namespace)
    for name in PUBLIC_NAMES:
        assert getattr(ywx, name, None) is not None, name
        assert namespace[name] is getattr(ywx, name), name


def test_query_names_are_pinned():
    assert cli.QUERY_NAMES == (
        "blocks",
        "nested",
        "containers",
        "downstream",
        "affected-by",
        "upstream-inputs",
        "deriving-blocks",
        "derivation",
        "sources",
        "lineage",
        "invoking-blocks",
    )


def _module_level_names(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [
        name.id for target in targets for name in ast.walk(target)
        if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)
    ]


def _unread_definitions() -> list[tuple[str, str]]:
    """Each module-level ``(module, name)`` of the package that no code in
    the package reads. Imports do not count as reads, so re-exporting a
    name does not keep it alive."""
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(Path(ywx.__file__).parent.glob("*.py"))
    }
    loaded: set[str] = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
    return [
        (module, name)
        for module, tree in trees.items()
        for node in tree.body
        for name in _module_level_names(node)
        if name not in loaded
    ]


def test_every_private_helper_is_used():
    """A module-level ``_name`` in the package is read somewhere in it.

    A private helper that outlives its last caller is dead code.
    """
    unused = [
        f"{module}:{name}"
        for module, name in _unread_definitions()
        if name.startswith("_") and not name.startswith("__")
    ]
    assert unused == []


def test_every_public_name_is_used():
    """A module-level public name in the package is exported or read in it.

    The library surface is ``__all__``; a public function, class or constant
    that is neither exported nor read by the package is a second, unpinned
    surface that only its tests hold up.
    """
    unused = [
        f"{module}:{name}"
        for module, name in _unread_definitions()
        if not name.startswith("_") and name not in ywx.__all__
    ]
    assert unused == []


def test_every_module_compiles_with_warnings_as_errors():
    """``compile`` writes no bytecode, so every module is compiled afresh and
    an invalid escape in a pattern string fails here instead of warning once."""
    root = Path(__file__).parent.parent
    paths = sorted(p for d in ("src/ywx", "tools", "tests") for p in (root / d).rglob("*.py"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for path in paths:
            compile(path.read_bytes(), str(path), "exec")
