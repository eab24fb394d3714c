"""Every name a qsl2 module imports is used in that module or listed in
its __all__, and only the functions named in RAW_MAP_BUILDERS build a
raw {half-exponent: coefficient} map.  Read from the source with the
standard library's ast, so the checks need no linter."""

import ast
import pathlib

import pytest

SRC_DIR = pathlib.Path(__file__).resolve().parent.parent / "src" / "qsl2"


def _imported_names(tree: ast.Module) -> set[str]:
    """The names the import statements of tree bind, wherever they sit."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names.add(alias.asname or alias.name)
    return names


def _loaded_names(tree: ast.Module) -> set[str]:
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def _exported_names(tree: ast.Module) -> set[str]:
    """The string entries of a module-level __all__ list or tuple."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {
                elt.value
                for elt in node.value.elts
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            }
    return set()


@pytest.mark.parametrize(
    "path", sorted(SRC_DIR.glob("*.py")), ids=lambda p: p.name
)
def test_every_import_is_used_or_exported(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    unused = _imported_names(tree) - _loaded_names(tree) - _exported_names(tree)
    assert not unused, f"{path.name} imports {sorted(unused)} and never uses them"


def test_the_scan_sees_an_unused_import():
    tree = ast.parse(
        "from .modules import combine, tensor\n"
        "import os.path\n"
        "__all__ = ['tensor']\n"
    )
    unused = _imported_names(tree) - _loaded_names(tree) - _exported_names(tree)
    assert unused == {"combine", "os"}


# The functions that may build a raw map, defaultdict(int, ...): the one
# kernel for sums of scaled vectors, and the sum of one scalar kept apart
# from it.  The canonical row expansion reads its products and sums from
# value tables and builds none.  A new sum of scaled vectors goes
# through the kernel.
RAW_MAP_BUILDERS = {"_accumulate", "inner_product"}


def _raw_map_builders(tree: ast.Module) -> set[str]:
    """The names of the functions of tree that call defaultdict(int ...),
    each call charged to its innermost function, "<module>" outside any."""
    found = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            owner = getattr(node, "name", "<lambda>")
        if (
            isinstance(node, ast.Call)
            and (getattr(node.func, "id", None) or getattr(node.func, "attr", None))
            == "defaultdict"
            and node.args
            and getattr(node.args[0], "id", None) == "int"
        ):
            found.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "<module>")
    return found


def test_only_the_summing_kernels_build_a_raw_map():
    builders = {}
    for path in sorted(SRC_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for name in _raw_map_builders(tree):
            builders.setdefault(name, []).append(path.name)
    extra = {name: files for name, files in builders.items() if name not in RAW_MAP_BUILDERS}
    assert not extra, f"raw maps built outside the summing kernels: {extra}"
    assert set(builders) == RAW_MAP_BUILDERS


def test_the_scan_sees_a_raw_map_builder():
    tree = ast.parse(
        "import collections\n"
        "from collections import defaultdict\n"
        "def _add(acc, c):\n"
        "    def inner():\n"
        "        return collections.defaultdict(int, c)\n"
        "    acc[0] = defaultdict(int)\n"
        "def _lists():\n"
        "    return defaultdict(list)\n"
        "TOP = defaultdict(int)\n"
    )
    assert _raw_map_builders(tree) == {"_add", "inner", "<module>"}
