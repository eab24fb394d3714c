"""Every name a qsl2 module imports is used in that module or listed in
its __all__.  Read from the source with the standard library's ast, so
the check needs no linter."""

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
