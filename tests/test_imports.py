"""Every name a package module imports is used in that module.

A deletion that leaves an import behind (a kernel the deleted loop called,
say) fails here.  ``__init__`` is left out: it imports names to re-export
them.  A name counts as used where it is read as a name, the base of an
attribute included, or inside a quoted annotation.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ydalgebra"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    """The names the module's imports bind, with the line of each."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _read(tree: ast.AST) -> set[str]:
    """The names read in tree, quoted annotations parsed as expressions."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        quoted = [getattr(node, "annotation", None), getattr(node, "returns", None)]
        for ann in quoted:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                names |= _read(ast.parse(ann.value, mode="eval"))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_uses_every_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = _read(tree)
    unused = sorted((line, name) for name, line in _imported(tree).items() if name not in read)
    assert not unused, f"{path.name} imports names it never uses: " + ", ".join(
        f"{name} (line {line})" for line, name in unused)


def test_scan_sees_every_module():
    assert len(MODULES) >= 10
