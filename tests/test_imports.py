"""Every name a package module imports is used in that module, and every
private name a module defines is read somewhere in the package.

A deletion that leaves an import behind (a kernel the deleted loop called,
say) fails here.  ``__init__`` is left out: it imports names to re-export
them.  A name counts as used where it is read as a name, the base of an
attribute included, or inside a quoted annotation.

A private helper left behind when its last caller goes fails here too: a
module-level ``_x`` (a function, class or assigned name) that no module of
the package reads, as a name, as an attribute (``hopf._x``) or by an
import (``from .hopf import _x``).  Reads are found in the syntax tree, so
a mention in a docstring or comment does not count.  So does a public
module-level name that no module of the package reads, its own included,
and ``__init__`` does not export: a helper only tests call belongs with the
tests.

So does a local name a function binds and never reads: a plain assignment
target or a nested ``def`` in a function's own body (not in the bodies of
the functions it nests) that no load in the function, its nested functions
included, reads.  An unpacking target is left out, since an unpacking names
every position.

So does a relative import inside a function that breaks no import cycle:
one whose module does not import the importing module at top level, and
so could be imported at the top.
"""

import ast
from pathlib import Path

import pytest

from code_lines import code_lines, main as count_lines

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


def _defined(tree: ast.Module, private: bool) -> dict[str, int]:
    """The private (``_x``) or the public names the module body binds by
    def, class or assignment, with the line of each; a dunder name is
    neither."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [t.id for n in nodes for t in ast.walk(n) if isinstance(t, ast.Name)]
        else:
            continue
        for name in targets:
            if not name.startswith("__") and name.startswith("_") == private:
                out[name] = node.lineno
    return out


def _loaded(tree: ast.AST) -> set[str]:
    """The names tree reads: loaded names, attribute names and the names
    that its imports take from other modules."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


PACKAGE = {p: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}


def test_every_private_name_is_read():
    read = set().union(*map(_loaded, PACKAGE.values()))
    defined = [(path.name, line, name) for path, tree in PACKAGE.items()
               for name, line in _defined(tree, private=True).items()]
    assert len(defined) >= 100
    unread = sorted(d for d in defined if d[2] not in read)
    assert not unread, "private names no module reads: " + ", ".join(
        f"{name} ({module}:{line})" for module, line, name in unread)


def test_private_scan_sees_a_left_over_helper():
    tree = ast.parse("def _left_over(x):\n    return x\n\n\ndef used():\n    return _kept()\n")
    assert sorted(_defined(tree, private=True)) == ["_left_over"]
    assert "_kept" in _loaded(tree) and "_left_over" not in _loaded(tree)


def _unread_public(package: dict) -> list[tuple[str, int, str]]:
    """The public module-level names of the modules of package (path ->
    tree), ``__init__`` left out, that no module reads, its own included,
    and ``__init__`` does not import, as (module, line, name).  ``cli``'s
    verbs count as read: ``main`` runs ``globals()["cmd_" + args.command]``,
    so each ``cmd_*`` is looked up by name and never read as one."""
    read = set().union(*map(_loaded, package.values()))
    return sorted((path.name, line, name) for path, tree in package.items() if path.name != "__init__.py"
                  for name, line in _defined(tree, private=False).items()
                  if name not in read and not (path.name == "cli.py" and name.startswith("cmd_")))


def test_every_public_name_is_read():
    assert sum(len(_defined(tree, private=False)) for tree in PACKAGE.values()) >= 150
    assert 'globals()["cmd_" + args.command]' in (SRC / "cli.py").read_text()
    unread = _unread_public(PACKAGE)
    assert not unread, "public names no module reads and __init__ does not export: " + ", ".join(
        f"{name} ({module}:{line})" for module, line, name in unread)


def test_public_scan_sees_a_left_over_helper():
    package = {Path(name): ast.parse(text) for name, text in [
        ("a.py", "def left_over(x):\n    return x\n\n\ndef kept():\n    return 1\n\n\n"
                 "def exported():\n    return kept()\n"),
        ("__init__.py", "from .a import exported\n"),
        ("cli.py", "def cmd_check(args):\n    return 0\n\n\nLIMIT = 2\n"),
    ]}
    assert _unread_public(package) == [("a.py", 1, "left_over"), ("cli.py", 5, "LIMIT")]


def _own_nodes(func):
    """The nodes of func's body, not descending into the functions, classes
    and lambdas it defines (their nodes are their own)."""
    stack = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _unread_locals(func) -> list[tuple[int, str]]:
    """The names func binds by a plain assignment or a nested def that
    nothing in func reads, with the line of each; a name declared global or
    nonlocal is not func's own."""
    bound, declared = {}, set()
    for node in _own_nodes(func):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.setdefault(node.name, node.lineno)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bound.setdefault(target.id, node.lineno)
        elif isinstance(node, (ast.AnnAssign, ast.NamedExpr)) and isinstance(node.target, ast.Name):
            bound.setdefault(node.target.id, node.lineno)
    reads = {n.id for n in ast.walk(func) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items() if name not in reads and name not in declared)


def test_every_local_name_is_read():
    unread = [(path.name, line, f"{func.name}.{name}") for path, tree in PACKAGE.items()
              for func in ast.walk(tree) if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
              for line, name in _unread_locals(func)]
    assert not unread, "local names their function never reads: " + ", ".join(
        f"{name} ({module}:{line})" for module, line, name in sorted(unread))


def test_local_scan_sees_an_unread_name():
    tree = ast.parse("def f(x):\n    kept = x\n    left = 4\n    a, b = x\n\n    def g():\n"
                     "        nonlocal left\n        left = kept\n\n    def h():\n        return kept\n"
                     "    return h\n")
    f, = tree.body
    assert _unread_locals(f) == [(3, "left"), (6, "g")]


def _local_imports(package: dict) -> list[tuple[str, int, str]]:
    """The relative imports made inside a function of a module of package
    (path -> tree) that break no import cycle, as (module, line, imported
    module): the imported module does not import the importing one at top
    level, so the import could sit at the top of the module."""
    top = {path.stem: {node.module for node in tree.body if isinstance(node, ast.ImportFrom) and node.level}
           for path, tree in package.items()}
    return sorted((path.name, node.lineno, node.module) for path, tree in package.items()
                  for func in ast.walk(tree) if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for node in _own_nodes(func)
                  if isinstance(node, ast.ImportFrom) and node.level and path.stem not in top.get(node.module, ()))


def test_function_local_imports_break_a_cycle():
    assert 'from .compiled import' in (SRC / "linalg.py").read_text()  # Matrix.apply's, which does
    left = _local_imports(PACKAGE)
    assert not left, "function-local imports that break no cycle: " + ", ".join(
        f"{name} ({module}:{line})" for module, line, name in left)


def test_local_import_scan_sees_a_left_over():
    package = {Path(name): ast.parse(text) for name, text in [
        ("a.py", "from .b import kept\n\n\ndef f():\n    from .c import left_over\n\n    return left_over()\n"),
        ("b.py", "def kept():\n    from .a import f\n\n    return f\n"),
        ("c.py", "def left_over():\n    return 1\n"),
    ]}
    assert _local_imports(package) == [("a.py", 5, "c")]


def test_scan_sees_every_module():
    assert len(MODULES) >= 10


# module, class and function docstrings, comments and blank lines are left
# out; a statement split over lines and a string that is no docstring count
# each of their lines: import, class, x = (1, and 2), def, s = """not a and
# docstring""", return
CODE_LINES_FIXTURE = '''"""Module docstring
over two lines."""

import os  # a comment


class A:
    """Class docstring."""

    x = (1,
         2)


def f(a):
    """Function
    docstring."""
    # only a comment
    s = """not a
docstring"""
    return a
'''


def test_code_line_counter_counts_a_fixture(tmp_path, capsys):
    assert code_lines(CODE_LINES_FIXTURE) == 8
    (tmp_path / "a.py").write_text(CODE_LINES_FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert count_lines([str(tmp_path)]) == 0
    assert capsys.readouterr().out == f"8 {tmp_path / 'a.py'}\n1 {tmp_path / 'b.py'}\n9 total\n"
