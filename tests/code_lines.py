"""Count the code-only lines of Python files: the lines that hold a token
of code, leaving out docstrings, comments and blank lines.

    python tests/code_lines.py src/ydalgebra

prints one line per file, "<lines> <path>", and then "<total> total".  A
directory counts its ``*.py`` files, sorted by path.  A docstring is the
string that opens a module, class or function body (``ast``); every line
it spans is left out.  A line counts when ``tokenize`` finds a token on it
that is not a comment, a newline or an indent, so a statement split over
several lines counts each of them, and a line holding only a closing
bracket counts too.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The lines spanned by the docstrings of tree's module, classes and
    functions."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def code_lines(text: str) -> int:
    """The number of code-only lines of the Python source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(text)))


def main(argv: list[str]) -> int:
    paths = []
    for arg in argv or ["src/ydalgebra"]:
        path = Path(arg)
        paths.extend(sorted(path.glob("*.py")) if path.is_dir() else [path])
    total = 0
    for path in paths:
        n = code_lines(path.read_text())
        total += n
        print(f"{n} {path}")
    print(f"{total} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
