"""Count the code lines of the nullcore package, per module and in total.

A code line is a line that holds a token other than a comment, a newline
or an indentation change, and is not part of a docstring (the first
statement of a module, class or function body when that is a string
literal).  Blank lines, comment lines and docstring lines are therefore
not counted.

Usage (from the repository root):

    python3 tools/code_lines.py [package directory, default src/nullcore]
"""

import ast
import io
import pathlib
import sys
import tokenize

_SKIP = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(src: str) -> set:
    lines = set()
    for node in ast.walk(ast.parse(src)):
        if not isinstance(node, _BODIES) or not node.body:
            continue
        first = node.body[0]
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path) -> int:
    """Code lines of one Python source file."""
    src = pathlib.Path(path).read_text()
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(src).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(src))


def main(argv) -> int:
    root = pathlib.Path(argv[1] if len(argv) > 1 else "src/nullcore")
    paths = sorted(root.glob("*.py"))
    if not paths:
        print(f"no Python modules in {root}", file=sys.stderr)
        return 1
    total = 0
    for path in paths:
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
