"""Count the code lines of each ``src/liealg`` module: no blanks, no comments, no docstrings.

Usage, from the root of a checkout:

    python3 tools/code_lines.py > lines.txt

Prints one ``module count`` line per module of ``src/liealg`` and a last
``total count`` line.  A line counts when it holds code: blank lines,
lines holding only a comment, and the lines of module, class and function
docstrings (found with ``ast``) do not.  Run it in two checkouts and diff
the outputs to see the net code-line change.  Standard library only.
"""

import ast
import os
import sys
import tokenize

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "liealg")


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers spanned by the module, class and function docstrings."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: str) -> int:
    """Lines of ``path`` that hold a token other than a comment, outside docstrings."""
    with open(path, "rb") as f:
        source = f.read()
    skip = docstring_lines(ast.parse(source))
    ignored = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
               tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER)
    with open(path, "rb") as f:
        lines = {line for tok in tokenize.tokenize(f.readline) if tok.type not in ignored
                 for line in range(tok.start[0], tok.end[0] + 1)}
    return len(lines - skip)


def main() -> int:
    total = 0
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            count = code_lines(os.path.join(SRC, name))
            total += count
            print(name[:-3], count)
    print("total", total)
    return 0


if __name__ == "__main__":
    sys.exit(main())
