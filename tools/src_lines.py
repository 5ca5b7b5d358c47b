"""Print the code lines of each src/qhurwitz/*.py module and their total.

Run from the repository root:

    python3 tools/src_lines.py

A code line holds at least one token that is not a comment.  Blank lines,
comment lines and the lines of module, class and function docstrings are
left out: the docstrings are found with ast, the tokens with tokenize.
"""

import ast
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qhurwitz"

#: Token types that make no line a code line.
LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}

DEFINITIONS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, DEFINITIONS) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """How many lines of path hold a token that is not a comment, outside docstrings."""
    lines = set()
    with path.open("rb") as source:
        for token in tokenize.tokenize(source.readline):
            if token.type not in LAYOUT:
                lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(path.read_bytes())))


if __name__ == "__main__":
    total = 0
    for path in sorted(SRC.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{path.name:<18} {count:>5}")
    print(f"{'total':<18} {total:>5}")
