"""Print the code lines and the compile time of each src/qhurwitz/*.py module, their totals, and the root's public names.

Run from the repository root:

    python3 tools/src_lines.py

A code line holds at least one token that is not a comment.  Blank lines,
comment lines and the lines of module, class and function docstrings are
left out: the docstrings are found with ast, the tokens with tokenize.

The compile time is the best of 20 in-process compile() calls of the
module's source.  With no bytecode cache (PYTHONDONTWRITEBYTECODE=1, as the
benchmark runs), every request pays it once for each module it runs.

The last line counts the names the package root exports: those listed in
the _EXPORTS dict of __init__.py, read with ast, without importing the
package.
"""

import ast
import time
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


def compile_seconds(path: Path, repeats: int = 20) -> float:
    """The best of repeats wall times of compile() of path's source, in seconds."""
    source = path.read_bytes()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        compile(source, str(path), "exec")
        best = min(best, time.perf_counter() - start)
    return best


def exported_names(path: Path) -> int:
    """How many names the tuples of path's module-level _EXPORTS dict list."""
    for node in ast.parse(path.read_bytes()).body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "_EXPORTS" for t in node.targets):
            return sum(len(names) for names in ast.literal_eval(node.value).values())
    raise ValueError(f"{path}: no module-level _EXPORTS")


if __name__ == "__main__":
    total_lines = total_seconds = 0
    print(f"{'module':<18} {'lines':>5} {'compile':>10}")
    for path in sorted(SRC.glob("*.py")):
        count, seconds = code_lines(path), compile_seconds(path)
        total_lines += count
        total_seconds += seconds
        print(f"{path.name:<18} {count:>5} {seconds * 1000:>7.2f} ms")
    print(f"{'total':<18} {total_lines:>5} {total_seconds * 1000:>7.2f} ms")
    print(f"{'exported names':<18} {exported_names(SRC / '__init__.py'):>5}")
