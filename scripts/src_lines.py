#!/usr/bin/env python3
"""Physical and code line counts of each module of the monorange package.

Code lines leave out blank lines, comment-only lines and the lines of module,
class and function docstrings, so deleting comments does not shrink them.

Usage: python scripts/src_lines.py [PACKAGE_DIR]   (default: src/monorange)
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "monorange"

# Tokens that do not make a line count as code.
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counts(path: Path) -> tuple[int, int]:
    """(physical lines, code lines) of one source file."""
    source = path.read_text()
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return source.count("\n"), len(code - docstring_lines(ast.parse(source)))


def main() -> None:
    package = Path(sys.argv[1]) if len(sys.argv) > 1 else PACKAGE
    total_physical = total_code = 0
    print(f"{'module':<16} {'lines':>6} {'code':>6}")
    for path in sorted(package.glob("*.py")):
        physical, code = counts(path)
        total_physical += physical
        total_code += code
        print(f"{path.name:<16} {physical:>6} {code:>6}")
    print(f"{'total':<16} {total_physical:>6} {total_code:>6}")


if __name__ == "__main__":
    main()
