"""Print the tracked size of the package source: `wc -l` over src/ and
its code lines, which leave out docstrings, comments and blank lines.

A docstring is the string that opens a module, class or function body.
Run from anywhere: python3 tools/src_lines.py [SRC_DIR]
"""

import ast
import io
import sys
import tokenize
from pathlib import Path


def docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Lines that hold a token other than a comment, outside docstrings."""
    skip = docstring_lines(ast.parse(source))
    ignored = {
        tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
        tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
    }
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in ignored:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - skip)


def main(src: Path) -> None:
    total = code = 0
    for path in sorted(src.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        total += len(source.splitlines())
        code += code_lines(source)
    print(f"{src}: {total} lines, {code} code lines")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent / "src")
