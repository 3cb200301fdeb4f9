"""Print the code lines of each module under src/ and their total.

A line counts when it holds a Python token other than a comment or a
docstring; blank lines, comment-only lines and docstring lines do not.
A docstring is the string literal that opens a module, class or function
body.

    python3 tools/code_lines.py [SRC_DIR]

SRC_DIR defaults to the repository's src/.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_text()
    docs = docstring_lines(ast.parse(source))
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return len({line for tok in tokens if tok.type not in SKIP
                for line in range(tok.start[0], tok.end[0] + 1)
                if line not in docs})


def main(argv: list[str]) -> None:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src"
    total = 0
    for path in sorted(root.rglob("*.py")):
        lines = code_lines(path)
        total += lines
        print(f"{lines:6d}  {path.relative_to(root)}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
