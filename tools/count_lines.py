"""Count the lines of the maxseg package.

For each ``src/maxseg/*.py`` file print its physical line count (what
``wc -l`` reports) and its code-line count: lines that hold a token other
than a comment, a newline or a docstring, counted with :mod:`tokenize`.
A docstring is a string literal standing alone as the first statement of a
module, class or function.  The totals follow.

Run from anywhere:  python tools/count_lines.py [FILE_OR_DIR ...]
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "maxseg"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree: ast.AST) -> set:
    """The line numbers spanned by the docstrings in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(path: Path):
    """(physical lines, code lines) of one Python file."""
    text = path.read_bytes()
    docs = _docstring_lines(ast.parse(text))
    code = set()
    for tok in tokenize.tokenize(io.BytesIO(text).readline):
        if tok.type not in _NOT_CODE and tok.start[0] not in docs:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return text.count(b"\n"), len(code)


def main(argv) -> int:
    paths = []
    for arg in argv or [str(PACKAGE)]:
        p = Path(arg)
        paths.extend(sorted(p.glob("*.py")) if p.is_dir() else [p])
    total_wc = total_code = 0
    print(f"{'wc -l':>7} {'code':>7}  file")
    for p in paths:
        wc, code = count(p)
        total_wc += wc
        total_code += code
        print(f"{wc:7d} {code:7d}  {p.name}")
    print(f"{total_wc:7d} {total_code:7d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
