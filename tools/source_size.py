"""Count the raw lines and the code lines of the ``*.py`` files in one
directory (by default ``src/polartrack``, the north-star size figures).

    python tools/source_size.py [dir]

A code line is not blank, not comment-only and not inside a docstring.
Prints one line: ``<dir>/*.py: <raw> lines, <code> code lines``.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def source_size(text: str) -> tuple[int, int]:
    """Raw lines and code lines of one file's text."""
    lines = text.splitlines()
    found = set()  # lines that hold part of a token other than a comment
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NOT_CODE:
            found.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node):
            doc = node.body[0]
            found.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(lines), sum(1 for n in found if lines[n - 1].strip())


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "polartrack"
    raw = code = 0
    for path in sorted(root.glob("*.py")):
        r, c = source_size(path.read_text(encoding="utf-8"))
        raw, code = raw + r, code + c
    label = "src/polartrack" if not argv else argv[0].rstrip("/")
    print(f"{label}/*.py: {raw} lines, {code} code lines")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
