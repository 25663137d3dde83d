"""Line counts of the cbrsim package, split into code, docstrings, comments and blanks.

    python3 tools/src_lines.py                 # src/cbrsim of this checkout
    python3 tools/src_lines.py path/to/cbrsim  # any other copy

Every line of a module falls in exactly one class, tested in this order:

- docstring: inside the span of a module, class or function docstring
  (found with ``ast``);
- code: holds part of a token other than a comment (found with
  ``tokenize``), so a line with code and a trailing comment is code;
- comment: holds only a comment;
- blank: everything else.

The four classes therefore sum to the file's line count.  Stdlib only.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

CLASSES = ("code", "docstring", "comment", "blank")
_NON_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count_lines(source: str) -> dict[str, int]:
    """Lines of ``source`` per class, plus ``total``."""
    docstring = _docstring_lines(ast.parse(source))
    code: set[int] = set()
    comment: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in _NON_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(CLASSES, 0)
    total = len(source.splitlines())
    for line in range(1, total + 1):
        if line in docstring:
            counts["docstring"] += 1
        elif line in code:
            counts["code"] += 1
        elif line in comment:
            counts["comment"] += 1
        else:
            counts["blank"] += 1
    counts["total"] = total
    return counts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    default = Path(__file__).resolve().parent.parent / "src" / "cbrsim"
    parser.add_argument("package", nargs="?", type=Path, default=default)
    args = parser.parse_args(argv)
    columns = ("total", *CLASSES)
    print(f"{'module':<16}" + "".join(f"{c:>10}" for c in columns))
    sums = dict.fromkeys(columns, 0)
    for path in sorted(args.package.glob("*.py")):
        counts = count_lines(path.read_text(encoding="utf-8"))
        for c in columns:
            sums[c] += counts[c]
        print(f"{path.name:<16}" + "".join(f"{counts[c]:>10}" for c in columns))
    print(f"{'total':<16}" + "".join(f"{sums[c]:>10}" for c in columns))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
