#!/usr/bin/env python3
"""Count the code lines of each duplink module, in one or two trees.

Usage (from anywhere):

    python tools/line_count.py path/to/checkout/src
    python tools/line_count.py path/to/base/src path/to/change/src

A code line is a physical line that holds some token other than a comment,
and that lies outside every docstring (the leading string of a module, class
or function). Blank lines, comment lines and docstring lines are left out; a
statement that spans several lines counts each of them. Next to each count
the script prints the module's ``wc -l``, its physical line count. Given two
trees it prints both columns for each, the change of each, and a total row.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """The code lines of the Python file ``path``, and its physical lines."""
    text = path.read_text()
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - _docstring_lines(ast.parse(text))), len(text.splitlines())


def tree_counts(src: str) -> dict[str, tuple[int, int]]:
    package = Path(src) / "duplink"
    if not package.is_dir():
        sys.exit(f"error: no duplink package under {src}")
    return {p.name: count(p) for p in sorted(package.glob("*.py"))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src", nargs="+", help="src/ directory of a tree (one or two)")
    args = ap.parse_args(argv)
    if len(args.src) > 2:
        ap.error("give one or two src/ directories")
    trees = [tree_counts(src) for src in args.src]
    names = sorted(set().union(*trees))
    rows = [[t.get(name, (0, 0)) for t in trees] for name in names]
    rows.append([tuple(map(sum, zip(*(row[i] for row in rows)))) for i in range(len(trees))])
    if len(trees) == 1:
        print(f"{'module':<16}{'code':>7}{'wc -l':>7}")
        for name, ((code, lines),) in zip([*names, "total"], rows):
            print(f"{name:<16}{code:>7}{lines:>7}")
    else:
        print(f"{'module':<16}{'code':>13}{'change':>8}{'wc -l':>13}{'change':>8}")
        for name, ((c_a, l_a), (c_b, l_b)) in zip([*names, "total"], rows):
            print(f"{name:<16}{c_a:>6} {c_b:>6}{c_b - c_a:>+8}{l_a:>6} {l_b:>6}{l_b - l_a:>+8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
