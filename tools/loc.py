#!/usr/bin/env python3
"""Count code lines: no blank lines, no comments, no docstrings.

    python3 tools/loc.py PATH [PATH ...] [--max-code N]

Each PATH is a ``.py`` file or a directory searched recursively for them.
A line counts when it holds a token of code; a line holding only a
comment, only part of a docstring (the string statement that opens a
module, class or function), or nothing, does not.  This is the count
ROADMAP.md and CHANGES.md quote for ``src/`` and its packages.

Prints one line per PATH and, with more than one, their total.  With
``--max-code N`` the exit status is 1 when the total exceeds N, else 0.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path
from typing import Iterable, List

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(
                    first.value, ast.Constant) and isinstance(
                    first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Lines of ``source`` holding code outside docstrings."""
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def python_files(path: Path) -> List[Path]:
    return sorted(path.rglob("*.py")) if path.is_dir() else [path]


def count(path: Path) -> int:
    return sum(code_lines(f.read_text(encoding="utf-8"))
               for f in python_files(path))


def main(argv: Iterable[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", type=Path)
    parser.add_argument("--max-code", type=int, default=None,
                        help="exit 1 when the total exceeds this many lines")
    args = parser.parse_args(argv)
    total = 0
    for path in args.paths:
        n = count(path)
        total += n
        print(f"{n:7d}  {path}")
    if len(args.paths) > 1:
        print(f"{total:7d}  total")
    if args.max_code is not None and total > args.max_code:
        print(f"{total} code lines exceed the bound of {args.max_code}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
