#!/usr/bin/env python3
"""Count the code lines of each spinspec module, to compare two trees.

    python scripts/code_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to this checkout's src/spinspec.  A code line is a
line that holds part of a statement: blank lines, comment lines and the
lines of docstrings (the string that opens a module, class or function
body) are left out, and a line of code with a trailing comment counts
once.  It prints one line per module, `<file> <code lines>`, by file name,
then `total <code lines>`.
"""

import argparse
import ast
import glob
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(source: str) -> set:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(source))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("package", nargs="?",
                        default=os.path.join(ROOT, "src", "spinspec"))
    args = parser.parse_args(argv)
    total = 0
    for path in sorted(glob.glob(os.path.join(args.package, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            n = code_lines(fh.read())
        print(f"{os.path.basename(path)} {n}")
        total += n
    print(f"total {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
