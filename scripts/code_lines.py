#!/usr/bin/env python3
"""Count the code lines of each spinspec module, to compare two trees.

    python scripts/code_lines.py [--functions] [PACKAGE_DIR]

PACKAGE_DIR defaults to this checkout's src/spinspec.  A code line is a
line that holds part of a statement: blank lines, comment lines and the
lines of docstrings (the string that opens a module, class or function
body) are left out, and a line of code with a trailing comment counts
once.  It prints one line per module, `<file> <code lines>`, by file name,
then `total <code lines>`.

With --functions it prints instead one line per function and method,
`<file>:<qualname> <code lines>`, by file name and then in source order:
the code lines from its first decorator to its last line, those of the
functions nested in it included, so that two trees show where their lines
went.
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


def code_line_numbers(source: str) -> set:
    """The line numbers of one module's code lines."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return lines - docstring_lines(source)


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    return len(code_line_numbers(source))


def function_lines(source: str) -> list:
    """(qualname, code lines) of each function and method of one module's
    source, in source order; a function's lines include its decorators and
    the functions nested in it."""
    code, found = code_line_numbers(source), []

    def walk(node, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in
                                              child.decorator_list])
                span = range(first, child.end_lineno + 1)
                found.append((prefix + child.name, len(code.intersection(span))))
                walk(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.")
            else:
                walk(child, prefix)

    walk(ast.parse(source), "")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--functions", action="store_true",
                        help="one line per function and method")
    parser.add_argument("package", nargs="?",
                        default=os.path.join(ROOT, "src", "spinspec"))
    args = parser.parse_args(argv)
    total = 0
    for path in sorted(glob.glob(os.path.join(args.package, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        name = os.path.basename(path)
        if args.functions:
            for qualname, n in function_lines(source):
                print(f"{name}:{qualname} {n}")
            continue
        n = code_lines(source)
        print(f"{name} {n}")
        total += n
    if not args.functions:
        print(f"total {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
