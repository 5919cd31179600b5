"""Count the code lines of each module of a Python package.

A code line is a line that holds a code token: blank lines, comments and
docstrings (the leading string of a module, class or function) are left
out, and a token that spans several lines counts each of them.  Prints
one ``<count> <module>`` line per module and then the total.  With
``--defs`` it prints one ``<count> <module>:<name>`` line per top-level
function, class and assignment instead (decorators included; a
definition's count is that of the code lines it spans), and then the
same total, which also holds the imports and any other top-level
statement.

    python tools/code_lines.py [--defs] [package-dir]   # default: src/gibbsaccel
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
_DEFINITIONS = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
_ASSIGNMENTS = (ast.Assign, ast.AnnAssign)


def docstring_lines(source: str) -> set[int]:
    """The line numbers of every docstring in ``source``."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            value = getattr(first, "value", None)
            if isinstance(first, ast.Expr) and isinstance(value, ast.Constant):
                if isinstance(value.value, str):
                    lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_line_numbers(source: str) -> set[int]:
    """The line numbers of ``source`` that hold a code token."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return lines - docstring_lines(source)


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold a code token."""
    return len(code_line_numbers(source))


def definition_lines(source: str) -> list[tuple[str, int]]:
    """(name, code lines) of each top-level function, class and assignment
    of ``source``, in order; an assignment to several names is named by
    all of them, joined by commas."""
    code = code_line_numbers(source)
    counts = []
    for node in ast.parse(source).body:
        if isinstance(node, _DEFINITIONS):
            name = node.name
        elif isinstance(node, _ASSIGNMENTS):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            name = ",".join(n.id for n in names)
        else:
            continue
        decorators = getattr(node, "decorator_list", [])
        first = decorators[0].lineno if decorators else node.lineno
        counts.append((name, len(code & set(range(first, node.end_lineno + 1)))))
    return counts


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="code_lines.py")
    parser.add_argument("--defs", action="store_true", help="one line per definition")
    parser.add_argument("package", nargs="?", default="src/gibbsaccel", type=Path)
    args = parser.parse_args(argv[1:])
    total = 0
    for path in sorted(args.package.glob("*.py")):
        source = path.read_text()
        count = code_lines(source)
        total += count
        if args.defs:
            for name, lines in definition_lines(source):
                print(f"{lines:5d} {path.stem}:{name}")
        else:
            print(f"{count:5d} {path.name}")
    print(f"{total:5d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
