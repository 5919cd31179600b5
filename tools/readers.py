"""Count the files that read each public name of the package.

A public name is a top-level function, class or constant of a module of
``src/gibbsaccel`` whose name has no leading underscore.  A read is an
AST ``Name`` or ``Attribute`` that loads the name, or an import alias of
it, so comments, strings and the definition itself do not count.  Names
are matched by spelling alone.  Prints, per name, the number of files
that read it in four groups: the package, ``bench/``,
``tests/test_acceptance.py`` and the other tests.  Then it lists every
name whose only readers are those other tests, and exits 1 if there is
one.

    python tools/readers.py [repo-root]   # default: .
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
GROUPS = ("package", "bench", "acceptance", "tests")


def public_names(source: str) -> list[str]:
    """The public top-level names that ``source`` defines, in order."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, _DEFINITIONS):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names if not name.startswith("_")]


def read_names(source: str) -> set[str]:
    """Every name that ``source`` loads or imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def group_files(root: Path) -> dict[str, list[Path]]:
    """The Python files of each group under ``root``."""
    acceptance = root / "tests" / "test_acceptance.py"
    return {
        "package": sorted((root / "src" / "gibbsaccel").glob("*.py")),
        "bench": sorted((root / "bench").rglob("*.py")),
        "acceptance": [acceptance] if acceptance.exists() else [],
        "tests": sorted(p for p in (root / "tests").rglob("*.py") if p != acceptance),
    }


def reader_counts(root: Path) -> dict[str, dict[str, int]]:
    """``module.name`` -> the number of files in each group that read it."""
    files = group_files(root)
    reads = {g: [read_names(p.read_text()) for p in files[g]] for g in GROUPS}
    counts = {}
    for path in files["package"]:
        for name in public_names(path.read_text()):
            counts[f"{path.stem}.{name}"] = {
                g: sum(name in names for names in reads[g]) for g in GROUPS
            }
    return counts


def unit_tests_only(counts: dict[str, dict[str, int]]) -> list[str]:
    """The names that some file reads, every one of them an other test."""
    return [
        name for name, c in counts.items()
        if c["tests"] and not (c["package"] or c["bench"] or c["acceptance"])
    ]


def main(argv: list[str]) -> int:
    counts = reader_counts(Path(argv[1] if len(argv) > 1 else "."))
    print(" ".join(f"{g:>10}" for g in GROUPS), " name")
    for name, c in counts.items():
        print(" ".join(f"{c[g]:10d}" for g in GROUPS), "", name)
    flagged = unit_tests_only(counts)
    for name in flagged:
        print(f"read only by unit tests: {name}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
