"""``tools/readers.py``, which finds public names that only unit tests read."""

import importlib.util
import textwrap
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "readers.py"


SPEC = importlib.util.spec_from_file_location("readers", TOOL)
tool = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(tool)


def write(path: Path, source: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))


def fixture_tree(root: Path) -> None:
    write(root / "src" / "gibbsaccel" / "mod.py", '''
        """Doc naming wrapped, which is no read."""
        LIMIT = 3
        _HIDDEN = 4
        count: int = 0

        def wrapped(x):
            return core(x) + LIMIT  # a comment naming unused

        def core(x):
            return x

        def unused():
            return "wrapped"

        class Table:
            size = 1
    ''')
    write(root / "bench" / "run.py", '''
        from gibbsaccel import mod
        print(mod.Table)
    ''')
    write(root / "tests" / "test_acceptance.py", '''
        from gibbsaccel.mod import core
    ''')
    write(root / "tests" / "test_mod.py", '''
        from gibbsaccel.mod import wrapped
        def test_it():
            assert wrapped(1) == 4 and count == 0
    ''')


def test_counts_reading_files_per_group(tmp_path):
    fixture_tree(tmp_path)
    counts = tool.reader_counts(tmp_path)
    groups = ("package", "bench", "acceptance", "tests")
    assert {name: tuple(c[g] for g in groups) for name, c in counts.items()} == {
        "mod.LIMIT": (1, 0, 0, 0),
        "mod.count": (0, 0, 0, 1),
        "mod.wrapped": (0, 0, 0, 1),
        "mod.core": (1, 0, 1, 0),
        "mod.unused": (0, 0, 0, 0),
        "mod.Table": (0, 1, 0, 0),
    }


def test_flags_names_read_only_by_unit_tests(tmp_path, capsys):
    fixture_tree(tmp_path)
    assert tool.main(["readers.py", str(tmp_path)]) == 1
    flagged = [
        line for line in capsys.readouterr().out.splitlines()
        if line.startswith("read only by unit tests")
    ]
    assert flagged == [
        "read only by unit tests: mod.count",
        "read only by unit tests: mod.wrapped",
    ]


def test_no_flag_exits_zero(tmp_path, capsys):
    fixture_tree(tmp_path)
    write(tmp_path / "bench" / "more.py", "from gibbsaccel.mod import wrapped, count\n")
    assert tool.main(["readers.py", str(tmp_path)]) == 0
    assert "read only" not in capsys.readouterr().out


def test_repository_flags_no_name(capsys):
    # a public name that only unit tests read is code that nothing needs
    assert tool.main(["readers.py", str(TOOL.parents[1])]) == 0, capsys.readouterr().out
