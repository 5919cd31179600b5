"""``tools/code_lines.py``, the line count the simplicity changes are measured by."""

import importlib.util
import textwrap
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"


SPEC = importlib.util.spec_from_file_location("code_lines", TOOL)
tool = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(tool)


def lines(source: str) -> int:
    return tool.code_lines(textwrap.dedent(source))


def test_blank_lines_and_comments_not_counted():
    assert lines("x = 1\n\n# a comment\n\n   \ny = 2  # trailing\n") == 2


def test_docstrings_not_counted():
    source = '''
        """Module docstring,
        over two lines."""

        class A:
            """Class docstring."""

            def f(self):
                """Method docstring."""

                def g():
                    """Nested function docstring,
                    also over two lines."""
                    return 1

                return g
    '''
    assert lines(source) == 5  # class, def f, def g, return 1, return g


def test_string_that_is_not_a_docstring_counts_each_line():
    source = '''
        def f():
            x = 1
            """Not a docstring: it is not the first statement."""
            return """one
        two
        three"""
    '''
    assert lines(source) == 6


def test_main_prints_each_module_then_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text('"""Doc."""\nx = 1\ny = 2\n')
    (tmp_path / "b.py").write_text("# only a comment\nz = 3\n")
    (tmp_path / "notes.txt").write_text("w = 4\n")
    assert tool.main(["code_lines.py", str(tmp_path)]) == 0
    out = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert out == [["2", "a.py"], ["1", "b.py"], ["3", "total"]]


def test_defs_prints_each_definition_then_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(textwrap.dedent('''
        """Doc."""
        import math

        LIMIT = 3
        x, y = 1, 2
        count: int = 0


        @staticmethod
        def f(
            a,
        ):
            """Docstring, not counted."""
            # a comment, not counted
            return math.sqrt(a)


        class C:
            """Doc."""

            z = 1
    '''))
    (tmp_path / "b.py").write_text("if True:\n    w = 4\n")
    assert tool.main(["code_lines.py", "--defs", str(tmp_path)]) == 0
    out = [line.split() for line in capsys.readouterr().out.splitlines()]
    # the total is the default one: it also holds the import and the if
    assert out == [
        ["1", "a:LIMIT"],
        ["1", "a:x,y"],
        ["1", "a:count"],
        ["5", "a:f"],  # the decorator, the def over three lines, the return
        ["2", "a:C"],
        ["13", "total"],
    ]
