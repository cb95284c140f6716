"""benchmarks/loc.py: the code lines it counts in a hand-made module.

CHANGES.md quotes the package's code-line count from this tool, so what
it counts and what it leaves out is checked here line by line.
"""

import importlib.util
import textwrap
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "loc.py"
_spec = importlib.util.spec_from_file_location("loc", _PATH)
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)

MODULE = textwrap.dedent('''\
    """Module docstring,
    over two lines."""

    import math  # a comment after code counts once

    # a comment line


    class Point:
        """Class docstring."""

        x: float

        def norm(self):
            """Function
            docstring."""
            return math.hypot(
                self.x,
                0.0,
            )


    async def wait():
        \'\'\'A docstring in single quotes.\'\'\'
        "a string statement later in the body is code"


    TEXT = """a multi-line string
    that is not a docstring"""
    ''')


def test_counts_code_and_not_docstrings_comments_or_blanks():
    # import, class, x, def, the four lines of the return, async def, the
    # string statement, and TEXT's two lines
    assert loc.code_lines(MODULE) == 12


def test_a_module_of_docstring_and_comments_has_no_code():
    assert loc.code_lines('"""Only a docstring."""\n# and a comment\n\n') == 0


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(MODULE)
    (tmp_path / "b.py").write_text("x = 1\n")
    (tmp_path / "c.txt").write_text("not python\n")
    assert loc.main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out] == ["12", "1", "13"]
    assert out[-1].split()[1] == "total"
