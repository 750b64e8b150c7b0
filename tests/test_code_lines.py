import importlib.util
from pathlib import Path


def load_tool():
    path = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
    spec = importlib.util.spec_from_file_location("code_lines", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''\
"""Module docstring,
two lines."""

# a comment

import os  # a trailing comment counts as code


class A:
    """Class docstring."""

    x = """a string that is
    not a docstring"""

    def f(self):
        """Function docstring."""
        return (1 +
                2)


async def g():
    "one-line docstring"
    pass
'''


def test_counts_code_lines_only():
    # code: the import, class A, both lines of x, def f, both lines of the
    # return, async def g and pass; not the docstrings, blanks or comment
    assert load_tool().code_lines(SOURCE) == 9


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("x = 1\n\n# end\n")
    assert load_tool().main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     9  a.py", "     1  sub/b.py", "    10  total",
    ]
