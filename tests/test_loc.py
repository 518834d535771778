"""``tools/loc.py``: code lines without blanks, comments or docstrings."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "loc", Path(__file__).resolve().parents[1] / "tools/loc.py")
loc = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(loc)

SOURCE = '''"""Module docstring,
over two lines."""

# a comment
import os  # a trailing comment counts as code


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        text = """a multi-line string
        that is not a docstring"""
        return (text,
                os.sep)
'''


def test_counts_code_lines_only():
    # import, class, def, the two-line assignment, the two-line return.
    assert loc.code_lines(SOURCE) == 7


def test_max_code_sets_the_exit_status(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "m.py").write_text(SOURCE)
    (tmp_path / "pkg" / "n.py").write_text("x = 1\n")
    assert loc.main([str(tmp_path / "pkg"), "--max-code", "8"]) == 0
    assert loc.main([str(tmp_path / "pkg"), "--max-code", "7"]) == 1
    assert capsys.readouterr().out.split()[0] == "8"
