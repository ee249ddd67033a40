import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location("code_lines", Path(__file__).parents[1] / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SNIPPET = '''"""A module docstring
on two lines."""

import os  # a comment after code keeps its line


# a comment line
def f(x):
    """A function docstring."""
    text = """a string on two lines
that is no docstring"""
    return x
'''


def test_counts_token_lines_less_docstrings_comments_and_blanks():
    assert code_lines.docstring_lines(SNIPPET) == {1, 2, 9}
    assert code_lines.code_lines(SNIPPET) == 5  # import, def, the two lines of text, return
