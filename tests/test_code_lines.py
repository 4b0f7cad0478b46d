import importlib.util
from pathlib import Path

SPEC = importlib.util.spec_from_file_location(
    "code_lines", Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
)
code_lines = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(code_lines)

TOY = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps its line

# a comment line


class Box:
    """Class docstring."""

    size = 3


def area(box,
         scale=1):
    """Function docstring,
    over two lines.
    """
    # inside a function
    text = """not a docstring,
    but a value"""
    return (box.size
            * scale), text
'''


def test_counts_code_lines_only():
    # import, class, size, the two-line def, the two-line text = ..., and
    # the two-line return: blanks, comments and the three docstrings drop out
    assert code_lines.code_lines(TOY) == 9
