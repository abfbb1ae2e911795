"""``tools/source_size.py``, which CI's "Source size" step runs, counts raw
lines and code lines: not blank, not comment-only, not in a docstring."""

import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "source_size.py"

MODULE = '''"""A module docstring
over two lines."""

# a comment-only line
import math


def root(x):
    """A function docstring."""
    return math.sqrt(x)  # a trailing comment does not make a line code
'''


def source_size(*args):
    return subprocess.run([sys.executable, str(TOOL), *args], capture_output=True, text=True,
                          check=True).stdout


def test_only_code_lines_count_as_code(tmp_path):
    (tmp_path / "module.py").write_text(MODULE)  # 10 lines: import, def and return are code
    (tmp_path / "split.py").write_text("x = (1,\n     2)\n\n")  # 3 lines, 2 of them code
    (tmp_path / "notes.txt").write_text("only *.py files count\n")
    assert source_size(str(tmp_path)) == f"{tmp_path}/*.py: 13 lines, 5 code lines\n"


def test_the_default_is_the_package():
    assert re.fullmatch(r"src/polartrack/\*\.py: \d+ lines, \d+ code lines\n", source_size())
