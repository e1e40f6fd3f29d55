"""The measuring scripts under tests/: the code-line count that design
changes quote, and the process timer's argument check."""
import sys

import pytest

import count_code_lines
import time_processes

# (line, whether code_lines counts it)
SOURCE = [
    ('"""Module docstring,', False),
    ('over two lines."""', False),
    ("import os  # a code line with a trailing comment", True),
    ("", False),
    ("# a comment-only line", False),
    ("class Box:", True),
    ('    """Class docstring."""', False),
    ("", False),
    ("    def size(self):", True),
    ('        """Function docstring', False),
    ('        over two lines."""', False),
    ("        # an indented comment-only line", False),
    ('        "a string expression that is not a docstring"', True),
    ("        return 1", True),
    ("", False),
    ("async def run():", True),
    ('    """Async function docstring."""', False),
    ("    return os.sep", True),
    ("", False),
    ("LATER = 1", True),
    ('"""a module-level string after code, not a docstring"""', True),
]


def test_code_lines_skips_docstrings_blanks_and_comments():
    text = "\n".join(line for line, _ in SOURCE) + "\n"
    assert count_code_lines.code_lines(text) == sum(counted for _, counted in SOURCE) == 9


def test_code_lines_of_an_empty_module():
    assert count_code_lines.code_lines("") == 0
    assert count_code_lines.code_lines('"""Only a docstring."""\n') == 0


@pytest.mark.parametrize("reps", ["0", "-1"])
def test_time_processes_refuses_reps_below_one_before_any_process(monkeypatch, reps):
    def no_process(*args, **kwargs):
        raise AssertionError("a process was timed")

    monkeypatch.setattr(time_processes, "timed", no_process)
    monkeypatch.setattr(sys, "argv", ["time_processes.py", "OLD_SRC", "NEW_SRC",
                                      "--reps", reps])
    with pytest.raises(SystemExit) as exit_:
        time_processes.main()
    assert exit_.value.code == "error: --reps must be at least 1"
