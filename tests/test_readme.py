"""The README's Python example runs as written."""

import doctest
import pathlib

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_example_runs():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0 and result.failed == 0
