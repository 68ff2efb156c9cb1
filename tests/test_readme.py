"""The README's code runs as written."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def first_python_block(section):
    """The first ```python block under the README heading `section`."""
    text = README.read_text(encoding="utf-8")
    body = text.split(f"\n{section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", body, re.S).group(1)


def test_library_use_example_runs(capsys):
    """The Library use example builds a hover run and prints the final
    distance from the target, a finite number of metres."""
    exec(compile(first_python_block("## Library use"), str(README), "exec"),
         {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 1
    assert math.isfinite(float(printed[0]))
    assert 0.0 <= float(printed[0]) < 0.05
