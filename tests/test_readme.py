"""README's "Quick start" block runs and prints what its comments state."""

import re
from fractions import Fraction
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_block():
    match = re.search(r"^## Quick start\n\n```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert match, "README has no Python block under '## Quick start'"
    return match.group(1)


def test_quick_start_prints_what_its_comments_state(capsys):
    exec(quick_start_block(), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    assert float(lines[0]) < 0.01
    Fraction(lines[1])
    assert lines[2] == "167.0"
    assert float(lines[3]) == pytest.approx(33.5, rel=1e-3)
    assert lines[4] == "True"
