"""README's "Quick start" block runs and prints what its comments state,
and its "Command line" examples parse."""

import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from qwalk import cli

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


def command_line_examples():
    match = re.search(r"^## Command line\n.*?```sh\n(.*?)^```", README.read_text(), re.S | re.M)
    assert match, "README has no sh block under '## Command line'"
    return [shlex.split(line, comments=True) for line in match.group(1).splitlines() if line.startswith("qwalk ")]


def test_command_line_examples_parse():
    examples = command_line_examples()
    assert len(examples) == 14
    parser = cli.build_parser()
    for argv in examples:
        args = parser.parse_args(argv[1:])
        assert args.command == argv[1]
