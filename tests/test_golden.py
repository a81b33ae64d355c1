"""Frozen CLI outputs: small-n commands covering every output format.

Each case's stdout is compared with `tests/golden/<name>.txt`.  Text
between numbers must match exactly; numbers must agree to a relative
1e-12 or an absolute 1e-15, so a refactor may reorder floating-point
work but may not change what the CLI reports.

When an output is meant to change, regenerate with
    PYTHONPATH=src python tests/test_golden.py
It rewrites only the files that are missing or fail the comparison, so
last-digit drift from another numpy build does not touch the files that
still pass.
"""

import math
import re
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from qwalk import cli

GOLDEN_DIR = Path(__file__).parent / "golden"

CASES = {
    "graph": ["graph", "--n", "5"],
    "spectrum": ["spectrum", "--n", "7", "--format", "json"],
    "walk": ["walk", "--n", "7", "--from", "1", "--to", "9", "--t-max", "12", "--steps", "24"],
    "average": ["average", "--n", "7", "--T", "250", "--full-matrix"],
    "limit": ["limit", "--n", "9"],
    "classical": ["classical", "--n", "9", "--t-max", "40"],
    "classical-mix": ["classical-mix", "--n", "9", "--norm", "column_pairs"],
    "mix": ["mix", "--n", "9"],
    "bounds": ["bounds", "--n", "101"],
    "conjecture": ["conjecture", "--n-max", "41"],
    "sample": ["sample", "--n", "7", "--T", "300", "--T-prime", "5", "--trials", "400", "--seed", "11"],
    "figure-1b": [
        "figure-1b", "--n", "9", "--to", "12", "--T-max", "1e4", "--t-max", "30", "--points", "9",
    ],
    "speedup": ["speedup", "--n-list", "5,9", "--format", "json"],
    # the other formats of each subcommand, on the same arguments
    "graph-matrix": ["graph", "--n", "5", "--format", "matrix-csv"],
    "spectrum-csv": ["spectrum", "--n", "7"],
    "walk-json": [
        "walk", "--n", "7", "--from", "1", "--to", "9", "--t-max", "12", "--steps", "24", "--format", "json",
    ],
    "walk-svg": [
        "walk", "--n", "7", "--from", "1", "--to", "9", "--t-max", "12", "--steps", "24", "--format", "svg",
    ],
    "average-profile": ["average", "--n", "7", "--T", "250"],
    "average-json": ["average", "--n", "7", "--T", "250", "--format", "json"],
    "classical-svg": ["classical", "--n", "9", "--t-max", "40", "--format", "svg"],
    "conjecture-svg": ["conjecture", "--n-max", "41", "--format", "svg"],
    "sample-json": [
        "sample", "--n", "7", "--T", "300", "--T-prime", "5", "--trials", "400", "--seed", "11", "--format", "json",
    ],
    "figure-1b-svg": [
        "figure-1b", "--n", "9", "--to", "12", "--T-max", "1e4", "--t-max", "30", "--points", "9", "--format", "svg",
    ],
    "speedup-csv": ["speedup", "--n-list", "5,9"],
}

NUMBER = re.compile(r"([-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)")
REL_TOL = 1e-12
ABS_TOL = 1e-15


def run_case(argv):
    out = StringIO()
    with redirect_stdout(out), redirect_stderr(StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


def mismatches(expected, actual):
    """Token-level differences: odd split positions hold numbers."""
    want = NUMBER.split(expected)
    got = NUMBER.split(actual)
    if len(want) != len(got):
        return [f"token count {len(got)} != {len(want)}"]
    bad = []
    for k, (a, b) in enumerate(zip(want, got)):
        if k % 2 == 0:
            if a != b:
                bad.append(f"text {b!r} != {a!r}")
        elif not math.isclose(float(a), float(b), rel_tol=REL_TOL, abs_tol=ABS_TOL):
            bad.append(f"number {b} != {a}")
    return bad


def regenerate(names, golden_dir=GOLDEN_DIR):
    """Rewrite each named case's file that is missing or fails
    `mismatches`; return the names written."""
    written = []
    for name in names:
        code, text = run_case(CASES[name])
        if code != 0:
            raise RuntimeError(f"{name}: exit code {code}")
        path = golden_dir / f"{name}.txt"
        if not path.exists() or mismatches(path.read_text(), text):
            path.write_text(text)
            written.append(name)
    return written


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    code, out = run_case(CASES[name])
    assert code == 0
    expected = (GOLDEN_DIR / f"{name}.txt").read_text()
    assert mismatches(expected, out) == []


def test_numeric_tolerance_is_enforced():
    assert mismatches("x=1.0,2", "x=1.0,2") == []
    assert mismatches("x=1.0", "x=1.0000000000001") == []
    assert mismatches("x=1.0", "x=1.000001") != []
    assert mismatches("x=1e-17", "x=-5e-17") == []
    assert mismatches("x=1", "y=1") != []


def test_regeneration_rewrites_only_failing_files(tmp_path):
    # a last-digit change the comparison accepts, a changed output and a
    # missing file: only the last two are written
    tokens = NUMBER.split((GOLDEN_DIR / "limit.txt").read_text())
    k = next(k for k in range(1, len(tokens), 2) if "." in tokens[k] and float(tokens[k]))
    tokens[k] = repr(float(tokens[k]) * (1 + 1e-14))
    drifted = "".join(tokens)
    assert drifted != (GOLDEN_DIR / "limit.txt").read_text()
    (tmp_path / "limit.txt").write_text(drifted)
    (tmp_path / "graph.txt").write_text("stale\n")
    assert regenerate(["limit", "graph", "spectrum"], tmp_path) == ["graph", "spectrum"]
    assert (tmp_path / "limit.txt").read_text() == drifted
    for name in ("graph", "spectrum"):
        assert (tmp_path / f"{name}.txt").read_text() == (GOLDEN_DIR / f"{name}.txt").read_text()


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for case in regenerate(CASES):
        print(f"wrote {case}.txt")
