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

from qwalk import bounds, cli, dihedral, walk

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
    # n >= 250, where P_t and the averaged kernel run on short cycles and
    # the folded gap grid spans several blocks
    "walk-cone": ["walk", "--n", "4001", "--from", "1", "--to", "3", "--t-max", "400", "--steps", "16"],
    "walk-prime-far": ["walk", "--n", "4007", "--from", "1", "--to", "4008", "--t-max", "4000", "--steps", "4"],
    # a flip-1 cell inside the cone: 15 of its 17 times run on short cycles,
    # t = 375 and 400 on n, past the cone edge at 364.8
    "walk-cone-cross": ["walk", "--n", "4001", "--from", "1", "--to", "4003", "--t-max", "400", "--steps", "16"],
    "figure-1b-large": [
        "figure-1b", "--n", "4001", "--to", "3", "--T-max", "1e4", "--t-max", "30", "--points", "9",
    ],
    "bounds-2001": ["bounds", "--n", "2001"],
    # the benchmark's CLI sampler run: 256 runs of 780 pairs at small n
    "sample-21": [
        "sample", "--n", "21", "--T", "1e3", "--T-prime", "10", "--trials", "20000", "--seed", "5", "--format", "json",
    ],
    # runs of 162 pairs, each summed by np.cumsum, and every time on n
    "sample-101": [
        "sample", "--n", "101", "--T", "1e3", "--T-prime", "8", "--trials", "4000", "--seed", "2", "--format", "json",
    ],
    "sample-1009": [
        "sample", "--n", "1009", "--T", "100", "--T-prime", "4", "--trials", "200", "--seed", "3", "--format", "json",
    ],
    "conjecture-2011": ["conjecture", "--n-max", "2011", "--residue", "1"],
    "average-301": ["average", "--n", "301", "--T", "30", "--format", "json"],
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


def recorded_paths(monkeypatch, block):
    """Run every case at dihedral.BLOCK = block under recording wrappers:
    (kind, m, n) for each profile batch `light_cone` hands out, kind "P_t"
    or "K_T", and (caller, blocks) for each sweep of `folded_gap_blocks`,
    caller "kernel" or "bounds"."""
    monkeypatch.setattr(dihedral, "BLOCK", block)
    cones, sweeps = [], []
    light_cone = walk.light_cone

    def recording_cone(n, times, profiles):
        kind = "K_T" if profiles is walk.averaged_kernel else "P_t"

        def recording(m, ts):
            cones.append((kind, m, n))
            return profiles(m, ts)

        return light_cone(n, times, recording)

    def recording_sweep(caller, sweep):
        def run(n):
            count = 0
            for block in sweep(n):
                count += 1
                yield block
            sweeps.append((caller, count))

        return run

    monkeypatch.setattr(walk, "light_cone", recording_cone)
    monkeypatch.setattr(walk, "folded_gap_blocks", recording_sweep("kernel", walk.folded_gap_blocks))
    monkeypatch.setattr(bounds, "folded_gap_blocks", recording_sweep("bounds", bounds.folded_gap_blocks))
    # `_gap_rows` keeps the last n's rows, so a cached n would sweep nothing
    bounds._gap_rows.cache_clear()
    for name, argv in CASES.items():
        assert run_case(argv)[0] == 0, name
    bounds._gap_rows.cache_clear()
    return cones, sweeps


@pytest.mark.parametrize("block", [2**16, 2**18])
def test_cases_reach_short_cycles_and_blocked_sweeps(monkeypatch, block):
    # P_t and the averaged kernel each run on a short cycle in some case,
    # and the kernel and the gap sums each sweep more than one block, so
    # the frozen outputs pin the fast paths and not only the n <= 101 ones
    cones, sweeps = recorded_paths(monkeypatch, block)
    for kind in ("P_t", "K_T"):
        assert any(k == kind and m < n for k, m, n in cones), kind
    for caller in ("kernel", "bounds"):
        assert any(c == caller and count > 1 for c, count in sweeps), caller


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
