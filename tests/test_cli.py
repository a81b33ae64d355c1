"""Command-line surface: formats, labels, exit codes, provenance.

Everything runs in-process through main(argv) except three subprocess
checks: the `qwalk` console script declared in pyproject.toml is loaded
and run the way an installed wrapper runs it; only where the package is
installed, the real `qwalk` script is run from the interpreter's scripts
directory, and its output on the large frozen cases is compared with the
golden files; and the dense matrix's peak memory is read from a child of
its own.
"""

import importlib.metadata
import json
import math
import shutil
import subprocess
import sys
import sysconfig
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from qwalk import bounds, classical, cli, dihedral, sampling, spectra, walk

import test_golden


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_graph_edges_csv(capsys):
    code, out, _ = run_cli(capsys, ["graph", "--n", "3"])
    assert code == 0
    assert out.splitlines()[0].startswith("# qwalk graph")
    header, rows = parse_csv(out)
    assert header == ["src", "dst"]
    assert len(rows) == 9
    pairs = {(int(a), int(b)) for a, b in rows}
    assert (1, 2) in pairs
    assert (1, 4) in pairs
    assert all(1 <= a < b <= 6 for a, b in pairs)


@pytest.mark.parametrize("n", [3, 5, 7, 21, 101])
def test_graph_edges_are_adjacency_nonzeros(capsys, n):
    code, out, _ = run_cli(capsys, ["graph", "--n", str(n)])
    assert code == 0
    _, rows = parse_csv(out)
    i, j = np.nonzero(np.triu(dihedral.semi_cayley_adjacency(n)))
    assert [(int(a), int(b)) for a, b in rows] == list(zip((i + 1).tolist(), (j + 1).tolist()))


def test_graph_edges_in_small_memory(capsys):
    """The edge list comes from the neighbour rule, not the dense
    adjacency, which alone would take 64 MiB at n = 2001."""
    tracemalloc.start()
    try:
        code = cli.main(["graph", "--n", "2001"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= 4 * 2**20
    _, rows = parse_csv(capsys.readouterr().out)
    assert len(rows) == 3 * 2001


def test_graph_matrix_csv(capsys):
    code, out, _ = run_cli(capsys, ["graph", "--n", "5", "--format", "matrix-csv"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == [str(k) for k in range(1, 11)]
    mat = np.array([[int(v) for v in row] for row in rows])
    assert mat.shape == (10, 10)
    assert np.array_equal(mat, mat.T)
    assert np.all(mat.sum(axis=0) == 3)


def test_spectrum_csv(capsys):
    code, out, _ = run_cli(capsys, ["spectrum", "--n", "5"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["j", "m", "branch", "eigenvalue"]
    assert len(rows) == 10
    assert [row[0] for row in rows] == [str(j) for j in range(10)]
    for row in rows:
        m = int(row[1])
        branch = spectra.PLUS if row[2] == "+" else spectra.MINUS
        assert float(row[3]) == pytest.approx(spectra.eigenvalues(5, branch)[m], rel=1e-12)


def test_spectrum_json(capsys):
    code, out, _ = run_cli(capsys, ["spectrum", "--n", "3", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["eigenvalues"]) == 6
    assert payload["second_largest"] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert payload["config"]["subcommand"] == "spectrum"


def test_walk_csv(capsys):
    code, out, _ = run_cli(
        capsys, ["walk", "--n", "5", "--from", "1", "--to", "1", "--t-max", "10", "--steps", "20"]
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["t", "P_t"]
    assert len(rows) == 21
    assert float(rows[0][0]) == 0.0
    assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-12)
    assert float(rows[-1][0]) == pytest.approx(10.0, rel=1e-12)
    assert all(0.0 <= float(row[1]) <= 1.0 for row in rows)


def test_walk_long_grid_in_small_memory(capsys):
    """The time grid is evaluated BLOCK entries at a time: 20001
    times at n=401 stay far below the 246 MiB of one whole-grid batch."""
    n = 401
    tracemalloc.start()
    try:
        code = cli.main(["walk", "--n", str(n), "--t-max", "1e3", "--steps", "20000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= 32 * 2**20
    _, rows = parse_csv(capsys.readouterr().out)
    assert len(rows) == 20001
    # both sides of the first block boundary, against single-time rows
    step = dihedral.BLOCK // (2 * n)
    for k in (0, step - 1, step, 20000):
        t, p = (float(v) for v in rows[k])
        assert p == walk.probability_row(n, 0, t)[1]


def test_walk_json_and_svg(capsys):
    code, out, _ = run_cli(capsys, ["walk", "--n", "3", "--steps", "5", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["t"]) == len(payload["P_t"]) == 6
    code, out, _ = run_cli(capsys, ["walk", "--n", "3", "--steps", "5", "--format", "svg"])
    assert code == 0
    assert out.startswith("<svg")
    assert "polyline" in out
    assert out.rstrip().endswith("</svg>")


def test_average_profile_csv(capsys):
    code, out, _ = run_cli(capsys, ["average", "--n", "5", "--T", "200"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["delta", "eps", "g_value"]
    assert len(rows) == 10
    total = sum(float(row[2]) for row in rows)
    assert total == pytest.approx(1.0, abs=1e-9)
    assert {row[1] for row in rows} == {"1", "-1"}
    assert all(float(row[2]) >= 0.0 for row in rows)


def test_average_full_matrix(capsys):
    code, out, _ = run_cli(capsys, ["average", "--n", "3", "--T", "50", "--full-matrix"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == [str(k) for k in range(1, 7)]
    mat = np.array([[float(v) for v in row] for row in rows])
    assert mat.shape == (6, 6)
    assert np.allclose(mat.sum(axis=1), 1.0, atol=1e-9)
    assert np.min(mat) >= 0.0


@pytest.mark.parametrize("dust", [False, True])
def test_average_full_matrix_matches_per_entry_format(capsys, monkeypatch, dust):
    """The dense CSV gathers the 2n formatted profile values; it must equal
    formatting every dense entry on its own, clamp included."""
    n = 31
    avg = walk.averaged_matrix(n, 1e4)
    if dust:
        # negative rounding dust that the clamp turns into 0.0, and a
        # negative value outside the clamp's reach that is printed as is
        avg.values[0, 3] = -3e-17
        avg.values[1, 7] = -5e-10
        avg.values[1, 11] = -2e-9
        monkeypatch.setattr(walk, "averaged_matrix", lambda n, T: avg)
    code, out, _ = run_cli(capsys, ["average", "--n", str(n), "--T", "1e4", "--full-matrix"])
    assert code == 0
    header = ",".join(str(k) for k in range(1, 2 * n + 1))
    rows = [",".join(cli._fmt(cli._clamp_tiny_negative(v)) for v in row) for row in avg.to_dense()]
    assert out.split("\n", 1)[1] == "\n".join([header, *rows]) + "\n"
    # ints, numpy ints and bools keep the text they have always had
    values = (5, np.int64(5), True, False, None, 0.5, np.float64(0.25))
    assert [cli._fmt(v) for v in values] == ["5", "5", "true", "false", "", "0.5", "0.25"]
    assert ("-2e-09" in out) == dust
    assert "-3e-17" not in out and "-5e-10" not in out


def test_dense_matrix_streams_in_small_memory():
    """`average --full-matrix` writes its 2n rows as it gathers them, so at
    n = 1001 the child's peak stays within 10 MiB of its own peak after
    importing the CLI (3 MiB measured), where building the dense matrix and
    its 88 MB of text first rose 284 MiB.  The child reports its own
    ru_maxrss, so no other process counts."""
    child = (
        "import resource, sys\n"
        "from qwalk import cli\n"
        "base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "code = cli.main(['average', '--n', '1001', '--T', '1e4', '--full-matrix'])\n"
        "peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print(code, base, peak, file=sys.stderr)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", child], stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=120
    )
    code, base, peak = map(int, result.stderr.split())
    assert code == 0
    assert peak - base <= 10 * 1024, (base, peak)


def test_average_json(capsys):
    code, out, _ = run_cli(capsys, ["average", "--n", "7", "--T", "1000", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["same_block"]) == 7
    assert len(payload["cross_block"]) == 7
    assert payload["distance_to_limit"] >= 0.0
    assert payload["T"] == 1000.0


def test_limit_exact_strings(capsys):
    code, out, _ = run_cli(capsys, ["limit", "--n", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"]["diagonal"] == "5/18"
    assert payload["exact"]["offdiagonal"] == "1/9"
    assert payload["exact"]["row_sum"] == "1"
    assert payload["exact"]["min_entry"] == "1/9"
    assert payload["diagonal"] == pytest.approx(5.0 / 18.0, rel=1e-15)
    assert payload["offdiagonal"] == pytest.approx(1.0 / 9.0, rel=1e-15)


def test_classical_series_csv(capsys, monkeypatch):
    code, out, err = run_cli(capsys, ["classical", "--n", "5", "--t-max", "40"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["t", "half_induced_norm_distance", "d_P"]
    assert len(rows) == 41
    assert "half-induced distance" in err
    for row in rows:
        half = float(row[1])
        pair = float(row[2])
        # the pairwise column distance dominates the half induced norm
        assert pair >= half - 1e-12
    assert float(rows[0][1]) == pytest.approx(1.0 - 0.1, rel=1e-12)
    # profiles batched across several blocks print the same series
    monkeypatch.setattr(dihedral, "BLOCK", 40)
    assert run_cli(capsys, ["classical", "--n", "5", "--t-max", "40"]) == (code, out, err)
    # a one-point grid plots on a unit x range
    code, out, _ = run_cli(capsys, ["classical", "--n", "5", "--t-max", "0", "--format", "svg"])
    assert code == 0 and out.count("<polyline") == 2
    # a grid that ends before the crossing says so
    code, out, err = run_cli(capsys, ["classical", "--n", "5", "--t-max", "2"])
    assert code == 0 and len(parse_csv(out)[1]) == 3
    assert err.startswith("half-induced distance stays above 0.18393972058572117 up to t=2")


def test_classical_mix_json(capsys):
    code, out, _ = run_cli(capsys, ["classical-mix", "--n", "21"])
    assert code == 0
    payload = json.loads(out)
    assert payload["threshold_time"] == 167.0
    assert payload["norm_kind"] == "half_induced"
    oracle = classical.classical_mixing_time(21)
    assert payload["threshold_time"] == oracle.threshold_time
    code, out, _ = run_cli(capsys, ["classical-mix", "--n", "1001"])
    assert code == 0
    assert json.loads(out)["threshold_time"] == 378229.0


def test_mix_json(capsys):
    code, out, _ = run_cli(capsys, ["mix", "--n", "5"])
    assert code == 0
    payload = json.loads(out)
    assert payload["lower_bound_respected"] is True
    assert payload["quantum_threshold"] == pytest.approx(19.0, rel=5e-3)
    assert payload["speedup_ratio"] == pytest.approx(
        payload["classical_mixing_time"] / payload["quantum_threshold"], rel=1e-12
    )
    assert payload["budget_horizon"] == pytest.approx(bounds.budget_time(5), rel=1e-12)


def test_bounds_json_small_and_large(capsys):
    code, out, _ = run_cli(capsys, ["bounds", "--n", "21"])
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    assert "budget" not in payload
    code, out, _ = run_cli(capsys, ["bounds", "--n", "101"])
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    assert payload["budget"]["passed"] is True
    assert payload["budget"]["analytic_passed"] is True


def test_failed_checks_are_named_on_stderr(capsys, monkeypatch):
    # at n = 3 the su4 cap does not hold; stdout stays the json payload
    code, out, err = run_cli(capsys, ["bounds", "--n", "3"])
    payload = json.loads(out)
    failed = [name for name, ok in payload["bound_flags"].items() if not ok]
    assert code == 1 and failed == ["su4_cap"]
    assert err == "bounds check failed at n=3: su4_cap\n"
    monkeypatch.setattr(bounds.BudgetReport, "analytic_passed", property(lambda self: False))
    code, out, err = run_cli(capsys, ["bounds", "--n", "101"])
    assert code == 1 and json.loads(out)["budget"]["analytic_passed"] is False
    assert err == "bounds check failed at n=101: budget.analytic_passed\n"
    monkeypatch.setattr(spectra, "classical_lower_bound", lambda n, epsilon: 1e6)
    code, out, err = run_cli(capsys, ["mix", "--n", "5"])
    assert code == 1 and json.loads(out)["lower_bound_respected"] is False
    assert err.startswith("lower_bound_respected failed:") and "1000000.0" in err
    # speedup names the check and each n it failed at; stdout keeps its table
    code, out, err = run_cli(capsys, ["speedup", "--n-list", "5,9"])
    assert code == 1 and [row[0] for row in parse_csv(out)[1]] == ["5", "9"]
    failures = [line for line in err.splitlines() if "failed" in line]
    assert [line.split(":")[0] for line in failures] == [
        "lower_bound_respected failed at n=5",
        "lower_bound_respected failed at n=9",
    ]
    assert all("< floor(1000000.0)" in line for line in failures)
    # conjecture lists the n it failed at; stdout keeps its table
    monkeypatch.setattr(bounds, "conjecture_f", lambda n: 0.0)
    code, out, err = run_cli(capsys, ["conjecture", "--n-max", "11"])
    assert code == 1 and [row[-1] for row in parse_csv(out)[1]] == ["false"] * 4
    assert err == "conjecture check failed at n=[5, 7, 9, 11]\n"


def test_conjecture_csv_roundtrip(capsys):
    code, out, _ = run_cli(capsys, ["conjecture", "--n-max", "21"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["n", "p", "su3", "f_n", "bound_100n2ln5", "bound_100n2ln1", "holds_scaled", "pass"]
    assert [int(row[0]) for row in rows] == list(range(5, 22, 2))
    for row in rows:
        n = int(row[0])
        assert float(row[3]) == bounds.conjecture_f(n)
        assert float(row[2]) == bounds.su3_raw(n)
        assert row[7] == "true"
    by_n = {int(row[0]): row for row in rows}
    assert by_n[5][6] == "false"


def test_conjecture_residue_filter(capsys):
    code, out, _ = run_cli(capsys, ["conjecture", "--n-max", "21", "--residue", "1"])
    assert code == 0
    _, rows = parse_csv(out)
    ns = [int(row[0]) for row in rows]
    assert ns == [5, 9, 13, 17, 21]
    assert all(n % 4 == 1 for n in ns)


def test_conjecture_svg(capsys):
    code, out, _ = run_cli(capsys, ["conjecture", "--n-max", "21", "--format", "svg"])
    assert code == 0
    assert out.startswith("<svg")
    assert "f(n)" in out


def test_sample_csv_deterministic(capsys):
    argv = ["sample", "--n", "5", "--T", "100", "--T-prime", "4", "--trials", "400", "--seed", "11"]
    code, first, _ = run_cli(capsys, argv)
    assert code == 0
    code, second, _ = run_cli(capsys, argv)
    assert first == second
    header, rows = parse_csv(first)
    assert header == ["vertex", "count", "empirical_prob"]
    assert [int(row[0]) for row in rows] == list(range(1, 11))
    assert sum(int(row[1]) for row in rows) == 400
    summary_line = [line for line in first.splitlines() if line.startswith("# summary ")]
    assert len(summary_line) == 1
    assert first.splitlines()[-1] == summary_line[0]
    summary = json.loads(summary_line[0][len("# summary "):])
    assert 0.0 <= summary["tv_to_uniform"] <= 1.0
    assert summary["stderr_envelope"] == pytest.approx(math.sqrt(10.0 / 400.0), rel=1e-12)


def test_sample_json(capsys):
    code, out, _ = run_cli(
        capsys,
        ["sample", "--n", "5", "--T", "100", "--T-prime", "2", "--trials", "50", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert sum(payload["counts"]) == 50
    assert payload["trials"] == 50
    assert "tv_to_uniform" in payload


def test_figure_dataset(capsys):
    code, out, _ = run_cli(
        capsys,
        ["figure-1b", "--n", "7", "--to", "4", "--T-max", "1000", "--t-max", "20", "--points", "5"],
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["T", "quantum_avg", "t", "classical", "reference"]
    assert len(rows) == 5
    horizons = [float(row[0]) for row in rows]
    assert horizons == sorted(horizons)
    assert horizons[0] == pytest.approx(1.0)
    assert horizons[-1] == pytest.approx(1000.0)
    for row in rows:
        assert float(row[4]) == pytest.approx(1.0 / 14.0, rel=1e-12)
        assert 0.0 <= float(row[1]) <= 1.0
    code, out, _ = run_cli(
        capsys,
        ["figure-1b", "--n", "7", "--to", "4", "--T-max", "1000", "--t-max", "20",
         "--points", "5", "--format", "svg"],
    )
    assert code == 0
    assert out.startswith("<svg")


def test_figure_long_grid_in_small_memory(capsys):
    """Both columns walk the grid BLOCK profile entries at a time: 10000
    points at n=101 stay far below the 63 MiB of one whole-grid batch."""
    n = 101
    tracemalloc.start()
    try:
        code = cli.main(["figure-1b", "--n", str(n), "--points", "10000", "--t-max", "10000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= 24 * 2**20
    _, rows = parse_csv(capsys.readouterr().out)
    assert len(rows) == 10000
    # both sides of the first chunk boundary, against single-point calls;
    # the default pair (1, 15) is same-block at residue offset 14
    step = dihedral.BLOCK // (2 * n)
    for k in (0, step - 1, step, 9999):
        T, quantum, t, value = (float(v) for v in rows[k][:4])
        assert quantum == cli._clamp_tiny_negative(walk.averaged_matrix(n, T).entry(0, 14))
        assert value == cli._clamp_tiny_negative(classical.classical_profile(n, int(t))[0, 14])


def test_figure_kernel_called_once_per_chunk(capsys, monkeypatch):
    argv = ["figure-1b", "--n", "5", "--to", "4", "--T-max", "1000", "--t-max", "20", "--points", "12"]
    _, whole, _ = run_cli(capsys, argv)
    calls = []
    batch = walk.averaged_profiles
    monkeypatch.setattr(walk, "averaged_profiles", lambda n, Ts: calls.append(len(Ts)) or batch(n, Ts))
    monkeypatch.setattr(walk, "averaged_matrix", None)
    assert run_cli(capsys, argv)[1] == whole
    assert calls == [12]
    # 50-entry blocks cut the 12 points into chunks of 5 at n = 5
    calls.clear()
    monkeypatch.setattr(dihedral, "BLOCK", 50)
    assert run_cli(capsys, argv)[1] == whole
    assert calls == [5, 5, 2]


def test_speedup_table(capsys):
    code, out, err = run_cli(capsys, ["speedup", "--n-list", "5,21"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["n", "classical_tau", "classical_lower_bound", "quantum_T_star", "budget_horizon", "ratio"]
    assert len(rows) == 2
    assert [int(row[0]) for row in rows] == [5, 21]
    for row in rows:
        assert float(row[5]) == pytest.approx(float(row[1]) / float(row[3]), rel=1e-12)
    assert "n=5" in err and "n=21" in err


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "spectrum.csv"
    code, out, err = run_cli(capsys, ["spectrum", "--n", "3", "--out", str(target)])
    assert code == 0
    assert out == ""
    assert f"wrote {target}" in err
    header, rows = parse_csv(target.read_text())
    assert header == ["j", "m", "branch", "eigenvalue"]
    assert len(rows) == 6


def test_provenance_line_everywhere(capsys):
    cases = [
        ["graph", "--n", "3"],
        ["spectrum", "--n", "3"],
        ["walk", "--n", "3", "--steps", "4"],
        ["average", "--n", "3", "--T", "10"],
        ["classical", "--n", "3", "--t-max", "5"],
        ["conjecture", "--n-max", "7"],
        ["sample", "--n", "3", "--T", "10", "--T-prime", "1", "--trials", "10"],
        ["figure-1b", "--n", "3", "--to", "2", "--T-max", "100", "--t-max", "5", "--points", "3"],
        ["speedup", "--n-list", "3"],
    ]
    for argv in cases:
        code, out, _ = run_cli(capsys, argv)
        assert code == 0, argv
        first = out.splitlines()[0]
        assert first.startswith(f"# qwalk {argv[0]}"), argv


@pytest.mark.parametrize(
    "command",
    ["graph", "spectrum", "walk", "average", "limit", "classical", "classical-mix", "mix", "bounds", "sample"],
)
def test_n_is_required(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([command])
    assert exc.value.code == 2
    assert "the following arguments are required: --n" in capsys.readouterr().err


def test_figure_1b_defaults_n_to_101(capsys):
    code, out, _ = run_cli(capsys, ["figure-1b", "--T-max", "100", "--t-max", "5", "--points", "3"])
    assert code == 0
    assert out.splitlines()[0].startswith("# qwalk figure-1b n=101 ")


def test_main_shares_one_parser(capsys, monkeypatch):
    # main builds its parser once per process; consecutive calls, with
    # different subcommands and with a flag set then left out, print what a
    # freshly built parser gives for each
    cases = [
        ["average", "--n", "5", "--T", "3", "--full-matrix"],
        ["spectrum", "--n", "3", "--format", "json"],
        ["average", "--n", "5", "--T", "3"],
    ]
    shared = [run_cli(capsys, argv) for argv in cases]
    assert cli.build_parser() is cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = [run_cli(capsys, argv) for argv in cases]
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 0]
    assert shared[0][1] != shared[2][1]


@pytest.mark.parametrize(
    "argv,message",
    [
        # figure-1b's --to defaults to 15, beyond n = 7's 14 vertices
        (["figure-1b", "--n", "7"], "--to 15 out of range [1, 14]"),
        (["figure-1b", "--n", "5", "--from", "11", "--to", "2"], "--from 11 out of range [1, 10]"),
        (["walk", "--n", "5", "--from", "0"], "--from 0 out of range [1, 10]"),
        (["walk", "--n", "5", "--to", "11"], "--to 11 out of range [1, 10]"),
        (["sample", "--n", "5", "--start", "11", "--T", "10", "--T-prime", "1"], "--start 11 out of range [1, 10]"),
    ],
    ids=["figure-1b-default-to", "figure-1b-from", "walk-from", "walk-to", "sample-start"],
)
def test_vertex_range_error_names_the_option(capsys, argv, message):
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and message in err


def test_error_exit_codes(capsys, monkeypatch):
    code, _, err = run_cli(capsys, ["spectrum", "--n", "4"])
    assert code == 2
    assert err.startswith("error:")
    code, _, err = run_cli(capsys, ["walk", "--n", "5", "--from", "0"])
    assert code == 2
    code, _, err = run_cli(capsys, ["walk", "--n", "5", "--t-max", "-1"])
    assert code == 2
    code, _, err = run_cli(capsys, ["conjecture", "--n-max", "3"])
    assert code == 2
    code, _, err = run_cli(capsys, ["speedup", "--n-list", "5,abc"])
    assert code == 2
    for argv, message in (
        (["walk", "--n", "5", "--steps", "0"], "--steps must be at least 1"),
        (["classical", "--n", "5", "--t-max", "-1"], "--t-max must be nonnegative"),
        (["figure-1b", "--n", "5", "--to", "2", "--points", "1"], "--points must be at least 2"),
        (["speedup", "--n-list", ","], "--n-list is empty"),
        (["conjecture", "--n-max", "5", "--residue", "3"], "--n-max 5 with --residue 3"),
        (["conjecture", "--n-max", "6", "--residue", "3", "--format", "svg"], "--n-max 6 with --residue 3"),
    ):
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error:") and message in err, argv
    code, _, err = run_cli(capsys, ["average", "--n", "5", "--T", "0"])
    assert code == 2
    for argv in (
        ["average", "--n", "5", "--T", "inf"],
        ["average", "--n", "5", "--T", "nan"],
        ["walk", "--n", "5", "--t-max", "nan"],
        ["walk", "--n", "5", "--t-max", "inf"],
        ["figure-1b", "--n", "5", "--to", "2", "--T-max", "inf"],
        ["figure-1b", "--n", "5", "--to", "2", "--T-max", "nan"],
        ["sample", "--n", "5", "--T", "inf", "--T-prime", "1"],
        # finite horizons whose kernel phase 2T overflows
        ["average", "--n", "7", "--T", "1.7e308"],
        ["average", "--n", "7", "--T", "9.5e307"],
        ["figure-1b", "--n", "5", "--to", "3", "--T-max", "1e308", "--points", "3"],
        ["sample", "--n", "7", "--T", "1.7e308", "--T-prime", "1"],
        # a positive horizon below 1/float_max, whose 1/T overflows in
        # the averaged kernel; the sampler shares the horizon contract and
        # refuses such a horizon too
        ["average", "--n", "7", "--T", "1e-320"],
        ["sample", "--n", "7", "--T", "5.5e-309", "--T-prime", "1"],
        # a finite --t-max whose grid t_max * k overflows
        ["walk", "--n", "7", "--t-max", "1e308", "--steps", "2"],
    ):
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error:") and "finite" in err, argv
    assert "--t-max" in err
    # n = 0 must be rejected before the block size is divided by it
    code, out, err = run_cli(capsys, ["classical", "--n", "0"])
    assert (code, out) == (2, "")
    assert "n must be at least 3" in err
    # every subcommand with --n checks it, including those whose
    # internals never would
    for argv in (
        ["walk", "--n", "4"],
        ["walk", "--n", "1"],
        ["sample", "--n", "4", "--start", "9", "--T", "10", "--T-prime", "1"],
    ):
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error:") and "n must be" in err, argv
    for epsilon in ("nan", "inf", "-1", "0"):
        code, out, err = run_cli(capsys, ["classical", "--n", "5", "--t-max", "2", "--epsilon", epsilon])
        assert (code, out) == (2, ""), epsilon
        assert err.startswith("error:") and "epsilon must lie in (0, 1)" in err, epsilon
    # mix and speedup reject an epsilon outside (0, 1/2) before either search
    def no_search(*args, **kwargs):
        raise AssertionError("threshold search ran for a rejected epsilon")

    with monkeypatch.context() as patch:
        patch.setattr(bounds, "quantum_mixing_threshold", no_search)
        patch.setattr(classical, "classical_mixing_time", no_search)
        for argv in (["mix", "--n", "101"], ["speedup", "--n-list", "101,201"]):
            code, out, err = run_cli(capsys, argv + ["--epsilon", "0.7"])
            assert (code, out) == (2, ""), argv
            assert err.startswith("error:") and "epsilon must lie in (0, 1/2)" in err, argv
    code, out, err = run_cli(capsys, ["sample", "--n", "5", "--T", "10", "--T-prime", "1", "--seed", "-1"])
    assert (code, out) == (2, "")
    assert "seed must be a nonnegative integer" in err
    # the dense matrix has no json form; asking for one is an error, not csv
    code, out, err = run_cli(capsys, ["average", "--n", "5", "--T", "10", "--full-matrix", "--format", "json"])
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "json" in err
    # an --out path that cannot be opened is bad input, not a traceback
    code, out, err = run_cli(capsys, ["limit", "--n", "3", "--out", "/nonexistent/dir/x"])
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "/nonexistent/dir/x" in err
    # a numerical guard tripping inside a command is exit 1, with no output
    monkeypatch.setattr(sampling, "probability_profiles", lambda n, ts: np.full((len(ts), 2, n), np.nan))
    code, out, err = run_cli(capsys, ["sample", "--n", "5", "--T", "10", "--T-prime", "1", "--trials", "3"])
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "drifted" in err
    with pytest.raises(SystemExit):
        cli.main(["not-a-command"])


def declared_script_target():
    """The `qwalk` target under [project.scripts], as pip's wrapper would call it.

    Python 3.10 has no tomllib; there the installed distribution's
    console_scripts metadata, written from the same table, is read instead.
    """
    try:
        import tomllib
    except ModuleNotFoundError:
        (entry,) = importlib.metadata.entry_points(group="console_scripts", name="qwalk")
        return entry.value
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["qwalk"]


def test_horizon_just_below_the_float_limit_runs_clean(capsys):
    # 8.9e307 keeps 2T finite and 1e-300 keeps 1/T finite; any
    # RuntimeWarning (such as an overflow inside the kernel) is raised as
    # an error here
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv in (
            ["average", "--n", "7", "--T", "8.9e307"],
            ["average", "--n", "7", "--T", "1e-300"],
            ["sample", "--n", "7", "--T", "1e-300", "--T-prime", "2", "--trials", "50"],
            ["figure-1b", "--n", "5", "--to", "3", "--T-max", "8.9e307", "--points", "3"],
            ["sample", "--n", "7", "--T", "8.9e307", "--T-prime", "2", "--trials", "50"],
        ):
            code, out, err = run_cli(capsys, argv)
            assert code == 0, (argv, err)
            if argv[0] == "average":
                _, rows = parse_csv(out)
                assert math.isclose(sum(float(row[2]) for row in rows), 1.0, abs_tol=1e-9)


def test_installed_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "qwalk.cli", "limit", "--n", "3"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["exact"]["diagonal"] == "5/18"
    target = declared_script_target()
    assert target == "qwalk.cli:main"
    entry = importlib.metadata.EntryPoint(name="qwalk", value=target, group="console_scripts")
    assert entry.load() is cli.main
    module, func = target.split(":")
    wrapper = f"import sys; from {module} import {func}; sys.exit({func}())"
    script = subprocess.run(
        [sys.executable, "-c", wrapper, "--help"], capture_output=True, text=True, timeout=60
    )
    assert script.returncode == 0
    assert "usage: qwalk" in script.stdout


INSTALLED_SCRIPT = shutil.which("qwalk", path=sysconfig.get_path("scripts"))


# the frozen cases at n >= 301, where P_t and the averaged kernel run on
# short cycles and the gap grids span several blocks
LARGE_GOLDEN_CASES = (
    "walk-cone", "walk-prime-far", "figure-1b-large", "bounds-2001", "sample-1009", "conjecture-2011", "average-301",
)


@pytest.mark.skipif(
    INSTALLED_SCRIPT is None,
    reason="no qwalk script in this interpreter's scripts directory (package not installed)",
)
@pytest.mark.parametrize("case", LARGE_GOLDEN_CASES)
def test_installed_script_on_path(case):
    script = subprocess.run([INSTALLED_SCRIPT, "--help"], capture_output=True, text=True, timeout=60)
    assert script.returncode == 0
    assert "usage: qwalk" in script.stdout
    result = subprocess.run(
        [INSTALLED_SCRIPT, "limit", "--n", "3"], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["exact"]["diagonal"] == "5/18"
    # the installed script prints what the frozen output holds, not only exit 0
    result = subprocess.run(
        [INSTALLED_SCRIPT, *test_golden.CASES[case]], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0
    expected = (test_golden.GOLDEN_DIR / f"{case}.txt").read_text()
    assert test_golden.mismatches(expected, result.stdout) == []

