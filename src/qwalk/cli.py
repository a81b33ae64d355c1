"""Command-line surface for the walk package.

All vertex labels on this surface are 1-based; internal indices are
0-based, and the conversion lives in exactly one pair of helpers below.
Each subcommand returns an `Output`, and `main` alone renders the format
asked for and writes it to stdout (or --out).  Diagnostics go to stderr,
and the exit code is 0 only when every assertion the subcommand makes
holds.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import bounds, classical, dihedral, sampling, spectra, walk


def vertex_to_internal(label, n, option) -> int:
    """1-based CLI label to 0-based internal index; an error names the
    option the label came from, as its value may be a default."""
    if not 1 <= label <= 2 * n:
        raise ValueError(f"{option} {label} out of range [1, {2 * n}]")
    return label - 1


def vertex_to_label(i) -> int:
    return int(i) + 1


def _clamp_tiny_negative(x) -> float:
    """Zero out negative floating-point dust in emitted probabilities."""
    x = float(x)
    if -1e-9 < x < 0.0:
        return 0.0
    return x


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, float):
        # plain-float repr round-trips and avoids numpy scalar wrappers
        return repr(float(value))
    return str(value)


# parsed attributes that are plumbing, not settings of the run
_NOT_SETTINGS = ("command", "handler", "out")


def _settings(args) -> dict:
    """Every option the subcommand ran with, in declaration order."""
    return {
        key: value
        for key, value in vars(args).items()
        if key not in _NOT_SETTINGS and value is not None
    }


def _provenance(args) -> str:
    parts = [f"# qwalk {args.command}"]
    parts += [f"{key}={value}" for key, value in _settings(args).items()]
    return " ".join(parts)


def _config_dict(args) -> dict:
    out = {"subcommand": args.command, **_settings(args)}
    if args.out:
        out["out"] = args.out
    return out


@dataclass
class Output:
    """What a subcommand computed, in the shapes its formats need: the csv
    header and rows (a row may be an already-joined line), the json
    payload, the `_svg_plot` keyword arguments and the exit code.  `main`
    renders the one format asked for."""

    header: list = None
    rows: object = ()
    payload: dict = None
    plot: dict = None
    code: int = 0


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


def _svg_plot(series, title, x_label, y_label, log_x=False, log_y=False) -> str:
    """Minimal standalone polyline plot; no plotting dependency."""
    width, height, margin = 720, 460, 64

    def fx(v):
        return math.log10(v) if log_x else v

    def fy(v):
        return math.log10(v) if log_y else v

    cleaned = []
    for label, pts in series:
        keep = [(x, y) for x, y in pts if (not log_x or x > 0) and (not log_y or y > 0)]
        if keep:
            cleaned.append((label, keep))
    if not cleaned:
        raise ValueError("no plottable points after log filtering")
    xs = [fx(x) for _, pts in cleaned for x, _ in pts]
    ys = [fy(y) for _, pts in cleaned for _, y in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def sx(v):
        return margin + (fx(v) - x0) / (x1 - x0) * (width - 2 * margin)

    def sy(v):
        return height - margin - (fy(v) - y0) / (y1 - y0) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}" '
        f'height="{height - 2 * margin}" fill="none" stroke="#444"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" font-size="15">{title}</text>',
        f'<text x="{width / 2:.1f}" y="{height - 16}" text-anchor="middle" font-size="12">{x_label}</text>',
        f'<text x="18" y="{height / 2:.1f}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 18 {height / 2:.1f})">{y_label}</text>',
        f'<text x="{margin}" y="{height - margin + 16}" font-size="11">{x0:.4g}{" (log10)" if log_x else ""}</text>',
        f'<text x="{width - margin}" y="{height - margin + 16}" text-anchor="end" font-size="11">{x1:.4g}</text>',
        f'<text x="{margin - 4}" y="{height - margin}" text-anchor="end" font-size="11">{y0:.4g}</text>',
        f'<text x="{margin - 4}" y="{margin + 10}" text-anchor="end" font-size="11">'
        f'{y1:.4g}{" (log10)" if log_y else ""}</text>',
    ]
    for idx, (label, pts) in enumerate(cleaned):
        color = _SVG_COLORS[idx % len(_SVG_COLORS)]
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(
            f'<text x="{margin + 8}" y="{margin + 18 + 16 * idx}" font-size="12" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _dense_table(n, values, fmt=_fmt) -> Output:
    """The 2n x 2n matrix of a (2, n) profile as csv.  Every entry is one of
    the 2n profile values, so each is formatted once, and each row is
    gathered from the formatted profile as it is written: the dense matrix
    is never built."""
    cells = np.array([fmt(v) for v in values.ravel().tolist()], dtype=object).reshape(2, n)
    header = [str(vertex_to_label(k)) for k in range(2 * n)]
    return Output(header, (",".join(dihedral.pair_values_row(n, cells, i).tolist()) for i in range(2 * n)))


def _cmd_graph(args) -> Output:
    n = args.n
    if args.format == "matrix-csv":
        return _dense_table(n, dihedral.adjacency_profile(n))
    flip, offset = np.nonzero(dihedral.adjacency_profile(n))
    i = np.arange(2 * n)[:, None]
    dst = dihedral.cell_vertex(n, i, flip, offset)
    edges = sorted((a + 1, b + 1) for a, b in zip(np.repeat(i, len(flip)).tolist(), dst.ravel().tolist()) if a < b)
    return Output(["src", "dst"], edges)


def _cmd_spectrum(args) -> Output:
    n = args.n
    # full_spectrum lists the "+" branch by mode, then the "-" branch
    rows = [(j, j % n, "+" if j < n else "-", v) for j, v in enumerate(spectra.full_spectrum(n).tolist())]
    payload = {
        "n": n,
        "eigenvalues": [{"j": j, "m": m, "branch": tag, "eigenvalue": val} for j, m, tag, val in rows],
        "second_largest": spectra.second_largest_eigenvalue(n),
    }
    return Output(["j", "m", "branch", "eigenvalue"], rows, payload)


def _grid_profiles(profiles, n, grid):
    """Each (2, n) profile of a time grid, from `profiles(n, chunk)` calls on
    chunks of BLOCK profile entries, so memory stays O(n * chunk)."""
    for r in dihedral.blocks(len(grid), 2 * n):
        yield from profiles(n, grid[r])


def _cmd_walk(args) -> Output:
    n = args.n
    cell = dihedral.pair_cell(n, vertex_to_internal(args.src, n, "--from"), vertex_to_internal(args.dst, n, "--to"))
    if args.steps < 1:
        raise ValueError(f"--steps must be at least 1, got {args.steps}")
    if not (args.t_max > 0 and math.isfinite(args.t_max * args.steps)):
        raise ValueError(f"--t-max must be positive with --t-max * --steps finite, got {args.t_max}")
    ts = [args.t_max * k / args.steps for k in range(args.steps + 1)]
    probs = [float(p[cell]) for p in _grid_profiles(walk.probability_profiles, n, ts)]
    points = list(zip(ts, probs))
    plot = {
        "series": [(f"P_t({args.src},{args.dst})", points)],
        "title": f"walk transition probability, n={n}",
        "x_label": "t",
        "y_label": "probability",
    }
    return Output(["t", "P_t"], points, {"n": n, "t": ts, "P_t": probs}, plot)


def _cmd_average(args) -> Output:
    n = args.n
    avg = walk.averaged_matrix(n, args.T)
    if args.full_matrix:
        return _dense_table(n, avg.values, lambda v: _fmt(_clamp_tiny_negative(v)))
    same, cross = ([_clamp_tiny_negative(v) for v in values] for values in avg.values.tolist())
    payload = {
        "n": n,
        "T": args.T,
        "same_block": same,
        "cross_block": cross,
        "distance_to_limit": avg.distance_to_limit(),
    }
    rows = [(delta, 1, v) for delta, v in enumerate(same)] + [(delta, -1, v) for delta, v in enumerate(cross)]
    return Output(["delta", "eps", "g_value"], rows, payload)


def _cmd_limit(args) -> Output:
    pi = walk.limiting_distribution(args.n)
    exact = dict(diagonal=pi.diagonal, offdiagonal=pi.off_diagonal, min_entry=pi.min_entry(), row_sum=pi.row_sum())
    floats = {key: float(value) for key, value in exact.items()}
    return Output(payload={"n": args.n, **floats, "exact": {key: str(value) for key, value in exact.items()}})


def _cmd_classical(args) -> Output:
    n = args.n
    if args.t_max < 0:
        raise ValueError(f"--t-max must be nonnegative, got {args.t_max}")
    spectra.check_mixing_epsilon(args.epsilon)
    ts = list(range(args.t_max + 1))
    halves = []
    pair_dists = []
    for profile in _grid_profiles(classical.classical_profiles, n, ts):
        halves.append(float(classical.half_uniform_distances(n, profile)))
        pair_dists.append(classical.profile_column_distance(n, profile))
    crossing = next((t for t, d in zip(ts, halves) if d <= args.epsilon), None)
    if crossing is None:
        print(f"half-induced distance stays above {args.epsilon} up to t={args.t_max}", file=sys.stderr)
    else:
        print(f"half-induced distance reaches {args.epsilon} at t={crossing}", file=sys.stderr)
    plot = {
        "series": [("half induced norm", list(zip(ts, halves))), ("d_P", list(zip(ts, pair_dists)))],
        "title": f"classical walk distance to uniform, n={n}",
        "x_label": "t (steps)",
        "y_label": "distance",
    }
    return Output(["t", "half_induced_norm_distance", "d_P"], zip(ts, halves, pair_dists), plot=plot)


def _cmd_classical_mix(args) -> Output:
    report = classical.classical_mixing_time(args.n, _epsilon(args), args.norm)
    return Output(payload={"n": args.n, **report.to_dict()})


def _epsilon(args) -> float:
    return args.epsilon if args.epsilon is not None else spectra.DEFAULT_EPSILON


def _mixing_comparison(n, epsilon) -> tuple:
    """(classical tau, its spectral lower bound, quantum T*, budget horizon,
    tau / T*, whether tau respects the lower bound) at one n."""
    spectra.check_epsilon(epsilon)
    quantum = bounds.quantum_mixing_threshold(n, epsilon).threshold_time
    tau = classical.classical_mixing_time(n, epsilon).threshold_time
    lower = spectra.classical_lower_bound(n, epsilon)
    return tau, lower, quantum, bounds.budget_time(n), tau / quantum, bool(tau >= math.floor(lower))


def _cmd_mix(args) -> Output:
    epsilon = _epsilon(args)
    tau, lower, quantum, budget, ratio, ok = _mixing_comparison(args.n, epsilon)
    payload = {
        "n": args.n,
        "epsilon": epsilon,
        "quantum_threshold": quantum,
        "classical_mixing_time": tau,
        "classical_lower_bound": lower,
        "budget_horizon": budget,
        "speedup_ratio": ratio,
        "lower_bound_respected": ok,
    }
    if not ok:
        print(f"lower_bound_respected failed: classical mixing time {tau} < floor({lower})", file=sys.stderr)
    return Output(payload=payload, code=0 if ok else 1)


def _cmd_bounds(args) -> Output:
    report = bounds.bounds_report(args.n)
    payload = report.to_dict()
    failed = [name for name, ok in report.bound_flags.items() if not ok]
    if args.n >= bounds.BUDGET_MIN_N:
        budget = bounds.budget_report(args.n)
        payload["budget"] = budget.to_dict()
        failed += [f"budget.{name}" for name in ("passed", "analytic_passed") if not getattr(budget, name)]
    if failed:
        print(f"bounds check failed at n={args.n}: {', '.join(failed)}", file=sys.stderr)
    return Output(payload=payload, code=1 if failed else 0)


def _cmd_conjecture(args) -> Output:
    if args.n_max < 5:
        raise ValueError(f"--n-max must be at least 5, got {args.n_max}")
    ns = [n for n in range(5, args.n_max + 1, 2) if args.residue in ("both", str(n % 4))]
    if not ns:
        raise ValueError(f"--n-max {args.n_max} with --residue {args.residue} leaves no n to check")
    rows = [bounds.conjecture_check(n) for n in ns]
    failed = [row.n for row in rows if not row.passed]
    if failed:
        print(f"conjecture check failed at n={failed[:10]}", file=sys.stderr)
    table = [
        (row.n, row.p, row.su3_raw, row.f_value, row.cap_log5, row.cap_log1, row.holds_scaled, row.passed)
        for row in rows
    ]
    plot = {
        "series": [
            ("f(n)", [(row.n, row.f_value) for row in rows]),
            ("100 n^2 ln(n)^5", [(row.n, row.cap_log5) for row in rows]),
            ("100 n^2 ln(n)", [(row.n, row.cap_log1) for row in rows]),
            ("su3 raw", [(row.n, row.su3_raw) for row in rows]),
        ],
        "title": "near-resonance bound sweep",
        "x_label": "n",
        "y_label": "value (log10)",
        "log_y": True,
    }
    header = ["n", "p", "su3", "f_n", "bound_100n2ln5", "bound_100n2ln1", "holds_scaled", "pass"]
    return Output(header, table, plot=plot, code=1 if failed else 0)


def _cmd_sample(args) -> Output:
    n = args.n
    config = sampling.SamplerConfig(
        n=n,
        start_vertex=vertex_to_internal(args.start, n, "--start"),
        horizon=args.T,
        steps=args.T_prime,
        trials=args.trials,
        seed=args.seed,
    )
    hist = sampling.empirical_check(config)
    summary = {
        "tv_to_uniform": hist.tv_to_uniform,
        "stderr_envelope": hist.stderr_envelope,
    }
    rows = [(vertex_to_label(i), int(count), count / hist.trials) for i, count in enumerate(hist.counts)]
    return Output(
        ["vertex", "count", "empirical_prob"],
        rows + ["# summary " + json.dumps(summary)],
        {"n": n, "counts": hist.counts.tolist(), "trials": hist.trials, **summary},
    )


def _cmd_figure_1b(args) -> Output:
    n = args.n
    cell = dihedral.pair_cell(n, vertex_to_internal(args.src, n, "--from"), vertex_to_internal(args.dst, n, "--to"))
    if not (args.T_max > 1 and math.isfinite(args.T_max)):
        raise ValueError(f"--T-max must be finite and exceed 1, got {args.T_max}")
    if args.points < 2:
        raise ValueError(f"--points must be at least 2, got {args.points}")
    reference = 1.0 / (2 * n)
    horizons = [10 ** (math.log10(args.T_max) * k / (args.points - 1)) for k in range(args.points)]
    steps = [round(args.t_max * k / (args.points - 1)) for k in range(args.points)]
    quantum = [_clamp_tiny_negative(p[cell]) for p in _grid_profiles(walk.averaged_profiles, n, horizons)]
    classical_vals = [_clamp_tiny_negative(p[cell]) for p in _grid_profiles(classical.classical_profiles, n, steps)]
    plot = {
        "series": [
            (f"averaged P({args.src},{args.dst}) vs T", list(zip(horizons, quantum))),
            ("reference 1/(2n)", [(horizons[0], reference), (horizons[-1], reference)]),
        ],
        "title": f"averaged walk convergence, n={n}",
        "x_label": "T",
        "y_label": "probability",
        "log_x": True,
    }
    rows = [
        (horizons[k], quantum[k], steps[k], classical_vals[k], reference)
        for k in range(args.points)
    ]
    return Output(["T", "quantum_avg", "t", "classical", "reference"], rows, plot=plot)


def _cmd_speedup(args) -> Output:
    try:
        ns = [int(tok) for tok in args.n_list.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"--n-list must be comma-separated integers, got {args.n_list!r}") from exc
    if not ns:
        raise ValueError("--n-list is empty")
    epsilon = _epsilon(args)
    header = ["n", "classical_tau", "classical_lower_bound", "quantum_T_star", "budget_horizon", "ratio"]
    rows = []
    all_ok = True
    for n in ns:
        tau, lower, quantum, budget, ratio, ok = _mixing_comparison(n, epsilon)
        all_ok = all_ok and ok
        rows.append((n, tau, lower, quantum, budget, ratio))
        print(f"n={n}: classical {tau}, quantum {quantum}", file=sys.stderr)
        if not ok:
            print(f"lower_bound_respected failed at n={n}: classical mixing time {tau} < floor({lower})", file=sys.stderr)
    return Output(header, rows, {"rows": [dict(zip(header, row)) for row in rows]}, code=0 if all_ok else 1)


def _add_output_flags(parser, formats, default) -> None:
    parser.add_argument("--format", choices=formats, default=default, help="output format")
    parser.add_argument("--out", help="write output to this path instead of stdout")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser: built on first use, then shared by every
    `main` call, as parsing only reads it."""
    parser = argparse.ArgumentParser(
        prog="qwalk",
        description="continuous-time walk on dihedral Cayley graphs: dynamics, mixing bounds, sampling",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    needs_n = argparse.ArgumentParser(add_help=False)
    needs_n.add_argument("--n", type=int, required=True)

    p = sub.add_parser("graph", help="emit the 3-regular graph", parents=[needs_n])
    _add_output_flags(p, ["edges-csv", "matrix-csv"], "edges-csv")
    p.set_defaults(handler=_cmd_graph)

    p = sub.add_parser("spectrum", help="all 2n eigenvalues with branch labels", parents=[needs_n])
    _add_output_flags(p, ["csv", "json"], "csv")
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("walk", help="transition probability over a time grid", parents=[needs_n])
    p.add_argument("--from", dest="src", type=int, default=1, help="1-based source vertex")
    p.add_argument("--to", dest="dst", type=int, default=2, help="1-based target vertex")
    p.add_argument("--t-max", type=float, default=30.0)
    p.add_argument("--steps", type=int, default=300, help="grid intervals between 0 and t-max")
    _add_output_flags(p, ["csv", "json", "svg"], "csv")
    p.set_defaults(handler=_cmd_walk)

    p = sub.add_parser("average", help="time-averaged transition values at horizon T", parents=[needs_n])
    p.add_argument("--T", type=float, required=True, help="averaging horizon")
    p.add_argument("--full-matrix", action="store_true", help="emit the dense matrix instead of the value profile")
    _add_output_flags(p, ["csv", "json"], "csv")
    p.set_defaults(handler=_cmd_average)

    p = sub.add_parser("limit", help="exact limiting distribution", parents=[needs_n])
    _add_output_flags(p, ["json"], "json")
    p.set_defaults(handler=_cmd_limit)

    p = sub.add_parser("classical", help="classical distance-to-uniform series", parents=[needs_n])
    p.add_argument("--t-max", type=int, default=100)
    p.add_argument("--epsilon", type=float, default=spectra.DEFAULT_EPSILON)
    _add_output_flags(p, ["csv", "svg"], "csv")
    p.set_defaults(handler=_cmd_classical)

    p = sub.add_parser("classical-mix", help="measured classical mixing time", parents=[needs_n])
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--norm", choices=["half_induced", "column_pairs"], default="half_induced")
    _add_output_flags(p, ["json"], "json")
    p.set_defaults(handler=_cmd_classical_mix)

    p = sub.add_parser("mix", help="quantum vs classical mixing thresholds", parents=[needs_n])
    p.add_argument("--epsilon", type=float, default=None)
    _add_output_flags(p, ["json"], "json")
    p.set_defaults(handler=_cmd_mix)

    p = sub.add_parser("bounds", help="gap sums, analytic caps, averaging budget", parents=[needs_n])
    _add_output_flags(p, ["json"], "json")
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("conjecture", help="near-resonance bound sweep")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--residue", choices=["1", "3", "both"], default="both", help="restrict to n = 4p+1 or 4p+3")
    _add_output_flags(p, ["csv", "svg"], "csv")
    p.set_defaults(handler=_cmd_conjecture)

    p = sub.add_parser("sample", help="measured-walk endpoint histogram", parents=[needs_n])
    p.add_argument("--start", type=int, default=1, help="1-based start vertex")
    p.add_argument("--T", type=float, required=True, help="measurement window")
    p.add_argument("--T-prime", type=int, required=True, help="measured steps per trial")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    _add_output_flags(p, ["csv", "json"], "csv")
    p.set_defaults(handler=_cmd_sample)

    p = sub.add_parser("figure-1b", help="averaged-entry convergence dataset")
    p.add_argument("--n", type=int, default=101)
    p.add_argument("--from", dest="src", type=int, default=1, help="1-based source vertex")
    p.add_argument("--to", dest="dst", type=int, default=15, help="1-based target vertex")
    # --t-max before --T-max keeps the provenance line's key order
    p.add_argument("--t-max", type=int, default=200)
    p.add_argument("--T-max", type=float, default=1e6)
    p.add_argument("--points", type=int, default=41)
    _add_output_flags(p, ["csv", "svg"], "csv")
    p.set_defaults(handler=_cmd_figure_1b)

    p = sub.add_parser("speedup", help="classical vs quantum mixing table")
    p.add_argument("--n-list", required=True, help="comma-separated odd n values")
    p.add_argument("--epsilon", type=float, default=None)
    _add_output_flags(p, ["csv", "json"], "csv")
    p.set_defaults(handler=_cmd_speedup)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if hasattr(args, "n"):
            dihedral.check_odd_order(args.n)
        output = args.handler(args)
        if args.format == "svg":
            lines = [_svg_plot(**output.plot)]
        elif args.format == "json":
            if output.payload is None:
                raise ValueError(f"{args.command} has no json output with these options")
            lines = [json.dumps({**output.payload, "config": _config_dict(args)}, indent=2) + "\n"]
        else:
            # csv is written a line at a time, as the rows are made
            rows = (row if isinstance(row, str) else ",".join(map(_fmt, row)) for row in output.rows)
            lines = (line + "\n" for line in itertools.chain([_provenance(args), ",".join(output.header)], rows))
        if args.out:
            with open(args.out, "w") as handle:
                handle.writelines(lines)
            print(f"wrote {args.out}", file=sys.stderr)
        else:
            sys.stdout.writelines(lines)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return output.code


if __name__ == "__main__":
    sys.exit(main())
