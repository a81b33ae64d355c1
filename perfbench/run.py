"""qwalk benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The client calls qwalk's public functions
and `qwalk.cli.main` in-process, from `src/`; each op starts when the
previous one returns.  qwalk is a batch library with one caller, so the
timing is time to solution for the workload's fixed op list (one pass),
repeated until `--seconds` have gone by.

End-to-end metrics (`--trace 0`):
  setup_s      median over seventeen fresh set-ups (this process and
               sixteen sequential child processes) of: import numpy and
               qwalk, then one warm-up call per layer at n = 9, a size no
               workload uses.  No per-n warm-up, so a per-n cache is paid
               inside wall_s by the first pass.  The children run between
               ops, untimed, spread over the whole run, so the median sees
               the host's speed across the run and not in one moment.
  wall_s       median wall time of a pass: the sum of its op times; the
               output checks between ops are not timed.
  cpu_s        median process CPU time of a pass, over the same ops.
  peak_rss_mb  ru_maxrss of this process, MiB.
  ok_rate      share of op executions that returned and passed their
               output check (1 - error rate).

`--trace 1` runs the same untraced passes (for trace.overhead_frac), then
one pass with every layer's public functions wrapped from outside the
package (see tracer.py) and one more with tracemalloc inside the spans
that report a peak, and prints the per-layer metrics instead.  Spans are
written to perfbench/out/.

Failures: ops that raise or fail their check count against ok_rate and
error_rate.  Ops marked as known defects in workloads.py are expected to
fail, with a given reason; `failed` in the result line counts every other
failure, a known-defect op failing for another reason included, and
`correct` is false when there is any.

A line with run details (seed, versions, pins, per-pass times, each
failure) precedes the result line, which is always the last.
"""

import os
import sys

# pin every BLAS/OpenMP pool before numpy loads; QWALK_THREADS is qwalk's own cap
THREAD_PINS = {
    var: "1"
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "QWALK_THREADS",
    )
}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

# child set-ups per run; the host's speed changes within seconds
SETUP_REPEATS = 16

# Address-space cap for this process and its children.  The known
# MemoryError op asks for 8.46 GiB; under the cap that request fails the
# same way on any host instead of filling a large host's memory.  Known
# defects match their failure reason, so an op that newly hits the cap
# counts as an unexpected failure.
ADDRESS_SPACE_CAP = 4 * 2**30


def import_program():
    """Import qwalk from this checkout's src/, and nothing else."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    try:
        import qwalk
    except ImportError as exc:
        raise SystemExit(f"error: cannot import qwalk from {SRC}: {exc}")
    if not Path(qwalk.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: qwalk imported from {qwalk.__file__}, not from {SRC}")


def set_up() -> float:
    """Import numpy and qwalk and warm up each layer; returns the seconds taken."""
    start = time.perf_counter()
    import_program()
    import workloads

    workloads.warm_up()
    return time.perf_counter() - start


def child_set_up() -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


class SetupSampler:
    """Child set-ups taken between ops, one whenever `interval` seconds have
    gone by since the last, until `count` are taken."""

    def __init__(self, count, interval):
        self.count = count
        self.interval = interval
        self.samples = []
        self.spent = 0.0
        self.last = time.perf_counter()

    def take(self):
        start = time.perf_counter()
        self.samples.append(child_set_up())
        self.last = time.perf_counter()
        self.spent += self.last - start

    def between_ops(self):
        if len(self.samples) < self.count and time.perf_counter() - self.last >= self.interval:
            self.take()

    def finish(self):
        while len(self.samples) < self.count:
            self.take()


def run_pass(ops, tracer, between_ops=None):
    """Run every op once, closed loop.  Op times add up to the pass time;
    each output check, and `between_ops`, run after its op, untimed and
    untraced."""
    wall = cpu = 0.0
    failures = []
    bytes_out = 0
    from workloads import CliOutput

    for op in ops:
        error = None
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            out = op.run()
        except Exception as exc:
            error = f"raised {type(exc).__name__}: {exc}"
        c1, w1 = time.process_time(), time.perf_counter()
        wall += w1 - w0
        cpu += c1 - c0
        if error is None:
            if isinstance(out, CliOutput):
                bytes_out += len(out.text.encode())
            with tracer.paused():
                try:
                    error = op.check(out)
                except Exception as exc:
                    error = f"check raised {type(exc).__name__}: {exc}"
            del out
        if error is not None:
            defect = op.expected_failure(error)
            failures.append({"op": op.label, "reason": error, "known_defect": defect and defect.description})
        if between_ops is not None:
            between_ops()
    return {"wall": wall, "cpu": cpu, "attempted": len(ops), "failures": failures, "bytes_out": bytes_out}


def measure(ops, seconds, tracer, setups):
    """Whole passes until `seconds`, not counting the child set-ups spread
    over them, have gone by; at least one."""
    passes = []
    start = time.perf_counter()
    setups.take()
    while not passes or time.perf_counter() - start - setups.spent < seconds:
        passes.append(run_pass(ops, tracer, setups.between_ops))
    setups.finish()
    return passes


def high_percentile(values):
    """Highest percentile with at least ten samples above it, or None."""
    ordered = sorted(values)
    if len(ordered) < 11:
        return None
    k = len(ordered) - 11
    return {"percentile": 100.0 * (k + 1) / len(ordered), "value": ordered[k]}


def write_spans(path, timed, memory):
    fields = ("id", "parent", "name", "start", "end", "peak_alloc", "failed", "units", "n")
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(
            {
                "fields": fields,
                "timed_pass": [[s[f] for f in fields] for s in timed],
                "memory_pass": [[s[f] for f in fields] for s in memory],
            },
            handle,
        )


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="tiny op lists, one child set-up (harness smoke check)")
    return parser.parse_args()


def main() -> int:
    if sys.argv[1:] == ["--setup-probe"]:
        print(repr(set_up()))
        return 0
    args = parse_args()
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = ADDRESS_SPACE_CAP if hard == resource.RLIM_INFINITY else min(ADDRESS_SPACE_CAP, hard)
    if soft == resource.RLIM_INFINITY or soft > cap:
        resource.setrlimit(resource.RLIMIT_AS, (cap, hard))

    setups = [set_up()]
    import numpy as np
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    ops = workloads.WORKLOADS[args.workload](args.seed, small=args.small)
    tracer = tracing.Tracer()
    children = SetupSampler(1 if args.small else SETUP_REPEATS, args.seconds / SETUP_REPEATS)
    passes = measure(ops, args.seconds, tracer, children)
    setups += children.samples
    all_passes = list(passes)
    if args.trace:
        with tracer.installed(), tracer.recording():
            traced = run_pass(ops, tracer)
        memory_tracer = tracing.Tracer(memory=True)
        with memory_tracer.installed(), memory_tracer.recording():
            all_passes.append(run_pass(ops, memory_tracer))
        all_passes.append(traced)

    attempted = sum(p["attempted"] for p in all_passes)
    failures = [f for p in all_passes for f in p["failures"]]
    unexpected = [f for f in failures if not f["known_defect"]]
    error_rate = len(failures) / attempted
    walls = [p["wall"] for p in passes]
    wall_s = statistics.median(walls)

    if args.trace:
        layer = tracing.layer_metrics(tracer.spans, traced["wall"], memory_tracer.spans)
        layer["cli.main.bytes_out"] = (traced["bytes_out"], "B")
        layer["trace.overhead_frac"] = (traced["wall"] / wall_s - 1.0, "fraction")
        layer["error_rate"] = (error_rate, "fraction")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer.items()}
        spans_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        write_spans(spans_file, tracer.spans, memory_tracer.spans)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "cpu_s": {"value": statistics.median(p["cpu"] for p in passes), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MiB"},
            "ok_rate": {"value": 1.0 - error_rate, "unit": "fraction"},
        }

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "thread_pins": THREAD_PINS,
        "address_space_cap_bytes": resource.getrlimit(resource.RLIMIT_AS)[0],
        "setup_s_samples": setups,
        "passes": len(passes),
        "ops_per_pass": len(ops),
        "wall_s_per_pass": walls,
        "cpu_s_per_pass": [p["cpu"] for p in passes],
        "wall_s_high_percentile": high_percentile(walls),
        "traced_wall_s": traced["wall"] if args.trace else None,
        "error_rate": error_rate,
        "failures": sorted({(f["op"], f["reason"], f["known_defect"] or "") for f in failures}),
        "spans_file": str(spans_file.relative_to(ROOT)) if args.trace else None,
    }
    print(json.dumps({"info": info}))
    result = {"correct": not unexpected, "attempted": attempted, "failed": len(unexpected), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
