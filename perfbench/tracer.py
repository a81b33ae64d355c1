"""Span recorder for the traced run, wrapped around qwalk's public functions
from outside the package.

Each wrapped call records a span (id, parent id, name, start, end, peak
traced allocation, failed, work units).  Spans stay in memory and are
written out when the run ends.  Peak allocation comes from `tracemalloc`,
which sees numpy buffers.  It runs only inside the spans in MEMORY_SPANS,
and there nested spans share its single peak counter, so every span entry
folds the running peak into its parent before resetting it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import tracemalloc
from contextlib import contextmanager

import numpy as np

from qwalk import walk

LAYERS = {
    "spectra": ("eigenvalues",),
    "dihedral": ("pair_values_row", "pair_values_dense"),
    "walk": ("averaged_matrix", "distance_to_limit", "probability_row", "probability_matrix"),
    "bounds": (
        "quantum_mixing_threshold",
        "eigengap_inverse_sum_bruteforce",
        "decomposed_sum",
        "su_sums",
        "bounds_report",
        "budget_report",
    ),
    "classical": (
        "classical_mixing_time",
        "classical_profile",
        "classical_profiles",
        "half_uniform_distance",
        "profile_column_distance",
    ),
    "sampling": ("empirical_check", "trial_rng"),
    "cli": ("main",),
}
METHODS = ((walk.AveragedWalkMatrix, "to_dense"), (walk.LimitingDistribution, "to_dense"))

# spans whose peak allocation is reported; tracemalloc runs only inside them
MEMORY_SPANS = ("walk.averaged_matrix", "classical.classical_profiles", "sampling.empirical_check")


def _n_arg(args, kwargs):
    n = kwargs.get("n", args[0] if args else None)
    return int(n) if isinstance(n, (int, np.integer)) else None


def _work_units(name, args, kwargs, result):
    """Work done by one call, in the unit its derived metric divides by."""
    if name == "walk.averaged_matrix":
        return 4 * _n_arg(args, kwargs) ** 2
    if name == "dihedral.pair_values_dense":
        return (2 * _n_arg(args, kwargs)) ** 2
    if name == "classical.classical_profiles":
        return len(args[1] if len(args) > 1 else kwargs["ts"])
    if name in ("bounds.quantum_mixing_threshold", "classical.classical_mixing_time"):
        return len(result.distance_series)
    if name == "sampling.empirical_check":
        config = args[0] if args else kwargs["config"]
        return config.trials * config.steps
    return 1


def function_names():
    names = [f"{module}.{fn}" for module, fns in LAYERS.items() for fn in fns]
    return names + [f"walk.{cls.__name__}.{meth}" for cls, meth in METHODS]


class Tracer:
    """Records spans while `active`; a wrapper is a pass-through otherwise.

    With `memory`, spans in MEMORY_SPANS also record their peak traced
    allocation.  tracemalloc slows every Python allocation (threefold on the
    per-trial sampler), so timings come from a tracer without it.
    """

    def __init__(self, memory=False):
        self.memory = memory
        self.spans = []
        self.active = False
        self._stack = []

    def _enter(self, name, args, kwargs):
        frame = {
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "n": _n_arg(args, kwargs),
            "norm": kwargs.get("norm_kind"),
            "owns_tracing": self.memory and name in MEMORY_SPANS and not tracemalloc.is_tracing(),
            "base": None,
            "peak_alloc": None,
        }
        if frame["owns_tracing"]:
            tracemalloc.start()
        if tracemalloc.is_tracing():
            cur, peak = tracemalloc.get_traced_memory()
            if self._stack:
                parent = self._stack[-1]
                parent["max_peak"] = max(parent.get("max_peak", 0), peak)
            tracemalloc.reset_peak()
            frame["base"] = frame["max_peak"] = cur
        self.spans.append(frame)
        self._stack.append(frame)
        frame["start"] = time.perf_counter()
        return frame

    def _exit(self, frame, failed, units):
        frame["end"] = time.perf_counter()
        self._stack.pop()
        frame["failed"] = failed
        frame["units"] = units
        if frame["base"] is None:
            return
        peak = max(frame.pop("max_peak"), tracemalloc.get_traced_memory()[1])
        frame["peak_alloc"] = peak - frame["base"]
        if frame["owns_tracing"]:
            tracemalloc.stop()
        elif self._stack:
            parent = self._stack[-1]
            parent["max_peak"] = max(parent.get("max_peak", 0), peak)

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = self._enter(name, args, kwargs)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._exit(frame, True, 0)
                raise
            self._exit(frame, False, _work_units(name, args, kwargs, result))
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Patch every binding of each wrapped function in every qwalk module
        (`bounds` holds its own `averaged_matrix`, the package re-exports
        most names), plus the two `to_dense` methods; restore on exit."""
        patched = []
        homes = {layer: importlib.import_module(f"qwalk.{layer}") for layer in LAYERS}
        modules = [m for name, m in sys.modules.items() if name == "qwalk" or name.startswith("qwalk.")]
        for layer, fns in LAYERS.items():
            home = homes[layer]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self.wrap(f"{layer}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            patched.append((module, attr, original))
                            setattr(module, attr, wrapper)
        for cls, meth in METHODS:
            original = vars(cls)[meth]
            patched.append((cls, meth, original))
            setattr(cls, meth, self.wrap(f"walk.{cls.__name__}.{meth}", original))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    @contextmanager
    def recording(self):
        """Trace the calls made inside the block."""
        self.active = True
        try:
            yield self
        finally:
            self.active = False

    @contextmanager
    def paused(self):
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was


def _ratio(num, den, scale=1.0):
    """num / den * scale; 0 when the base is empty (the layer did not run)."""
    return num / den * scale if den else 0.0


def _n_exponent(spans):
    """Log-log slope of median call time against n; 0 with fewer than two n."""
    by_n = {}
    for s in spans:
        by_n.setdefault(s["n"], []).append(s["end"] - s["start"])
    if len(by_n) < 2:
        return 0.0
    ns = sorted(by_n)
    med = [float(np.median(by_n[n])) for n in ns]
    return float(np.polyfit(np.log(ns), np.log(med), 1)[0])


def _peak_mb(memory_spans, name):
    # a failed numpy allocation is still reported to tracemalloc, so only
    # spans that returned give a peak
    peaks = [s["peak_alloc"] for s in memory_spans if s["name"] == name and not s["failed"]]
    return max(peaks, default=0) / 2**20


def layer_metrics(spans, pass_wall, memory_spans):
    """Per-layer metrics of one timed traced pass, with peaks from a second
    pass under a memory tracer, as {name: (value, unit)}."""
    by_id = {s["id"]: s for s in spans}
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    stats = {}
    for name in function_names():
        mine = [s for s in spans if s["name"] == name]
        busy = sum(s["end"] - s["start"] for s in mine)
        stats[name] = {
            "calls": len(mine),
            "busy_s": busy,
            "self_s": busy - sum(child_time.get(s["id"], 0.0) for s in mine),
            "failed": sum(s["failed"] for s in mine),
            "units": sum(s["units"] for s in mine),
        }
    out = {}
    for name, st in stats.items():
        out[f"{name}.calls"] = (st["calls"], "count")
        out[f"{name}.busy_s"] = (st["busy_s"], "s")
        out[f"{name}.self_s"] = (st["self_s"], "s")
        out[f"{name}.failed"] = (st["failed"], "count")

    avg = stats["walk.averaged_matrix"]
    qmt = stats["bounds.quantum_mixing_threshold"]
    profiles = stats["classical.classical_profiles"]
    pcd = stats["classical.profile_column_distance"]
    emp = stats["sampling.empirical_check"]
    row = stats["walk.probability_row"]
    dense = stats["dihedral.pair_values_dense"]
    gap_busy = sum(
        stats[f"bounds.{fn}"]["busy_s"] for fn in ("eigengap_inverse_sum_bruteforce", "decomposed_sum", "su_sums")
    )
    ladder_avg = [
        s
        for s in spans
        if s["name"] == "walk.averaged_matrix"
        and not s["failed"]
        and s["n"] >= 101
        and s["parent"] is not None
        and by_id[s["parent"]]["name"] == "walk.distance_to_limit"
    ]
    ladder_classical = [
        s
        for s in spans
        if s["name"] == "classical.classical_mixing_time" and s["parent"] is None and s["norm"] is None and not s["failed"]
    ]
    roots = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    out.update(
        {
            "walk.averaged_matrix.ns_per_mode_pair": (_ratio(avg["busy_s"], avg["units"], 1e9), "ns"),
            "walk.averaged_matrix.peak_alloc_mb": (_peak_mb(memory_spans, "walk.averaged_matrix"), "MiB"),
            "walk.averaged_matrix.n_exponent": (_n_exponent(ladder_avg), "exponent"),
            "bounds.quantum_mixing_threshold.probes": (qmt["units"], "count"),
            "bounds.quantum_mixing_threshold.ms_per_probe": (_ratio(qmt["busy_s"], qmt["units"], 1e3), "ms"),
            "bounds.gap_sum.busy_share": (_ratio(gap_busy, pass_wall), "fraction"),
            "classical.classical_profiles.steps_evaluated": (profiles["units"], "count"),
            "classical.classical_profiles.peak_alloc_mb": (_peak_mb(memory_spans, "classical.classical_profiles"), "MiB"),
            "classical.classical_mixing_time.probes": (stats["classical.classical_mixing_time"]["units"], "count"),
            "classical.classical_mixing_time.n_exponent": (_n_exponent(ladder_classical), "exponent"),
            "classical.profile_column_distance.us_per_call": (_ratio(pcd["busy_s"], pcd["calls"], 1e6), "us"),
            "sampling.empirical_check.us_per_measured_step": (_ratio(emp["busy_s"], emp["units"], 1e6), "us"),
            "sampling.empirical_check.peak_alloc_mb": (_peak_mb(memory_spans, "sampling.empirical_check"), "MiB"),
            "walk.probability_row.us_per_row": (_ratio(row["busy_s"], row["calls"], 1e6), "us"),
            "dihedral.pair_values_dense.ns_per_entry": (_ratio(dense["busy_s"], dense["units"], 1e9), "ns"),
            "trace.coverage_frac": (_ratio(roots, pass_wall), "fraction"),
        }
    )
    return out
