"""Harness smoke check: one tiny pass per workload, untraced and traced,
emits every metric BENCHMARK.json names, with its unit.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, workload, trace):
    argv = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3"]
    argv += ["--seconds", "0", "--trace", str(trace), "--small"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_emitted(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_known_defect_excuses_only_its_own_failure():
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run

    run.import_program()
    import tracer
    from workloads import ABOVE_GAP_SUM_BOUND, KnownDefect, Op

    defect = KnownDefect("distance drifts above its bound", ABOVE_GAP_SUM_BOUND)

    def out_of_memory():
        raise MemoryError("cannot allocate")

    ops = [
        Op("drifts", lambda: 1.0, lambda d: f"distance {d:.3e} above gap-sum bound 5.000e-01", defect),
        Op("runs out of memory", out_of_memory, lambda d: None, defect),
    ]
    failures = run.run_pass(ops, tracer.Tracer())["failures"]
    assert [(f["op"], f["known_defect"]) for f in failures] == [
        ("drifts", defect.description),
        ("runs out of memory", None),
    ]
