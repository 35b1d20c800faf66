"""Self-test of the benchmark: a short run of every workload.

    python3 -m pytest perfbench/test_perfbench.py

Takes three to four minutes on two cores.  It checks that every metric named
in BENCHMARK.json is emitted with its unit and has a direction, that the
outputs pass their checks, that count metrics repeat exactly across two
traced runs, and that the benchmark fails cleanly without the program.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNTS = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "bytes")]


def bench(cwd, workload, trace, seed=3):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc


def result(workload, trace):
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(res, kind):
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    declared = {m["name"]: m for m in SPEC[kind]}
    assert set(res["metrics"]) == set(declared)
    for name, metric in res["metrics"].items():
        assert metric["unit"] == declared[name]["unit"], name
        assert declared[name]["better"] in ("higher", "lower"), name
        assert isinstance(metric["value"], (int, float)), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_smoke(workload):
    check_result(result(workload, 0), "end_to_end")
    first, second = result(workload, 1), result(workload, 1)
    check_result(first, "per_layer")
    check_result(second, "per_layer")
    counts = {name: (first["metrics"][name]["value"], second["metrics"][name]["value"]) for name in COUNTS}
    assert {name: a for name, (a, _) in counts.items()} == {name: b for name, (_, b) in counts.items()}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
