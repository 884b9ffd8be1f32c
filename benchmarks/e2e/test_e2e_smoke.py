"""Tier-1 guard: the benchmark's smoke mode runs clean and reports exactly
what ``BENCHMARK.json`` declares."""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def test_e2e_smoke(tmp_path):
    out = tmp_path / "smoke.json"
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", "--trace",
         "--out", str(out)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, timeout=900)
    assert done.returncode == 0, done.stdout
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    with open(out) as handle:
        runs = json.load(handle)["runs"]
    workloads = [w["name"] for w in declared["workloads"]]
    assert sorted((r["workload"], r["trace"]) for r in runs) == sorted(
        (w, t) for w in workloads for t in (0, 1))
    names = {0: {m["name"] for m in declared["end_to_end"]},
             1: {m["name"] for m in declared["per_layer"]}}
    for run in runs:
        assert run["failed_share"] == 0, run["failures"]
        assert sum(run["checks"].values()) > 0
        assert set(run["metrics"]) == names[run["trace"]], run["workload"]
