"""Runs the benchmark's smoke mode so the harness cannot rot.

    python3 -m pytest perfbench

No timing bounds: this checks that every workload runs and passes its
output checks, and that the run reports the metrics BENCHMARK.json
declares.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def test_smoke_runs_every_workload_and_reports_declared_metrics():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in declared["per_layer"]}
    records = [json.loads(line)["record"] for line in lines if line.startswith('{"record"')]
    untraced = {r["workload"] for r in records if r["trace"] == 0}
    assert untraced == {w["name"] for w in declared["workloads"]}
    assert all(r["machine"]["nproc"] >= 1 and r["seed"] == 1 for r in records)
    printed = {line.split()[0] for line in lines if line.startswith("  ")}
    assert {m["name"] for m in declared["end_to_end"]} <= printed
