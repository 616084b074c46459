"""Checks of the benchmark itself.

A traced run must leave every output byte-identical to an untraced one, and
every metric the benchmark prints must be declared in BENCHMARK.json. Runs the
smallest workload for its minimum of one untraced and one traced round.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_traced_outputs_match_untraced_and_metrics_are_declared():
    proc = run_bench(ROOT, "--workload", "norm_sweep", "--seed", "3", "--seconds", "0",
                     "--trace", "1")
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0

    rounds = {}
    for line in lines:
        if line.startswith("round "):
            _, _, traced, combined = line.split()
            rounds.setdefault(traced, set()).add(combined)
    assert set(rounds) == {"traced=0", "traced=1"}
    assert rounds["traced=0"] == rounds["traced=1"] and len(rounds["traced=0"]) == 1

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    assert set(result["metrics"]) == {m["name"] for m in declared["per_layer"]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name], name
    printed = {line.split()[1] for line in lines if line.startswith(("e2e ", "layer "))}
    assert printed <= set(units), printed - set(units)
    assert {m["name"] for m in declared["end_to_end"]} <= printed


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "drift_hd", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
