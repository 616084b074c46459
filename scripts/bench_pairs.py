#!/usr/bin/env python3
"""Compare two checkouts with the benchmark, in alternating pairs of runs.

Usage:

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --seed N \\
        --pairs 10 --out BENCH.json

Each pair runs ``perfbench/run.py --workload W --seed N --seconds S`` once
in each checkout, one run at a time, with the run length ``S`` that
``CHANGE_DIR/BENCHMARK.json`` sets as ``run_seconds``; even pairs run the
parent first, odd pairs the change, so slow drift of the host hits both
sides alike. Of each run's output only the last line, its JSON result, and
the ``outputs_sha256`` of each round are read; the summary says whether that
digest was the same on every round of both sides.

For every end-to-end metric that the same file declares it prints the
median and quartiles of each side, the pairs the change won, and two
verdicts: ``gain`` (the change won at least 90 % of the pairs and its median
is better by more than the parent's interquartile range) and ``bound`` (the
change's median is not worse than the parent's by more than the metric's
bound). A metric within its bound is ``unresolved`` instead when the
parent's interquartile range is wider than the bound and not every change
run beats every parent run: its runs spread too widely to tell. The summary
goes to ``--out`` under the workload's name, next to other workloads already
in that file.

After each run its raw samples, ``.bench_out/result-W-seedN-trace0.json`` in
that checkout, give the CPU time of every throughput metric (one whose unit
ends in ``/s``): total CPU ms over total units of the run's passes. Each
side's median is printed next to the verdicts and kept in the summary as
``cpu_ms_per_unit``. It is a diagnostic only, and no verdict reads it: on a
host whose cores change speed, CPU time per unit can tell less work from a
slower core where wall time cannot.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path


def src_sha256(checkout: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((checkout / "src" / "monorange").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def cpu_ms_per_unit(checkout: Path, workload: str, seed: int) -> dict[str, float]:
    """CPU ms per unit of each throughput metric, from the last run's raw samples."""
    raw = checkout / ".bench_out" / f"result-{workload}-seed{seed}-trace0.json"
    samples = json.loads(raw.read_text())["samples"]
    return {name: 1e3 * sum(p[2] for p in passes) / sum(p[0] for p in passes)
            for name, passes in samples.items()
            if passes and name not in ("setup_s", "frame_ms")}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON result on the last line of one benchmark run, with its CPU time per unit."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
    if not result.get("correct"):
        raise SystemExit(f"benchmark failed in {checkout} (exit {proc.returncode}):\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    # "round N traced=T outputs_sha256=X": the digest of every output of round N.
    result["outputs_sha256"] = sorted({line.rsplit("=", 1)[1] for line in lines
                                       if line.startswith("round ")})
    result["cpu_ms_per_unit"] = cpu_ms_per_unit(checkout, workload, seed)
    return result


def spread(side: dict) -> str:
    return f"{side['median']:.5g} [{side['q1']:.5g}, {side['q3']:.5g}]"


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Medians, quartiles, wins and both verdicts for one metric."""
    sign = 1.0 if better == "higher" else -1.0
    p1, p_med, p3 = statistics.quantiles(parent, n=4, method="inclusive")
    c1, c_med, c3 = statistics.quantiles(change, n=4, method="inclusive")
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    gap = sign * (c_med - p_med)  # > 0 when the change is better
    beats_all = min(sign * c for c in change) > max(sign * p for p in parent)
    return {
        "parent": {"median": p_med, "q1": p1, "q3": p3},
        "change": {"median": c_med, "q1": c1, "q3": c3},
        "wins": wins,
        "pairs": len(parent),
        "ratio": c_med / p_med,
        "gain": wins >= math.ceil(0.9 * len(parent)) and gap > p3 - p1,
        "bound": -gap <= bound * abs(p_med),
        "unresolved": p3 - p1 > bound * abs(p_med) and not beats_all,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, required=True, help="JSON summary file")
    args = parser.parse_args(argv)

    declared_doc = json.loads((args.change / "BENCHMARK.json").read_text())
    declared, seconds = declared_doc["end_to_end"], declared_doc["run_seconds"]
    sides = {"parent": args.parent, "change": args.change}
    results: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            results[side].append(run_once(sides[side], args.workload, args.seed, seconds))
        print(f"pair {i + 1}/{args.pairs} done ({order[0]} first)", flush=True)

    summary = {}
    print(f"{'metric':<28} {'parent median [q1, q3]':>30} {'change median [q1, q3]':>30} "
          f"{'ratio':>6} {'wins':>5}  verdict  [CPU ms/unit: parent -> change]")
    for metric in declared:
        name = metric["name"]
        parent = [run["metrics"][name]["value"] for run in results["parent"]]
        change = [run["metrics"][name]["value"] for run in results["change"]]
        row = compare(parent, change, metric["better"], metric["bound"])
        row.update(unit=metric["unit"], better=metric["better"], bound_fraction=metric["bound"],
                   parent_runs=parent, change_runs=change)
        cpu = ""
        if metric["unit"].endswith("/s"):
            row["cpu_ms_per_unit"] = {
                side: statistics.median(run["cpu_ms_per_unit"][name] for run in runs)
                for side, runs in results.items()}
            cpu = (f"  [CPU ms/unit: {row['cpu_ms_per_unit']['parent']:.4g} -> "
                   f"{row['cpu_ms_per_unit']['change']:.4g}]")
        summary[name] = row
        verdict = ("gain" if row["gain"] else "no gain") + (
            ", WORSE than bound" if not row["bound"]
            else ", unresolved" if row["unresolved"] else ", within bound")
        print(f"{name:<28} {spread(row['parent']):>30} {spread(row['change']):>30} "
              f"{row['ratio']:>6.3f} {row['wins']:>2}/{row['pairs']:<2}  {verdict}{cpu}")

    failed_frac = {side: max(run["failed"] / max(run["attempted"], 1) for run in runs)
                   for side, runs in results.items()}
    digests = {side: sorted({d for run in runs for d in run["outputs_sha256"]})
               for side, runs in results.items()}
    same = len(digests["parent"]) == 1 and digests["parent"] == digests["change"]
    print(f"outputs_sha256 {'equal on every round of both sides' if same else 'DIFFER'}: "
          f"{digests}")
    document = json.loads(args.out.read_text()) if args.out.exists() else {}
    document[args.workload] = {
        "seed": args.seed,
        "seconds": seconds,
        "pairs": args.pairs,
        "order": "even pairs run the parent first, odd pairs the change",
        "src_sha256": {side: src_sha256(path) for side, path in sides.items()},
        "failed_frac_max": failed_frac,
        "outputs_sha256": digests,
        "metrics": summary,
    }
    args.out.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"summary -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
