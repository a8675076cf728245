"""Record the benchmark's results for the current tree.

    python3 perfbench/record_baseline.py perfbench/results/baseline.json

Runs every workload with seed 0 (the baseline inputs), untraced and traced,
for BENCHMARK.json's run_seconds, and writes every metric together with the
per-case work counts (paths, cells, executor runs, stdout bytes), the
Python version and the core count.  The per-case counts come from the
traced jobs and must match the known baseline sizes below.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
from pathlib import Path

import run

# case -> (folded paths, cells, executor runs) known for the seed-0 inputs
EXPECTED = {
    "count:A2": (745, 387, 0),
    "count:A3": (1433, 936, 0),
    "count:E6": (3748, None, 0),
    "paths:A2": (745, 387, 0),
    "oracle:A2": (None, None, 243),
}


def case_counts(outcome: run.Run) -> dict[str, dict]:
    cases: dict[str, dict] = {}
    for r in outcome.results:
        entry = cases.setdefault(r.case, {"jobs": 0, "seconds": [], "work": r.work})
        if not r.traced:
            entry["jobs"] += 1
            entry["seconds"].append(r.seconds)
            entry["stdout_bytes"] = r.stdout_bytes
        elif r.spans and outcome.workload != "verify":
            agg = {}
            for op, _parent, calls, _total, _own in r.spans["agg"]:
                agg[op] = agg.get(op, 0) + calls
            entry["paths"] = r.spans["counts"].get("folding.paths", 0)
            entry["cells"] = r.spans["counts"].get("folding.cells", 0)
            entry["executor_runs"] = agg.get("loopgroup.execute", 0)
    for entry in cases.values():
        entry["median_s"] = statistics.median(entry.pop("seconds"))
    return cases


def main() -> None:
    out_path = Path(sys.argv[1])
    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    doc = {
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "machine": platform.machine(),
        "seed": 0,
        "run_seconds": seconds,
        "workloads": {},
    }
    for workload in run.WORKLOADS:
        plain = run.run_workload(workload, 0, seconds, trace=False)
        traced = run.run_workload(workload, 0, seconds, trace=True)
        plain_result, traced_result = run.summary(plain, False), run.summary(traced, True)
        cases = case_counts(plain)
        for case, counts in case_counts(traced).items():
            cases.setdefault(case, {}).update(
                {k: v for k, v in counts.items() if k in ("paths", "cells", "executor_runs")})
        tail = run.p90(plain)
        attempted = plain_result["attempted"] + traced_result["attempted"]
        failed = plain_result["failed"] + traced_result["failed"]
        doc["workloads"][workload] = {
            "rounds": plain.rounds,
            "attempted": attempted,
            "failed": failed,
            "error_rate": failed / attempted,
            "job_s.p90": None if tail is None else {"value": tail[0], "unit": "s", "n": tail[1]},
            "end_to_end": plain_result["metrics"],
            "per_layer": traced_result["metrics"],
            "absent": run.absent_symbols(traced),
            "cases": cases,
        }
        print(workload, "error_rate", failed / attempted, flush=True)
    for case, (paths, cells, runs) in EXPECTED.items():
        got = doc["workloads"][case.split(":")[0]]["cases"][case]
        for key, want in (("paths", paths), ("cells", cells), ("executor_runs", runs)):
            if want is not None and got.get(key) != want:
                raise SystemExit(f"{case}: {key} {got.get(key)}, expected {want}")
    out_path.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
