"""Quick self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload once on its smallest case (untraced and traced) and
asserts that every metric named in BENCHMARK.json is emitted with its unit
and that no job failed.  Then it feeds one deliberately wrong output, a
`count` of a word one letter short, and asserts that it is counted as a
failure, so the output checks are shown to check.  Takes under a minute.
"""

from __future__ import annotations

import json
import tempfile
from dataclasses import replace
from pathlib import Path

import run

# the layers each workload must exercise in a traced run
MUST_CALL = {
    "count": ("cartan.weyl_inverse", "affine.reduced_word"),
    "paths": ("render.arrangement", "cli.serialize"),
    "oracle": ("ratfunc.rf_mul", "loopgroup.normalize"),
    "verify": ("ratfunc.rf_mul", "loopgroup.normalize"),
}


def check_metrics(result: dict, declared: list[dict], context: str) -> None:
    got = result["metrics"]
    assert set(got) == {m["name"] for m in declared}, f"{context}: metric names differ"
    for m in declared:
        assert got[m["name"]]["unit"] == m["unit"], f"{context}: unit of {m['name']}"
        assert isinstance(got[m["name"]]["value"], (int, float)), f"{context}: {m['name']}"


def main() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for workload in run.WORKLOADS:
        for trace in (False, True):
            context = f"{workload} trace={int(trace)}"
            outcome = run.run_workload(workload, seed=1, seconds=0, trace=trace, quick=True)
            result = run.summary(outcome, trace)
            assert result["attempted"] >= 1, context
            assert result["failed"] == 0, f"{context}: error_rate is not 0: {run.report(outcome, result, trace)}"
            check_metrics(result, spec["per_layer" if trace else "end_to_end"], context)
            if trace:
                for op in MUST_CALL[workload]:
                    assert result["metrics"][f"{op}.calls"]["value"] > 0, f"{context}: {op} not called"
                assert result["metrics"]["trace.overhead_ratio"]["value"] > 0, context
            print(f"ok: {context}: {result['attempted']} jobs, every metric present, error_rate 0")

    cases = run.load_cases()
    with tempfile.TemporaryDirectory(dir=run.ROOT / ".bench_build") as tmp, run.Spawner() as spawner:
        good = run.build_round("count", cases, run.pick(cases, 0), Path(tmp), quick=True)[0]
        word = good.argv[good.argv.index("--word") + 1]
        wrong = replace(good, argv=tuple(a if a != word else word.rsplit(",", 1)[0] for a in good.argv))
        results = [run.run_job(spawner, job, Path(tmp)) for job in (good, wrong)]
        outcome = run.Run("count", 0, setup=[0.0], results=results)
    result = run.summary(outcome, trace=False)
    assert result["failed"] == 1 and not result["correct"], "a wrong output was not counted as failed"
    print(f"ok: wrong count output counted as failed: error_rate {result['failed'] / result['attempted']}"
          f" ({outcome.results[1].error})")


if __name__ == "__main__":
    (run.ROOT / ".bench_build").mkdir(exist_ok=True)
    main()
