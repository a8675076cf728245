"""alcovewalks benchmark: one command, four workloads, every output checked.

    python3 perfbench/run.py --workload count --seed 0 --seconds 25 --trace 0

Run from the repository root (the program is imported from ./src).

Load model: a closed loop with one client.  Jobs run one at a time; this
single process starts no pool and never passes --jobs.  Each CLI job
is a fresh `python -m alcovewalks.cli ...` child, timed from spawn to exit,
with its peak RSS taken from os.wait4; a small helper (perfbench/spawner.py)
does the spawning so this process's own memory never shows in a child's peak.
The `verify` workload is an in-process library loop run inside one child
(perfbench/verify_worker.py).

Workloads (see BENCHMARK.json for why each exists):
  count   `count` on translation words of C3, A2, A3 and a 14-letter E6 prefix
  paths   `paths` (full JSON) for A2 and B2, `render --end` and the golden render
  oracle  `oracle --p` on an A2 word at p=3 and an A3 word at p=2
  verify  example8.run_checks() and validated LoopSL(..., QQ) executor runs

A run repeats rounds (each case once, in a fixed order) and starts another
round only while it is expected to end within --seconds; at least one round
always runs.  The seed picks each case's input from its pool in
perfbench/cases.json (seed 0 is the baseline input); for `verify` it drives
the random words and labels.

--trace 0 prints the end-to-end metrics; --trace 1 runs every job untraced
and then traced (perfbench/traced_cli.py) and prints the per-layer metrics.
The last stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDEN_SVG = ROOT / "tests" / "golden" / "a2_radius2.svg"
WORKLOADS = ("count", "paths", "oracle", "verify")
SETUP_RUNS = 11
JOB_TIMEOUT_S = 100.0
P90_MIN_JOBS = 100

SETUP_CODE = {
    "cli": "import alcovewalks.cli",
    "verify": (
        "from alcovewalks import LoopSL, QQ, from_label\n"
        "LoopSL(from_label('A2'), QQ)\n"
        "LoopSL(from_label('A3'), QQ)\n"
    ),
}
WORK_UNIT = {"count": "cells", "paths": "paths", "oracle": "runs", "verify": "steps"}

# per-layer ops; each gets .calls and .self_s
LAYER_OPS = (
    "cartan.weyl_mul", "cartan.weyl_inverse", "cartan.weyl_act", "cartan.from_label",
    "affine.mul", "affine.inverse", "affine.act", "affine.reduced_word", "affine.group_init",
    "folding.enumerate", "folding.cells_by_endpoint", "folding.count_poly",
    "ratfunc.rf_mul", "ratfunc.rf_add", "ratfunc.rf_make", "ratfunc.poly_gcd",
    "loopgroup.matmul", "loopgroup.matrix_inverse", "loopgroup.normalize",
    "loopgroup.execute", "loopgroup.check_state", "loopgroup.brute_force",
    "render.arrangement", "cli.main", "cli.serialize", "example8.run_checks",
)


# -- jobs and their output checks ------------------------------------------


@dataclass(frozen=True)
class Job:
    case: str
    argv: tuple[str, ...]  # CLI arguments after `alcovewalks`
    check: Callable[["Output"], str | None]  # failure reason, or None
    work: Callable[["Output"], int]
    out_file: str | None = None  # a file the CLI writes (render --out)


@dataclass
class Output:
    returncode: int
    stdout: bytes
    file_bytes: bytes | None


@dataclass
class JobResult:
    case: str
    seconds: float
    rss_kib: int
    stdout_bytes: int
    work: int
    error: str | None
    traced: bool = False
    spans: dict | None = None


def parse_count_polynomial(text: str) -> dict[int, int]:
    """Coefficients of a CountPolynomial as printed (e.g. q^3-2q^2+q)."""
    coeffs: dict[int, int] = {}
    if text == "0":
        return coeffs
    for term in re.findall(r"[+-]?[^+-]+", text):
        m = re.fullmatch(r"([+-]?)(\d*)(q(?:\^(\d+))?)?", term)
        if m is None or not (m.group(2) or m.group(3)):
            raise ValueError(f"cannot parse term {term!r} of {text!r}")
        sign = -1 if m.group(1) == "-" else 1
        exp = 0 if not m.group(3) else int(m.group(4) or 1)
        coeffs[exp] = coeffs.get(exp, 0) + sign * int(m.group(2) or 1)
    return coeffs


def _sums_to_q_power(polys, length: int) -> bool:
    total: dict[int, int] = {}
    for poly in polys:
        for exp, c in poly.items():
            total[exp] = total.get(exp, 0) + c
    return {e: c for e, c in total.items() if c} == {length: 1}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_count(entry: dict, length: int):
    def check(out: Output) -> str | None:
        if out.returncode != 0:
            return f"exit code {out.returncode}"
        lines = out.stdout.decode().splitlines()
        polys = [parse_count_polynomial(line.split("\t")[1]) for line in lines]
        if not _sums_to_q_power(polys, length):
            return f"count polynomials do not sum to q^{length}"
        if len(lines) != entry["cells"]:
            return f"{len(lines)} cells, expected {entry['cells']}"
        if _digest(out.stdout) != entry["sha256"]:
            return "stdout differs from the recorded output"
        return None

    return check


def check_paths(entry: dict, length: int):
    def check(out: Output) -> str | None:
        if out.returncode != 0:
            return f"exit code {out.returncode}"
        doc = json.loads(out.stdout)
        polys = [dict(enumerate(cell["count"])) for cell in doc["by_endpoint"]]
        if not _sums_to_q_power(polys, length):
            return f"by_endpoint counts do not sum to q^{length}"
        if len(doc["paths"]) != entry["paths"]:
            return f"{len(doc['paths'])} paths, expected {entry['paths']}"
        if _digest(out.stdout) != entry["sha256"]:
            return "stdout differs from the recorded output"
        return None

    return check


def check_file(expected_sha256: str):
    def check(out: Output) -> str | None:
        if out.returncode != 0:
            return f"exit code {out.returncode}"
        if out.file_bytes is None or _digest(out.file_bytes) != expected_sha256:
            return "SVG differs from the expected file"
        return None

    return check


def check_oracle(p: int, length: int):
    def check(out: Output) -> str | None:
        if out.returncode != 0:
            return f"exit code {out.returncode}"
        lines = out.stdout.decode().splitlines()
        if not lines or lines[-1] != "oracle agrees with the enumerator":
            return "oracle did not report agreement"
        rows = [line.split("\t") for line in lines[1:-1]]
        if any(len(row) != 4 or row[2] != row[3] for row in rows):
            return "a polynomial value differs from its brute-force tally"
        if sum(int(row[3]) for row in rows) != p**length:
            return f"brute-force column does not sum to {p}^{length}"
        return None

    return check


def _lines(out: Output) -> int:
    return out.stdout.count(b"\n")


def _paths_emitted(out: Output) -> int:
    return len(json.loads(out.stdout)["paths"])


def _no_work(out: Output) -> int:
    return 0


def load_cases() -> dict:
    return json.loads((BENCH / "cases.json").read_text())


def pick(cases: dict, seed: int) -> dict[tuple[str, str], dict]:
    """The pool entry each (workload, case) uses under this seed."""
    rng = random.Random(seed)
    picks = {}
    for workload in ("count", "paths", "oracle"):
        for case in cases[workload]:
            pool = case["pool"]
            picks[(workload, case["name"])] = pool[0] if seed == 0 else pool[rng.randrange(len(pool))]
    return picks


def build_round(workload: str, cases: dict, picks: dict, workdir: Path, quick: bool = False) -> list[Job]:
    """One round of CLI jobs; quick keeps only the smallest case."""
    jobs: list[Job] = []
    chosen = cases[workload][:1] if quick else cases[workload]
    for case in chosen:
        entry = picks[(workload, case["name"])]
        name, type_label, word = case["name"], case["type"], entry["word"]
        if workload == "count":
            jobs.append(Job(f"count:{name}", ("count", "--type", type_label, "--word", word),
                            check_count(entry, case["length"]), _lines))
        elif workload == "paths":
            jobs.append(Job(f"paths:{name}", ("paths", "--type", type_label, "--word", word),
                            check_paths(entry, case["length"]), _paths_emitted))
            if "render_sha256" in entry:
                svg = str(workdir / "end.svg")
                jobs.append(Job(f"render-end:{name}",
                                ("render", "--type", type_label, "--radius", "2", "--word", word,
                                 "--end", entry["largest_end"], "--out", svg),
                                check_file(entry["render_sha256"]), _no_work, svg))
        else:
            p = str(case["p"])
            jobs.append(Job(f"oracle:{name}", ("oracle", "--type", type_label, "--word", word, "--p", p),
                            check_oracle(case["p"], case["length"]),
                            lambda out, n=case["p"] ** case["length"]: n))
    if workload == "paths":
        svg = str(workdir / "golden.svg")
        golden = _digest(GOLDEN_SVG.read_bytes())
        jobs.append(Job("render:A2-radius2", ("render", "--type", "A2", "--radius", "2", "--out", svg),
                        check_file(golden), _no_work, svg))
    return jobs


# -- running children --------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


class Spawner:
    """The perfbench/spawner.py helper; every child of a run goes through it."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "spawner.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.wait()

    def spawn(self, argv: list[str], stdout_path: Path, stderr_path: Path) -> tuple[float, int, int]:
        """Run one child to completion: (wall seconds, exit code, peak RSS in KiB)."""
        request = {"argv": argv, "stdout": str(stdout_path), "stderr": str(stderr_path),
                   "cwd": str(ROOT), "env": child_env(), "timeout": JOB_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("perfbench/spawner.py exited")
        done = json.loads(reply)
        return done["seconds"], done["code"], done["maxrss_kib"]


def run_job(spawner: Spawner, job: Job, workdir: Path, traced: bool = False) -> JobResult:
    stdout_path, stderr_path = workdir / "stdout", workdir / "stderr"
    spans_path = workdir / "spans.json"
    if traced:
        argv = [sys.executable, str(BENCH / "traced_cli.py"), str(spans_path), *job.argv]
    else:
        argv = [sys.executable, "-m", "alcovewalks.cli", *job.argv]
    if job.out_file:
        Path(job.out_file).unlink(missing_ok=True)
    seconds, code, rss = spawner.spawn(argv, stdout_path, stderr_path)
    out = Output(code, stdout_path.read_bytes(),
                 Path(job.out_file).read_bytes() if job.out_file and Path(job.out_file).exists() else None)
    try:
        error = job.check(out)
        work = job.work(out) if error is None else 0
    except (ValueError, KeyError, IndexError, TypeError) as exc:  # unparsable output
        error, work = f"output check raised {exc!r}", 0
    if error and code != 0:
        error += ": " + stderr_path.read_text(errors="replace").strip()[-300:]
    spans = json.loads(spans_path.read_text()) if traced and spans_path.exists() else None
    spans_path.unlink(missing_ok=True)
    return JobResult(job.case, seconds, rss, len(out.stdout), work, error, traced, spans)


def measure_setup(spawner: Spawner, kind: str, workdir: Path) -> list[float]:
    """Fresh-process set-up times; one untimed warm-up fills the bytecode cache."""
    argv = [sys.executable, "-c", SETUP_CODE[kind]]
    times = []
    for i in range(SETUP_RUNS + 1):
        seconds, code, _ = spawner.spawn(argv, workdir / "stdout", workdir / "stderr")
        if code != 0:
            raise RuntimeError("set-up run failed: " + (workdir / "stderr").read_text()[-300:])
        if i:
            times.append(seconds)
    return times


def run_verify(spawner: Spawner, seed: int, seconds: float, trace: bool, workdir: Path,
               quick: bool) -> tuple[list[JobResult], int]:
    """The verify loop runs inside one worker child; its jobs share its peak RSS."""
    result_path, spans_path = workdir / "verify.json", workdir / "verify_spans.json"
    argv = [sys.executable, str(BENCH / "verify_worker.py"), "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace)), "--out", str(result_path),
            "--spans", str(spans_path)] + (["--quick"] if quick else [])
    _, code, rss = spawner.spawn(argv, workdir / "stdout", workdir / "stderr")
    if code != 0 or not result_path.exists():
        err = (workdir / "stderr").read_text(errors="replace")[-500:]
        return [JobResult("verify:worker", 0.0, rss, 0, 0, f"worker exit code {code}: {err}")], 0
    doc = json.loads(result_path.read_text())
    spans = json.loads(spans_path.read_text()) if trace else None
    results = [JobResult(j["case"], j["seconds"], rss, 0, j["steps"] if j["error"] is None else 0,
                         j["error"], j["traced"]) for j in doc["jobs"]]
    if spans is not None:  # attach the worker's whole trace to its first traced job
        next(r for r in results if r.traced).spans = spans
    return results, doc["rounds"]


@dataclass
class Run:
    workload: str
    seed: int
    results: list[JobResult] = field(default_factory=list)
    setup: list[float] = field(default_factory=list)
    rounds: int = 0


def run_workload(workload: str, seed: int, seconds: float, trace: bool, quick: bool = False) -> Run:
    run = Run(workload, seed)
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="perfbench-", dir=ROOT / ".bench_build"))
    try:
        with Spawner() as spawner:
            _run_rounds(run, spawner, workdir, seconds, trace, quick)
        return run
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_rounds(run: Run, spawner: Spawner, workdir: Path, seconds: float, trace: bool, quick: bool) -> None:
    if not trace:
        run.setup = measure_setup(spawner, "verify" if run.workload == "verify" else "cli", workdir)
    if run.workload == "verify":
        run.results, run.rounds = run_verify(spawner, run.seed, seconds, trace, workdir, quick)
        return
    cases = load_cases()
    jobs = build_round(run.workload, cases, pick(cases, run.seed), workdir, quick)
    start = time.perf_counter()
    while True:
        for job in jobs:
            run.results.append(run_job(spawner, job, workdir))
            if trace:
                run.results.append(run_job(spawner, job, workdir, traced=True))
        run.rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / run.rounds > seconds:
            return


# -- metrics -------------------------------------------------------------------


def end_to_end(run: Run) -> dict[str, tuple[float, str]]:
    plain = [r for r in run.results if not r.traced]
    busy = sum(r.seconds for r in plain)
    return {
        "setup_s": (statistics.median(run.setup), "s"),
        "job_s.p50": (statistics.median(r.seconds for r in plain), "s"),
        "work_per_s": (sum(r.work for r in plain) / busy if busy else 0.0, "1/s"),
        "peak_rss_mib": (max(r.rss_kib for r in plain) / 1024, "MiB"),
    }


def p90(run: Run) -> tuple[float, int] | None:
    """job_s.p90 with its sample count, only when enough jobs ran for it."""
    times = [r.seconds for r in run.results if not r.traced]
    if len(times) < P90_MIN_JOBS:
        return None
    return statistics.quantiles(times, n=10)[-1], len(times)


def per_layer(run: Run) -> dict[str, tuple[float, str]]:
    calls: dict[str, int] = {op: 0 for op in LAYER_OPS}
    self_s: dict[str, float] = {op: 0.0 for op in LAYER_OPS}
    counts: dict[str, int] = {}
    for r in run.results:
        if not r.spans:
            continue
        for op, _parent, n, _total, own in r.spans["agg"]:
            calls[op] = calls.get(op, 0) + n
            self_s[op] = self_s.get(op, 0.0) + own
        for key, value in r.spans["counts"].items():
            counts[key] = counts.get(key, 0) + value
    traced = [r for r in run.results if r.traced]
    plain_s = sum(r.seconds for r in run.results if not r.traced)

    def ratio(num: float, base: float) -> float:
        return num / base if base else 0.0

    out: dict[str, tuple[float, str]] = {}
    for op in LAYER_OPS:
        out[f"{op}.calls"] = (calls[op], "count")
        out[f"{op}.self_s"] = (self_s[op], "s")
    cells = counts.get("folding.cells", 0)
    out.update({
        "affine.reduced_word.calls_per_cell": (ratio(calls["affine.reduced_word"], cells), "ratio"),
        "folding.paths.count": (counts.get("folding.paths", 0), "count"),
        "folding.cells.count": (cells, "count"),
        "ratfunc.poly_gcd.trivial_ratio": (
            ratio(counts.get("ratfunc.poly_gcd.trivial", 0), calls["ratfunc.poly_gcd"]), "ratio"),
        "loopgroup.matmul.per_step": (
            ratio(calls["loopgroup.matmul"], counts.get("loopgroup.steps", 0)), "ratio"),
        "loopgroup.normalize_errors.count": (counts.get("loopgroup.normalize.errors", 0), "count"),
        "render.svg_bytes": (counts.get("render.svg_bytes", 0), "B"),
        "cli.stdout_bytes": (sum(r.stdout_bytes for r in traced), "B"),
        "trace.overhead_ratio": (ratio(sum(r.seconds for r in traced), plain_s), "ratio"),
    })
    return out


def absent_symbols(run: Run) -> list[str]:
    return sorted({name for r in run.results if r.spans for name in r.spans["absent"]})


def summary(run: Run, trace: bool) -> dict:
    failed = sum(1 for r in run.results if r.error)
    metrics = per_layer(run) if trace else end_to_end(run)
    return {
        "correct": failed == 0,
        "attempted": len(run.results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def report(run: Run, result: dict, trace: bool) -> list[str]:
    """Human-readable lines printed before the JSON result."""
    lines = [f"workload {run.workload} seed {run.seed} rounds {run.rounds} "
             f"jobs {result['attempted']} failed {result['failed']} "
             f"error_rate {result['failed'] / result['attempted']:.4f}"]
    by_case: dict[str, list[JobResult]] = {}
    for r in run.results:
        if not r.traced:
            by_case.setdefault(r.case, []).append(r)
    for case, rs in by_case.items():
        lines.append(f"  case {case}: jobs {len(rs)} median_s {statistics.median(r.seconds for r in rs):.4f} "
                     f"work {rs[0].work} {WORK_UNIT[run.workload]} stdout_bytes {rs[0].stdout_bytes}")
    for r in run.results:
        if r.error:
            lines.append(f"  FAILED {r.case}{' (traced)' if r.traced else ''}: {r.error}")
    if not trace:
        tail = p90(run)
        if tail is not None:
            lines.append(f"  job_s.p90 {tail[0]:.6f} s (n={tail[1]})")
        lines.append(f"  work_per_s counts {WORK_UNIT[run.workload]} per second")
    else:
        for name in absent_symbols(run):
            lines.append(f"  absent: {name}")
    for name, m in result["metrics"].items():
        lines.append(f"  {name} {m['value']} {m['unit']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in (ROOT / "src" / "alcovewalks" / "cli.py", GOLDEN_SVG, BENCH / "cases.json")
               if not p.is_file()]
    if missing:
        print("perfbench: missing " + ", ".join(str(p) for p in missing)
              + "; run from a full checkout of the repository", file=sys.stderr)
        return 2
    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    result = summary(run, bool(args.trace))
    for line in report(run, result, bool(args.trace)):
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
