"""In-process library loop of the `verify` workload (run by perfbench/run.py).

    python perfbench/verify_worker.py --seed S --seconds T --trace 0|1 --out RESULT.json --spans SPANS.json

Set-up builds LoopSL(A2, QQ) and LoopSL(A3, QQ) once.  A round is
example8.run_checks() plus one validated executor run per (type, length)
for A2 and A3 and lengths 8..12, on a fresh seeded random reduced word with
small Fraction labels (about a third of them zero, so folds, zero crossings
and positive crossings all occur).  Every round has the same composition,
so rounds differ only in their random draws.

Each job times only the library call.  Its checks run afterwards:
example8 must pass every assertion, and an executor run must finish
without error and its step kinds must match exactly one folded path of the
word ending at state.v.  With --trace 1 each round runs untraced, then
again traced on the same inputs.
"""

from __future__ import annotations

import argparse
import json
import random
import time
from fractions import Fraction

from alcovewalks import LoopSL, QQ, AffineWeylGroup, enumerate_folded_paths, example8, from_label

from tracer import Tracer

TYPES = ("A2", "A3")
LENGTHS = (8, 9, 10, 11, 12)
QUICK_LENGTHS = (3, 4)


def random_reduced_word(group: AffineWeylGroup, rng: random.Random, length: int) -> tuple[int, ...]:
    """Extend by a letter that is not a right descent, so the word stays reduced."""
    h, word = group.identity(), []
    while len(word) < length:
        descents = group.right_descents(h)
        j = rng.choice([i for i in range(group.rank + 1) if i not in descents])
        word.append(j)
        h = h * group.simple_reflection(j)
    return tuple(word)


def random_labels(rng: random.Random, length: int) -> tuple[Fraction, ...]:
    return tuple(
        Fraction(0) if rng.random() < 1 / 3
        else Fraction(rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)), rng.randint(1, 4))
        for _ in range(length)
    )


def draw_round(rng: random.Random, groups: dict, lengths) -> list[tuple]:
    jobs = [("example8", None, None, None)]
    for label in TYPES:
        for length in lengths:
            word = random_reduced_word(groups[label], rng, length)
            jobs.append((f"executor:{label}", label, word, random_labels(rng, length)))
    return jobs


def check_executor(group, word, state) -> str | None:
    kinds = tuple(k.value for k in state.kinds)
    matches = [
        p for p in enumerate_folded_paths(group, word)
        if p.endpoint == state.v and tuple(k.value for k in p.kinds) == kinds
    ]
    if len(matches) != 1:
        return f"{len(matches)} folded paths match the executor's kinds and endpoint"
    return None


def run_job(job, loops: dict, groups: dict, traced: bool) -> dict:
    case, label, word, labels = job
    steps = len(example8.WORD) if label is None else len(word)
    error = None
    start = time.perf_counter()
    try:
        if label is None:
            checks = example8.run_checks()
        else:
            state = loops[label].execute_folding(word, labels, validate=True)
    except Exception as exc:  # a failed run is counted, not fatal
        seconds = time.perf_counter() - start
        error = f"{type(exc).__name__}: {exc}"
    else:
        seconds = time.perf_counter() - start
        if label is None:
            failed = [name for name, ok, _ in checks if not ok]
            error = f"example8 failed: {failed}" if failed or not checks else None
        else:
            error = check_executor(groups[label], word, state)
    return {"case": case, "seconds": seconds, "steps": steps, "error": error, "traced": traced}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()

    loops = {label: LoopSL(from_label(label), QQ) for label in TYPES}
    groups = {label: AffineWeylGroup(from_label(label)) for label in TYPES}
    rng = random.Random(args.seed)
    lengths = QUICK_LENGTHS if args.quick else LENGTHS
    tracer = Tracer() if args.trace else None
    results, rounds = [], 0
    start = time.perf_counter()
    while True:
        jobs = draw_round(rng, groups, lengths)
        results += [run_job(job, loops, groups, False) for job in jobs]
        if tracer is not None:
            tracer.install()
            try:
                results += [run_job(job, loops, groups, True) for job in jobs]
            finally:
                tracer.uninstall()
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > args.seconds:
            break
    with open(args.out, "w") as fh:
        json.dump({"jobs": results, "rounds": rounds}, fh)
    if tracer is not None:
        tracer.dump(args.spans)


if __name__ == "__main__":
    main()
