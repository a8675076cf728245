"""Generate perfbench/cases.json: the inputs every seed may draw, with the
outputs this commit's CLI gives for them.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_cases.py

Each count/paths case is a translation t_lam (or, for E6, the element of a
fixed word prefix).  Its pool holds the canonical reduced word first and
then other reduced words of the same element: every word of one element
has the same endpoints, so the work per job stays comparable across seeds
while the input changes.  The recorded stdout digests are what the
benchmark checks against, because CLI output must stay byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

from alcovewalks import AffineWeylElement, AffineWeylGroup, Coweight, from_label

ROOT = Path(__file__).resolve().parent.parent
POOL = 8

# (name, type, lambda, prefix length or None, pool size); the first case
# of each workload is its smallest, which the self-test's quick mode runs.
# E6 keeps only its canonical word: its other reduced words give the same
# paths and cells but differ by up to 25% in peak RSS and time, which would
# make the seed, not the program, move the metrics.
COUNT_CASES = (
    ("C3", "C3", (-3, -3, -3), None, POOL),
    ("A2", "A2", (-8, -8), None, POOL),
    ("A3", "A3", (-4, -4, -4), None, POOL),
    ("E6", "E6", (-1,) * 6, 14, 1),
)
PATHS_CASES = (
    ("B2", "B2", (-8, -8), None, POOL),
    ("A2", "A2", (-8, -8), None, POOL),
)
# (name, type, baseline word, p): the pool is the word and its image under
# the finite Dynkin diagram flip i -> n + 1 - i, which fixes the affine
# node, so both words give the same executor work.
ORACLE_CASES = (
    ("A3", "A3", (3, 2, 1, 0), 2),
    ("A2", "A2", (2, 1, 0, 2, 0), 3),
)


def cli(*argv: str) -> bytes:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "alcovewalks.cli", *argv],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, check=True,
    )
    return done.stdout


def word_text(word) -> str:
    return ",".join(str(i) for i in word)


def element_words(group: AffineWeylGroup, element, rng: random.Random) -> list[tuple[int, ...]]:
    """The canonical reduced word, then POOL - 1 further distinct ones."""
    words = [group.reduced_word(element)]
    for _ in range(200):
        if len(words) == POOL:
            break
        h, tail = element, []
        while not h.is_identity():
            i = rng.choice(group.right_descents(h))
            tail.append(i)
            h = h * group.simple_reflection(i)
        word = tuple(reversed(tail))
        if word not in words:
            words.append(word)
    return words


def case_element(type_label, lam, prefix):
    datum = from_label(type_label)
    group = AffineWeylGroup(datum)
    element = AffineWeylElement(Coweight(lam), datum.identity_weyl())
    if prefix is not None:
        element = group.from_word(group.reduced_word(element)[:prefix])
    return group, element


def count_case(rng, name, type_label, lam, prefix, size) -> dict:
    group, element = case_element(type_label, lam, prefix)
    pool = []
    for word in element_words(group, element, rng)[:size]:
        out = cli("count", "--type", type_label, "--word", word_text(word))
        pool.append({
            "word": word_text(word),
            "cells": out.count(b"\n"),
            "sha256": hashlib.sha256(out).hexdigest(),
        })
        print(name, pool[-1], file=sys.stderr, flush=True)
    return {"name": name, "type": type_label, "lam": list(lam), "prefix": prefix,
            "length": group.length(element), "pool": pool}


def paths_case(rng, name, type_label, lam, prefix, size) -> dict:
    group, element = case_element(type_label, lam, prefix)
    pool = []
    for word in element_words(group, element, rng)[:size]:
        out = cli("paths", "--type", type_label, "--word", word_text(word))
        doc = json.loads(out)
        sizes: dict[str, int] = {}
        for p in doc["paths"]:
            key = json.dumps(p["end"], sort_keys=True)
            sizes[key] = sizes.get(key, 0) + 1
        largest = max(sizes, key=lambda k: sizes[k])  # first of the largest, in output order
        entry = {
            "word": word_text(word),
            "paths": len(doc["paths"]),
            "cells": len(doc["by_endpoint"]),
            "bytes": len(out),
            "sha256": hashlib.sha256(out).hexdigest(),
            "largest_end": largest,
            "largest_paths": sizes[largest],
        }
        if type_label == "A2":
            svg_path = ROOT / ".bench_build" / "make_cases.svg"
            svg_path.parent.mkdir(exist_ok=True)
            cli("render", "--type", type_label, "--radius", "2", "--word", entry["word"],
                "--end", largest, "--out", str(svg_path))
            entry["render_sha256"] = hashlib.sha256(svg_path.read_bytes()).hexdigest()
            svg_path.unlink()
        pool.append(entry)
        print(name, {k: v for k, v in entry.items() if k != "largest_end"}, file=sys.stderr, flush=True)
    return {"name": name, "type": type_label, "lam": list(lam), "prefix": prefix,
            "length": group.length(element), "pool": pool}


def oracle_case(name, type_label, word, p) -> dict:
    n = from_label(type_label).size
    mirror = tuple(i if i == 0 else n + 1 - i for i in word)
    pool = [{"word": word_text(w)} for w in (word, mirror)]
    return {"name": name, "type": type_label, "p": p, "length": len(word), "pool": pool}


def main() -> None:
    rng = random.Random(20080107)
    doc = {
        "count": [count_case(rng, *c) for c in COUNT_CASES],
        "paths": [paths_case(rng, *c) for c in PATHS_CASES],
        "oracle": [oracle_case(*c) for c in ORACLE_CASES],
    }
    out = Path(__file__).resolve().parent / "cases.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
