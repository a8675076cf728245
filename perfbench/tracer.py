"""Outside-in tracer for the alcovewalks package.

The tracer wraps public functions of the package from the outside: it
replaces each traced callable with a wrapper at every place the package
looks it up (the class attribute, the defining module, and every module
that imported the name).  The package itself is not edited.

Each call records a span (op, start, end, parent op).  Hot ops are called
hundreds of thousands of times, so spans are aggregated per (op, parent)
into calls, total seconds and self seconds; the few cold ops also keep
their individual spans.  Self time is a span's duration minus the time
covered by its child spans.

A traced symbol that no longer exists is listed as absent, not an error.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import json
import sys
import time

# (op, module, attribute path); several entries may share one op
TRACED = (
    ("cartan.weyl_mul", "alcovewalks.cartan", "FiniteWeylElement.__mul__"),
    ("cartan.weyl_inverse", "alcovewalks.cartan", "FiniteWeylElement.inverse"),
    ("cartan.weyl_act", "alcovewalks.cartan", "FiniteWeylElement.act_root"),
    ("cartan.weyl_act", "alcovewalks.cartan", "FiniteWeylElement.act_coweight"),
    ("cartan.from_label", "alcovewalks.cartan", "from_label"),
    ("affine.mul", "alcovewalks.affine", "AffineWeylElement.__mul__"),
    ("affine.inverse", "alcovewalks.affine", "AffineWeylElement.inverse"),
    ("affine.act", "alcovewalks.affine", "AffineWeylElement.act"),
    ("affine.reduced_word", "alcovewalks.affine", "AffineWeylGroup.reduced_word"),
    ("affine.group_init", "alcovewalks.affine", "AffineWeylGroup.__init__"),
    ("folding.enumerate", "alcovewalks.folding", "enumerate_folded_paths"),
    ("folding.cells_by_endpoint", "alcovewalks.folding", "cells_by_endpoint"),
    ("folding.count_poly", "alcovewalks.folding", "count_polynomial"),
    ("ratfunc.rf_mul", "alcovewalks.ratfunc", "RationalFunction.__mul__"),
    ("ratfunc.rf_add", "alcovewalks.ratfunc", "RationalFunction.__add__"),
    ("ratfunc.rf_add", "alcovewalks.ratfunc", "RationalFunction.__sub__"),
    ("ratfunc.rf_make", "alcovewalks.ratfunc", "RationalFunction.make"),
    ("ratfunc.poly_gcd", "alcovewalks.ratfunc", "poly_gcd"),
    ("loopgroup.matmul", "alcovewalks.loopgroup", "GroupMatrix.__matmul__"),
    ("loopgroup.matrix_inverse", "alcovewalks.loopgroup", "GroupMatrix.inverse"),
    ("loopgroup.normalize", "alcovewalks.loopgroup", "LoopSL.iwahori_normalize"),
    ("loopgroup.execute", "alcovewalks.loopgroup", "LoopSL.execute_folding"),
    ("loopgroup.check_state", "alcovewalks.loopgroup", "LoopSL._check_state"),
    ("loopgroup.brute_force", "alcovewalks.loopgroup", "brute_force_cells"),
    ("render.arrangement", "alcovewalks.render", "render_arrangement"),
    ("cli.main", "alcovewalks.cli", "main"),
    ("cli.serialize", "alcovewalks.folding", "paths_to_json"),
    ("cli.serialize", "alcovewalks.cli", "canonical_json"),
    ("example8.run_checks", "alcovewalks.example8", "run_checks"),
)

# ops called a handful of times per job: their spans are kept one by one
COLD = frozenset({
    "cartan.from_label", "folding.enumerate", "folding.cells_by_endpoint",
    "loopgroup.brute_force", "render.arrangement", "cli.main", "cli.serialize",
    "example8.run_checks",
})


def _count_paths(tracer, args, kwargs, result):
    tracer.counts["folding.paths"] += len(result)


def _count_cells(tracer, args, kwargs, result):
    tracer.counts["folding.cells"] += len(result)


def _count_trivial_gcd(tracer, args, kwargs, result):
    if len(getattr(result, "coeffs", ())) <= 1:
        tracer.counts["ratfunc.poly_gcd.trivial"] += 1


def _count_steps(tracer, args, kwargs, result):
    word = args[1] if len(args) > 1 else kwargs["word"]
    tracer.counts["loopgroup.steps"] += len(tuple(word))


def _count_svg(tracer, args, kwargs, result):
    tracer.counts["render.svg_bytes"] += len(result.encode())


ON_RESULT = {
    "folding.enumerate": _count_paths,
    "folding.cells_by_endpoint": _count_cells,
    "ratfunc.poly_gcd": _count_trivial_gcd,
    "loopgroup.execute": _count_steps,
    "render.arrangement": _count_svg,
}


class Tracer:
    """Spans of the traced ops of one process, kept in memory."""

    def __init__(self):
        self.stack: list[list] = []  # [op, start, seconds covered by children]
        self.agg: dict[tuple[str, str | None], list] = {}  # -> [calls, total_s, self_s]
        self.spans: list[tuple[str, float, float, str | None]] = []
        self.counts = collections.Counter()
        self.absent: list[str] = []
        self._replaced: list[tuple[object, str, object]] = []

    def wrap(self, op: str, fn):
        stack, agg, spans, clock = self.stack, self.agg, self.spans, time.perf_counter
        on_result = ON_RESULT.get(op)
        cold = op in COLD

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [op, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[op + ".errors"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                rec = agg.get((op, parent))
                if rec is None:
                    rec = agg[(op, parent)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += duration
                rec[2] += duration - frame[2]
                if cold:
                    spans.append((op, frame[1], end, parent))
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        return traced

    def _replace(self, owner, attr: str, value) -> None:
        self._replaced.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Import the package and replace every traced callable."""
        importlib.import_module("alcovewalks.cli")
        self.absent = []
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "alcovewalks" or name.startswith("alcovewalks."))]
        for op, module_name, path in TRACED:
            owner = sys.modules.get(module_name)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            raw = inspect.getattr_static(owner, attr, None) if owner is not None else None
            if raw is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            if isinstance(raw, (staticmethod, classmethod)):
                self._replace(owner, attr, type(raw)(self.wrap(op, raw.__func__)))
                continue
            wrapped = self.wrap(op, raw)
            if inspect.isclass(owner):
                self._replace(owner, attr, wrapped)
                continue
            for module in modules:  # every module that looks the function up by name
                for name, value in list(vars(module).items()):
                    if value is raw:
                        self._replace(module, name, wrapped)

    def uninstall(self) -> None:
        """Put back every callable install() replaced."""
        while self._replaced:
            owner, attr, value = self._replaced.pop()
            setattr(owner, attr, value)

    def to_json(self) -> dict:
        return {
            "agg": [[op, parent, *rec] for (op, parent), rec in self.agg.items()],
            "spans": self.spans,
            "counts": dict(self.counts),
            "absent": self.absent,
        }

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh)
