"""Exact-arithmetic alcove walks for affine flag cells.

Layers, bottom up:

  cartan     finite-type Cartan data, roots, the finite Weyl group
  affine     affine roots, the affine Weyl group, words
  folding    folded path enumeration and q-point count polynomials
  ratfunc    exact scalars and Laurent polynomials in F[t, t^-1]
  matrices   square matrices over F[t, t^-1]: products, determinant,
             inverse, two-row and two-column products, membership tests
  loopgroup  SL_n realization, executor, brute-force oracle
  render     deterministic SVG pictures of rank <= 2 arrangements
  cli        command line front end

`cartan`, `affine` and `folding` load with the package.  `ratfunc`,
`matrices`, `loopgroup` and `render` are registered in `sys.modules` and
as attributes of the package at once, but their code is compiled and run
only on the first attribute access, so `count` and `paths`, which use
none of them, do not pay for them at start-up.  Unlike imports inside the
functions that use them, this keeps every layer in `sys.modules`, where
perfbench/tracer.py finds the functions it hooks.  Their names in `__all__`
(`LoopSL`, `QQ`, ...) are served on first use by the module `__getattr__`.
`ratfunc` binds the standard library's `fractions` the same way, so only
the rationals QQ load it, and F_p never does.
"""

import importlib.util
import sys

from .cartan import (
    CartanDatum,
    CartanError,
    Coweight,
    FiniteRoot,
    FiniteWeylElement,
    from_label,
    validate_cartan,
)
from .affine import (
    AffineRoot,
    AffineWeylElement,
    AffineWeylGroup,
    is_iwahori_positive,
    is_uminus_positive,
)
from .folding import (
    Cell,
    CountPolynomial,
    FoldedPath,
    StepKind,
    cells_by_endpoint,
    count_polynomial,
    endpoint_counts,
    enumerate_folded_paths,
)


def _lazy(name: str):
    """Module `name`, absolute or relative to this package, registered
    without running it: LazyLoader runs its code on the first attribute
    access.  A module already in sys.modules is returned as it is."""
    name = importlib.util.resolve_name(name, __name__)
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


ratfunc, matrices, loopgroup, render = map(_lazy, (".ratfunc", ".matrices", ".loopgroup", ".render"))

# the names of __all__ that a lazily loaded layer defines
_LAZY_NAMES = {
    **dict.fromkeys(("PrimeField", "QQ", "RationalFunction"), ratfunc),
    **dict.fromkeys(
        ("ExecutorState", "GroupMatrix", "LoopSL", "brute_force_cells",
         "in_iwahori", "in_uminus", "is_monomial"),
        loopgroup,
    ),
}


def __getattr__(name: str):
    if name in _LAZY_NAMES:
        return getattr(_LAZY_NAMES[name], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))


__all__ = [
    "AffineRoot",
    "AffineWeylElement",
    "AffineWeylGroup",
    "CartanDatum",
    "CartanError",
    "Cell",
    "CountPolynomial",
    "Coweight",
    "ExecutorState",
    "FiniteRoot",
    "FiniteWeylElement",
    "FoldedPath",
    "GroupMatrix",
    "LoopSL",
    "PrimeField",
    "QQ",
    "RationalFunction",
    "StepKind",
    "brute_force_cells",
    "cells_by_endpoint",
    "count_polynomial",
    "endpoint_counts",
    "enumerate_folded_paths",
    "from_label",
    "in_iwahori",
    "in_uminus",
    "is_iwahori_positive",
    "is_monomial",
    "is_uminus_positive",
    "validate_cartan",
]
