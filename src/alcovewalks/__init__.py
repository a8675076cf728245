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
"""

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
from .ratfunc import PrimeField, QQ, RationalFunction
from .loopgroup import (
    ExecutorState,
    GroupMatrix,
    LoopSL,
    brute_force_cells,
    in_iwahori,
    in_uminus,
    is_monomial,
)

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
