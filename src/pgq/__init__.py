"""Exact-arithmetic toolkit for prime-graph verdicts on finite groups.

Submodules:
    cyclotomic  exact elements of Q(zeta_n), Galois action, traces
    tableaux    partitions, skew tableaux, LR coefficients, lemma verifiers
    helpmethod  eigenvalue-multiplicity formula and integer feasibility
    brauer      signed Brauer trees, the main inequality, prime-pair verdicts
    numtheory   squarefree sieves, rho, the Euler-product constant, Li,
                Lie-type order formulas
    fixtures    bundled validated data files
    cli         the `pgq` command-line front end

pgq never calls BLAS, so it loads numpy with one OpenBLAS thread unless
OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or OMP_NUM_THREADS is set; a host
program that wants threaded BLAS sets one of them or imports numpy first.
"""

import os
import sys

# Every pgq array is an integer array: no matrix product, no linalg.  OpenBLAS
# reads these variables once, when numpy loads it, and otherwise starts one
# worker per core, which costs a cold process tens of ms of CPU for nothing.
# The variable is set only for that load, so os.environ ends as it was found.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in sys.modules and not any(v in os.environ for v in _BLAS_THREAD_VARS):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .cyclotomic import CyclotomicElement, parse_cyclotomic, zeta
from .tableaux import (
    ModulePartition,
    SkewShape,
    SkewTableau,
    gamma,
    lr_coefficient,
    submodule_quotient_exists,
)
from .helpmethod import (
    CharacterTableSlice,
    PartialAugmentationVector,
    feasible_partial_augmentations,
    lupa_multiplicity,
    trivial_pa,
)
from .brauer import (
    BrauerTreeSpec,
    GroupArithmeticProfile,
    group_verdict_table,
    main_inequality_holds,
    pq_edge_verdict,
    signed_vertex_sum,
    validate_tree,
)
from .numtheory import (
    FactoredInteger,
    LieSeriesSpec,
    alpha,
    constant_c,
    count_N,
    cyclotomic_value,
    li,
    lie_order,
    lie_series_verdict,
    rho,
)

__version__ = "0.1.0"
