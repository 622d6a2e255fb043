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
"""

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
