"""Exact calculus on tensor products of quantum sl2 modules.

The package computes, over Z[q^(1/2), q^(-1/2)] with no approximation:
standard and canonical bases of the tensor modules Lambda_d, the bar
involution through the quasi-R-matrix, split expansions across a cut,
the refinement embedding into Lambda_(1,...,1), and R-matrices with
their braid relations.  Every structural identity is also available as
a runnable verification suite (see qsl2.verify and the qsl2 CLI).
"""

from .errors import (
    AlgebraError,
    AmbientMismatchError,
    ConventionUnderdeterminedError,
    EmbeddingCheckFailedError,
    HalfPowerLeakError,
    IntegralityViolationError,
    InverseCheckFailedError,
    NonDivisibleError,
    NonReducedWordError,
    NonzeroConstantTermError,
    ObstructionNotAntisymmetricError,
    TotalMismatchError,
    TriangularityViolationError,
)
from .qring import (
    Laurent,
    ONE,
    Q,
    QINV,
    ZERO,
    exact_div,
    q_half,
    q_power,
    quantum_binomial,
    quantum_factorial,
    quantum_integer,
)
from .modules import (
    LinMap,
    ModuleVector,
    act_E,
    act_F,
    act_K,
    act_divided,
    enumerate_basis,
    gram_entry,
    inner_product,
    rho_twist,
    tensor,
)
from .orbits import (
    cell_count,
    closure_leq,
    covering_relations,
    dense_cell,
    linear_extension,
    orbit_dim,
)

from .canonical import (
    CanonicalTable,
    SplitTable,
    bar_involution,
    canonical_basis,
    canonical_coords,
    clear_caches,
    compute_quasi_r,
    embed_refine,
    split_expand,
)
from .rmatrix import (
    PermWord,
    lift_word,
    matrix_in_basis,
    r_minus_pair,
    r_move,
    r_plus_pair,
)
from .verify import SuiteResult, compositions, run_all

__all__ = [
    "AlgebraError",
    "AmbientMismatchError",
    "CanonicalTable",
    "ConventionUnderdeterminedError",
    "EmbeddingCheckFailedError",
    "HalfPowerLeakError",
    "IntegralityViolationError",
    "InverseCheckFailedError",
    "Laurent",
    "LinMap",
    "ModuleVector",
    "NonDivisibleError",
    "NonReducedWordError",
    "NonzeroConstantTermError",
    "ObstructionNotAntisymmetricError",
    "ONE",
    "PermWord",
    "Q",
    "QINV",
    "SplitTable",
    "SuiteResult",
    "TotalMismatchError",
    "TriangularityViolationError",
    "ZERO",
    "act_divided",
    "act_E",
    "act_F",
    "act_K",
    "bar_involution",
    "canonical_basis",
    "canonical_coords",
    "cell_count",
    "clear_caches",
    "closure_leq",
    "compositions",
    "compute_quasi_r",
    "covering_relations",
    "dense_cell",
    "embed_refine",
    "enumerate_basis",
    "exact_div",
    "gram_entry",
    "inner_product",
    "lift_word",
    "linear_extension",
    "matrix_in_basis",
    "orbit_dim",
    "q_half",
    "q_power",
    "quantum_binomial",
    "quantum_factorial",
    "quantum_integer",
    "r_minus_pair",
    "r_move",
    "r_plus_pair",
    "rho_twist",
    "run_all",
    "split_expand",
    "tensor",
]

__version__ = "0.1.0"
