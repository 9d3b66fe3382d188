"""Exact transformation brackets between the spherical and deformed boson chains.

The spherical chain diagonalizes the non-scalar boson count; the deformed
chain diagonalizes the rotation algebra one dimension up.  This package
computes the orthogonal change of basis between them in exact quadratic-surd
arithmetic for any dimension nu >= 2, certifies every value against an
independent symbolic Fock-space construction, and transforms operator matrix
elements between the bases.
"""

from .brackets import (
    BracketTable,
    Convention,
    bracket,
    bracket_expanded,
    bracket_pochhammer,
    bracket_sigma_eq_N,
    coeff_A,
    coeff_B,
    coeff_F,
    gegenbauer_coeffs,
    table,
    verify_F_via_gegenbauer,
)
from .exactnum import (
    DomainError,
    GaussianRational,
    SurdSumError,
    SurdValue,
    binomial,
    current_backend,
    double_factorial,
    pochhammer,
    rational,
)
from .fockoracle import (
    BosonOperator,
    CasimirGroup,
    FockState,
    KernelError,
    NormalizedState,
    apply,
    build_chain1_state,
    build_chain2_state,
    casimir_apply,
    casimir_check,
    inner,
    is_exact_eigenstate,
    oracle_bracket,
    seed_state,
    state_to_json,
    su11_commutator_check,
)
from .labels import (
    ChainILabel,
    ChainIILabel,
    LabelError,
    QuasiSpinLabel,
    UnsupportedDimensionError,
    bracket_index_set,
    enumerate_chain1,
    enumerate_chain2,
    quasispin_labels,
)
from .transform import (
    DeformedMatrix,
    OperatorSpec,
    SphericalMatrix,
    deformed_matrix,
    deformed_matrix_oracle,
    spherical_matrix,
)

__version__ = "0.1.0"
