"""Exact verification of inner 2-local derivations on matrix rings.

Finite exact-arithmetic base rings, the matrix ring machinery built on
them, witness oracles and linear-algebra witness search over Z_m, single-element
witness extraction, corner-to-full extension of derivations and 2-local
derivations, and two-generated subring checks, all wired into a
deterministic batch CLI (``adlocal``).
"""

from .deriv import (
    DerivationMap,
    Failure,
    VerificationReport,
    WitnessOracle,
    adversarial_oracle,
    check_derivation,
    check_two_local,
    inner_derivation,
    maps_equal,
    pair_oracle,
    verification_domain,
    verification_elements,
    witness_search,
)
from .errors import (
    AdlocalError,
    CarrierTooLargeError,
    ClosureBudgetError,
    DimensionError,
    InconsistentOracleError,
    MissingWitnessError,
    NonCommutativeBaseError,
    PreconditionError,
    ShapeMismatchError,
    VerificationFailedError,
)
from .extend import (
    double_derivation,
    extend_derivation_to_n,
    extend_extract_compress,
    extend_two_local_to_n,
)
from .extract import (
    assemble_offdiagonal,
    collect_unit_witnesses,
    extract_witness,
    verify_diagonal_differences,
    verify_unit_image_formula,
)
from .matrix import (
    Matrix,
    MatrixRing,
    block_flatten,
    commutator,
    corner_embed,
    corner_extract,
    identity_matrix,
    matrix_index,
    matrix_ring,
    matrix_to_strings,
    matrix_unit,
    pierce_component,
    staircase,
    zero_matrix,
)
from .rings import (
    PolyQuot,
    Ring,
    Zmod,
    is_commutative,
    parse_ring_spec,
    polyquot,
    ring_axiom_check,
    zmod,
)
from .twogen import GeneratedSubring, check_inner_on_subring, generate_subring

__version__ = "0.1.0"
