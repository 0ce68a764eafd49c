"""Product-type states on non-commutative polynomials, in exact arithmetic.

The package builds states on polynomials in non-commuting variables from a
hereditary subtree of the binary tree plus two one-variable states, computes
their monic orthogonal polynomial bases, joint moments, Gram matrices, and
branched / matricial continued-fraction expansions, and cross-checks all of
it against direct-definition reference states.
"""

from .jacobi import JacobiData, jacobi_from_json, jacobi_to_json, moment, orthogonal_polynomial, preset
from .ncpoly import (
    NCPolynomial,
    NCSeries,
    Word,
    format_rational,
    parse_rational,
    word_postfixes,
    words_up_to,
)
from .omega import (
    BUILTIN_OMEGAS,
    OmegaTree,
    OmegaValidationError,
    builder,
    is_associative,
    omega_from_json,
    omega_squared,
    validate,
)
from .prodstate import (
    CoefficientMap,
    DepthExhaustedError,
    StateEvaluator,
    basis_polynomial,
    cfree_basis_polynomial,
    cfree_map,
    explicit_map,
    gram_matrix,
    left_multiply,
    moment_table,
    product_type_map,
    recursion_basis,
)
from .cfrac import (
    MatricialData,
    block_extract,
    classical_cf,
    matricial_cf,
    matricial_from_map,
    render_branched_cf,
    scalar_branched_cf,
)
from .oracle import (
    MopsResult,
    antimonotone_state,
    boolean_state,
    cfree_state,
    free_state,
    functional_inner,
    gram_schmidt_mops,
    monotone_state,
    q_gaussian_state,
    tensor_state,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
