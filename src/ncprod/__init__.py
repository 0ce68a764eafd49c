"""Product-type states on non-commutative polynomials, in exact arithmetic.

The package builds states on polynomials in non-commuting variables from a
hereditary subtree of the binary tree plus two one-variable states, computes
their monic orthogonal polynomial bases, joint moments, Gram matrices, and
branched / matricial continued-fraction expansions, and cross-checks all of
it against direct-definition reference states.

Every public name is importable from the package, but each is loaded from
its home module only when first asked for (PEP 562), so that a process, a
one-shot CLI run above all, compiles and imports only the modules it uses.
"""

import sys

# home module -> the public names it exports through the package
_EXPORTS = {
    "jacobi": (
        "JacobiData",
        "jacobi_from_json",
        "jacobi_to_json",
        "orthogonal_polynomial",
        "preset",
    ),
    "words": (
        "Word",
        "format_rational",
        "parse_rational",
        "word_postfixes",
        "words_up_to",
    ),
    "ncpoly": ("NCPolynomial",),
    "omega": (
        "BUILTIN_OMEGAS",
        "OmegaTree",
        "OmegaValidationError",
        "builder",
    ),
    "treecheck": (
        "enumerate_valid_trees",
        "is_associative",
        "omega_from_json",
        "omega_squared",
        "validate",
    ),
    "prodstate": (
        "CoefficientMap",
        "DepthExhaustedError",
        "StateEvaluator",
        "cfree_map",
        "explicit_map",
        "left_multiply",
        "moment_table",
        "product_type_map",
    ),
    "basis": (
        "basis_polynomial",
        "gram_matrix",
        "recursion_basis",
    ),
    "cfrac": ("render_branched_cf",),
    "oracle": (
        "MopsResult",
        "antimonotone_state",
        "boolean_state",
        "cfree_state",
        "free_state",
        "functional_inner",
        "gram_schmidt_mops",
        "monotone_state",
        "q_gaussian_state",
        "tensor_state",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])
__version__ = "0.1.0"


def __getattr__(name: str):
    """A public name, read from its home module on each access; or a submodule.

    The module is loaded through ``__import__``, which ``python -X
    importtime`` times, as it does not ``importlib.import_module``.
    """
    module = _HOME.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{module}")
    loaded = sys.modules[f"{__name__}.{module}"]
    return getattr(loaded, name) if name in _HOME else loaded


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
