"""The reports of ``validate``, ``gram``, ``mops`` and ``counterexample``:
what each computes and prints once :mod:`ncprod.cli` has loaded its inputs.

Each function returns the text the command prints, in the format it names
(``json``, ``csv`` or ``pretty``); the CLI writes it out.  Each imports the
modules it runs when it runs (:mod:`ncprod.treecheck` for a tree's
associativity, :mod:`ncprod.basis` for the Gram matrix, :mod:`ncprod.oracle`
for orthogonalization), so ``validate`` loads no polynomial code and
``gram`` no oracle.  No table command loads this module.

It never imports :mod:`ncprod.cli`: under ``python -m ncprod.cli`` that
import would compile and load a second copy of the CLI for nothing.  The
running copy would still catch the second copy's input errors, since every
one of them is a ``ValueError``.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .words import Word, format_rational, graded_lex_key

# typing.TYPE_CHECKING without loading typing; type checkers read it as True
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .ncpoly import NCPolynomial
    from .omega import OmegaTree, OmegaValidationError
    from .oracle import MomentFunctional
    from .prodstate import CoefficientMap


def _word_key(word: Word) -> str:
    return ".".join(str(letter) for letter in word)


def _poly_json(p: NCPolynomial) -> dict:
    return {_word_key(w): format_rational(p.terms[w]) for w in sorted(p.terms, key=graded_lex_key)}


def invalid_tree(exc: OmegaValidationError, fmt: str) -> str:
    """``validate``'s report on a word set that is no tree."""
    if fmt == "json":
        return json.dumps({"valid": False, "violation": exc.report()}, indent=2)
    return f"INVALID: {exc}"


def valid_tree(tree: OmegaTree, fmt: str) -> str:
    """``validate``'s report on a tree: its depth, boundary, and whether
    the iterated product is associative up to depth 4."""
    from .treecheck import is_associative

    assoc_depth = min(tree.depth, 4)
    boundary = [list(w) for w in sorted(tree.boundary(), key=graded_lex_key)]
    report = {
        "valid": True,
        "depth": tree.depth,
        "boundary": boundary,
        "associative": is_associative(tree, assoc_depth),
        "associativity_depth": assoc_depth,
    }
    if fmt == "json":
        return json.dumps(report, indent=2)
    return (
        "valid tree\n"
        f"depth: {tree.depth}\n"
        f"boundary: {', '.join(map(str, boundary)) or '(empty)'}\n"
        f"associative (to depth {assoc_depth}): {report['associative']}"
    )


def gram(cm: CoefficientMap, depth: int, fmt: str) -> str:
    """The nonzero entries of the Gram matrix of {P_u : |u| <= depth}."""
    from .basis import gram_matrix

    matrix = gram_matrix(cm, depth)
    triples = matrix.to_triples()
    if fmt == "json":
        payload = [
            {"u": list(u), "v": list(v), "value": format_rational(value)}
            for u, v, value in triples
        ]
        return json.dumps(payload, indent=2)
    if fmt == "csv":
        lines = ["u,v,value"]
        lines += [f"{_word_key(u)},{_word_key(v)},{format_rational(value)}" for u, v, value in triples]
        return "\n".join(lines)
    lines = [f"<P_{_word_key(u) or '()'}, P_{_word_key(v) or '()'}> = {format_rational(value)}"
             for u, v, value in triples]
    lines.append(f"diagonal: {matrix.is_diagonal()}")
    return "\n".join(lines)


def mops(phi: MomentFunctional, state: str, depth: int, fmt: str) -> str:
    """The verdict of Gram-Schmidt on the monomials up to ``depth`` under
    ``phi`` (the state named ``state``), with a witness and the Q_u."""
    from . import oracle

    result = oracle.gram_schmidt_mops(phi, depth)
    report = {
        "state": state,
        "depth": depth,
        "mops": result.is_mops,
    }
    if result.witness:
        u, v = result.witness
        report["witness"] = [list(u), list(v)]
        report["witness_value"] = format_rational(result.witness_value)
    polynomials = sorted(result.polynomials.items(), key=lambda kv: graded_lex_key(kv[0]))
    if fmt == "json":
        report["polynomials"] = {_word_key(w) or "()": _poly_json(p) for w, p in polynomials}
        return json.dumps(report, indent=2)
    lines = [f"MOPS verdict: {'yes' if result.is_mops else 'no'}"]
    if result.witness:
        u, v = result.witness
        lines.append(
            f"witness: <Q_{_word_key(u)}, Q_{_word_key(v)}> = {format_rational(result.witness_value)}"
        )
    for w, p in polynomials:
        lines.append(f"Q_{_word_key(w) or '()'} = {p.to_str()}")
    return "\n".join(lines)


def counterexample(q: Fraction, fmt: str) -> str:
    """The two states whose monomial families fail orthogonality: the
    q-deformed state at ``q`` and the tensor state of two semicircles."""
    from . import jacobi, oracle

    q_phi = oracle.q_gaussian_state(q)
    q_result = oracle.gram_schmidt_mops(q_phi, 3)
    inner = oracle.functional_inner(
        q_phi, q_result.polynomials[(1, 2)], q_result.polynomials[(2, 1)]
    )
    semicircle = jacobi.preset("semicircle")
    tensor_result = oracle.gram_schmidt_mops(oracle.tensor_state(semicircle, semicircle), 2)
    report = {
        "q": format_rational(q),
        "inner_12_21": format_rational(inner),
        "q_121": _poly_json(q_result.polynomials[(1, 2, 1)]),
        "q_mops": q_result.is_mops,
        "tensor_mops": tensor_result.is_mops,
    }
    if q_result.witness:
        report["q_witness"] = [list(w) for w in q_result.witness]
    if tensor_result.witness:
        report["tensor_witness"] = [list(w) for w in tensor_result.witness]
    if fmt == "json":
        return json.dumps(report, indent=2)
    lines = [
        f"q = {format_rational(q)}",
        f"<Q_1.2, Q_2.1> = {format_rational(inner)}",
        f"Q_1.2.1 = {q_result.polynomials[(1, 2, 1)].to_str()}",
        f"q-state MOPS: {'yes' if q_result.is_mops else 'no'}",
        f"tensor (semicircle marginals) MOPS: {'yes' if tensor_result.is_mops else 'no'}",
    ]
    if tensor_result.witness:
        u, v = tensor_result.witness
        lines.append(f"tensor witness: ({_word_key(u)}) vs ({_word_key(v)})")
    return "\n".join(lines)
