"""The basis polynomials P_u of a product-type state and their Gram matrix.

:func:`recursion_basis` builds P_u for any coefficient map from the rewrite
rules of :mod:`ncprod.prodstate`; on a product-type map that is
:func:`basis_polynomial`, the definition (for a member u, the product of
one-variable orthogonal polynomials over the runs of u), which the tests
check it against.  :func:`gram_matrix` pairs them under the state, whose
moments it reads from :func:`~ncprod.prodstate.moment_table`.

Each of them builds polynomials (:mod:`ncprod.ncpoly`), so the table
commands, which run on the integer core, never load this module.
"""

from __future__ import annotations

from fractions import Fraction

from .jacobi import JacobiData, orthogonal_polynomial
from .ncpoly import MomentMatrix, NCPolynomial
from .omega import OmegaTree
from .prodstate import ZERO, CoefficientMap, moment_table
from .words import (
    EMPTY_WORD,
    Word,
    clear_denominator,
    common_denominator,
    graded_lex_key,
    word_postfixes,
    word_runs,
    words_up_to,
)


def basis_polynomial(
    tree: OmegaTree,
    j1: JacobiData,
    j2: JacobiData,
    u: Word,
    nu: tuple[JacobiData, JacobiData] | None = None,
) -> NCPolynomial:
    """The basis polynomial P_u, straight from its defining formula.

    For a member word, the product over the maximal runs of u, in order, of
    one-variable orthogonal polynomials: the rightmost run's from mu
    (``j1``, ``j2``), every other run's from ``nu``, which defaults to mu.
    For a non-member, x_v * P_w where w is the longest right-suffix of u
    that is a member.
    """
    u = tuple(u)
    if u in tree:
        mu = (j1, j2)
        inner = mu if nu is None else nu
        runs = word_runs(u)
        result = NCPolynomial.one(2)
        for idx, (letter, length) in enumerate(runs):
            source = (mu if idx == len(runs) - 1 else inner)[letter - 1]
            result = result * orthogonal_polynomial(source, length, letter=letter, alphabet=2)
        return result
    for suffix in word_postfixes(u)[1:]:
        if suffix in tree:
            prefix = u[: len(u) - len(suffix)]
            return NCPolynomial.monomial(prefix, 2) * basis_polynomial(tree, j1, j2, suffix, nu)
    raise ValueError("tree does not contain the empty word")


def recursion_basis(cm: CoefficientMap, u: Word) -> NCPolynomial:
    """P_u rebuilt from the rewrite rules by prepending letters of u."""
    u = tuple(u)
    word: Word = EMPTY_WORD
    prev: NCPolynomial | None = None
    current = NCPolynomial.one(cm.d)
    for letter in reversed(u):
        x = NCPolynomial.variable(letter, cm.d)
        nxt = x * current - cm.b(letter, word) * current
        if word and word[0] == letter:
            cval = cm.c(word)
            if cval and prev is not None:
                nxt = nxt - cval * prev
        prev, current = current, nxt
        word = (letter,) + word
    return current


class GramMatrix:
    """Inner products of basis polynomials over all words up to a depth."""

    __slots__ = ("words", "entries")

    def __init__(self, words: tuple[Word, ...], entries: dict[tuple[Word, Word], Fraction]):
        self.words = words
        self.entries = entries

    def is_diagonal(self) -> bool:
        return all(u == v for (u, v), value in self.entries.items() if value)

    def diagonal(self) -> dict[Word, Fraction]:
        return {u: self.entries.get((u, u), ZERO) for u in self.words}

    def to_triples(self) -> list[tuple[Word, Word, Fraction]]:
        ordered = sorted(self.entries.items(), key=lambda kv: (graded_lex_key(kv[0][0]), graded_lex_key(kv[0][1])))
        return [(u, v, value) for (u, v), value in ordered if value]


def gram_matrix(cm: CoefficientMap, depth: int) -> GramMatrix:
    """Gram matrix of {P_u : |u| <= depth} under the state.

    Each entry is x_u^T N x_v / (L den_u den_v), with N / L the state's
    moment matrix over the words up to the depth, read from
    :func:`~ncprod.prodstate.moment_table` through order 2 * depth (a map of
    depth N serves every order through 2N + 1), and x_u the int vector
    den_u P_u, den_u the lcm of P_u's denominators.
    """
    phi = dict(moment_table(cm, 2 * depth)).__getitem__
    words = tuple(words_up_to(cm.d, depth))
    vectors: dict[Word, tuple[list[int], int]] = {}
    for u in words:
        coeffs = list(map(recursion_basis(cm, u).coefficient, words))
        den = common_denominator(coeffs)
        vectors[u] = [clear_denominator(c, den) for c in coeffs], den
    matrix = MomentMatrix(phi, words)
    entries: dict[tuple[Word, Word], Fraction] = {}
    for u, (x_u, den_u) in vectors.items():
        row = matrix.row(x_u)
        for v, (x_v, den_v) in vectors.items():
            value = matrix.pair(row, x_v)
            if value:
                entries[(u, v)] = Fraction(value, matrix.scale * den_u * den_v)
    return GramMatrix(words=words, entries=entries)
