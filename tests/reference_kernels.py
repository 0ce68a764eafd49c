"""Plain reference versions of the exact kernels, for the tests only.

``fraction_inverse`` is the degree-by-degree inverse with one ``Fraction``
operation per term pair, ``full_order_neumann_inverse`` runs every Neumann
step of a series-matrix inverse at the full order, and
``fraction_expansion`` runs the transfer operator over the whole word on the
map's own ``Fraction`` entries, and ``product_gram_schmidt_mops`` takes
every inner product of the monomial orthogonalization from a polynomial
product.  The library's kernels must agree with them exactly.
"""

from fractions import Fraction

from ncprod.cfrac import SeriesMatrix, _smat_identity, _smat_mul
from ncprod.ncpoly import EMPTY_WORD, NCPolynomial, NCSeries, Word, graded_lex_key, words_up_to
from ncprod.oracle import MopsResult, functional_inner
from ncprod.prodstate import CoefficientMap, left_multiply


def fraction_inverse(series: NCSeries) -> NCSeries:
    """t = 1 - r*t solved degree by degree, r the positive-degree part."""
    if series.constant_term() != 1:
        raise ValueError("series inverse requires constant term 1")
    r_by_degree: dict[int, list[tuple[Word, Fraction]]] = {}
    for word, coeff in series.terms.items():
        if word:
            r_by_degree.setdefault(len(word), []).append((word, coeff))
    parts: list[dict[Word, Fraction]] = [{EMPTY_WORD: Fraction(1)}]
    for m in range(1, series.order + 1):
        component: dict[Word, Fraction] = {}
        for j, entries in r_by_degree.items():
            if j > m:
                continue
            lower = parts[m - j]
            for wr, cr in entries:
                for wt, ct in lower.items():
                    word = wr + wt
                    component[word] = component.get(word, Fraction(0)) - cr * ct
        parts.append({w: c for w, c in component.items() if c})
    merged: dict[Word, Fraction] = {}
    for component in parts:
        merged.update(component)
    return NCSeries(series.d, series.order, merged)


def full_order_neumann_inverse(mat: SeriesMatrix, order: int) -> SeriesMatrix:
    """x_(k+1) = 1 + (1 - mat)*x_k, ``order`` times, every step at ``order``."""
    n = len(mat)
    d = mat[0][0].d
    identity = _smat_identity(n, d, order)
    u = [[identity[r][s] - mat[r][s] for s in range(n)] for r in range(n)]
    x = identity
    for _ in range(order):
        ux = _smat_mul(u, x)
        x = [[identity[r][s] + ux[r][s] for s in range(n)] for r in range(n)]
    return x


def fraction_expansion(cm: CoefficientMap, word: Word) -> dict[Word, Fraction]:
    """The P-basis expansion of x_word, one Fraction left multiplication per
    letter, rightmost first; its constant term is the word's moment."""
    expansion: dict[Word, Fraction] = {EMPTY_WORD: Fraction(1)}
    for letter in reversed(word):
        expansion = left_multiply(cm, letter, expansion)
    return expansion


def product_gram_schmidt_mops(phi, depth, d=2, within_degree_order=None) -> MopsResult:
    """gram_schmidt_mops with each inner product <p, q> = phi(p* q) taken
    from the polynomial product p* q, in the same modified Gram-Schmidt
    order and the same final sweep."""
    by_degree = [[w for w in words_up_to(d, depth) if len(w) == n] for n in range(depth + 1)]
    if within_degree_order is not None:
        by_degree = [within_degree_order(list(level)) for level in by_degree]
    polys: dict[Word, NCPolynomial] = {}
    norms: dict[Word, Fraction] = {}
    for n, level in enumerate(by_degree):
        lower = [v for m in range(n) for v in by_degree[m] if norms[v]]
        for u in level:
            q = NCPolynomial.monomial(u, d)
            for v in lower:
                overlap = functional_inner(phi, polys[v], q)
                if overlap:
                    q = q - (overlap / norms[v]) * polys[v]
            polys[u] = q
            norms[u] = functional_inner(phi, q, q)
    ordered = [u for level in by_degree for u in level]
    for u in ordered:
        for v in ordered:
            if u == v:
                continue
            value = functional_inner(phi, polys[u], polys[v])
            if value:
                pair = (u, v) if graded_lex_key(u) <= graded_lex_key(v) else (v, u)
                return MopsResult(polys, norms, False, pair, value)
    return MopsResult(polys, norms, True)
