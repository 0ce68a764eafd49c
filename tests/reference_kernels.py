"""Plain reference versions of the exact kernels, for the tests only.

``fraction_inverse`` is the degree-by-degree inverse with one ``Fraction``
operation per term pair, ``full_order_neumann_inverse`` runs every Neumann
step of a series-matrix inverse at the full order, and
``fraction_expansion`` runs the transfer operator over the whole word on the
map's own ``Fraction`` entries.  The library's kernels must agree with them
exactly.
"""

from fractions import Fraction

from ncprod.cfrac import SeriesMatrix, _smat_identity, _smat_mul
from ncprod.ncpoly import EMPTY_WORD, NCSeries, Word
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
