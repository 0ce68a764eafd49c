"""Plain reference versions of the exact kernels, for the tests only.

``fraction_inverse`` is the degree-by-degree inverse with one ``Fraction``
operation per term pair; ``_smat_inverse`` inverts a matrix of ``NCSeries``
by Neumann steps, each truncated to the degree it makes exact, and
``full_order_neumann_inverse`` runs every step at the full order;
``fraction_expansion`` runs the transfer operator over the whole word on the
map's own ``Fraction`` entries, and ``product_gram_schmidt_mops`` takes
every inner product of the monomial orthogonalization from a polynomial
product.  ``fraction_classical_cf``, ``fraction_scalar_branched_cf`` and
``fraction_matricial_cf`` are the continued-fraction engines with every
series in ``Fraction`` coefficients, the classical one with its own chain
recursion and the matricial one taking each sandwich's block with
``block_extract``; ``eager_product_type_entries`` and
``eager_cfree_entries`` fill every nonzero coefficient-map entry through
the depth, word by word.
``centering_cfree_state`` evaluates the two-pair (conditionally free)
state by centering blocks: a block polynomial p splits into (p - mean)
plus its mean, the mean term deletes the block and merges its neighbors,
and the recursion bottoms out once every block that must be centered is.
Each step either centers one more block or shortens the list, so the
recursion terminates.  It shares nothing with the non-crossing cumulant
sum of the free and two-pair oracles, and with both pairs equal it is the
free state.  ``fraction_noncrossing_moments`` is that cumulant sum with
every moment, cumulant and product a ``Fraction``; the oracles' integer
sum over one common denominator D must equal it times D^|w|.  The
library's kernels must agree with them exactly.
"""

from fractions import Fraction
from typing import Sequence

from ncprod.cfrac import MatricialData
from ncprod.jacobi import JacobiData, MomentSequence
from ncprod.ncpoly import NCPolynomial, NCSeries, _make
from ncprod.omega import OmegaTree
from ncprod.oracle import MomentFunctional, MopsResult, functional_inner
from ncprod.prodstate import CoefficientMap, left_multiply
from ncprod.words import (
    EMPTY_WORD,
    Word,
    graded_lex_key,
    leading_run_length,
    word_runs,
    words_up_to,
)


SeriesMatrix = list[list[NCSeries]]


def _smat_identity(n: int, d: int, order: int, one: Fraction | int = Fraction(1)) -> SeriesMatrix:
    """The n x n identity; ``one`` is int 1 for a matrix of integer series."""
    return [
        [_make(d, order, {EMPTY_WORD: one} if r == s else {}) for s in range(n)]
        for r in range(n)
    ]


def _smat_mul(a: SeriesMatrix, b: SeriesMatrix) -> SeriesMatrix:
    n = len(a)
    out = []
    for r in range(n):
        row = []
        for s in range(n):
            acc = None
            for t in range(n):
                if not a[r][t].terms or not b[t][s].terms:
                    continue
                term = a[r][t] * b[t][s]
                acc = term if acc is None else acc + term
            if acc is None:
                acc = NCSeries.zero(a[0][0].d, a[0][0].order)
            row.append(acc)
        out.append(row)
    return out


def _smat_inverse(mat: SeriesMatrix, order: int) -> SeriesMatrix:
    """Inverse of a series matrix with identity constant term.

    Neumann iteration x_(k+1) = 1 + u*x_k from x_0 = 1, with u = 1 - mat.  As
    u has no constant term, x_k is exact through degree k, and so is
    x_(k+1) through degree k + 1 when u multiplies only the part of x_k of
    degree <= k, as a series of order k + 1: step k works at order k + 1.
    """
    n = len(mat)
    d = mat[0][0].d
    for r in range(n):
        for s in range(n):
            expected = Fraction(1) if r == s else Fraction(0)
            if mat[r][s].constant_term() != expected:
                raise ValueError("matrix inverse requires identity constant term")
    # the unit of the entries' own type, so an integer matrix stays integer
    identity = _smat_identity(n, d, order, mat[0][0].constant_term())
    u = [[identity[r][s] - mat[r][s] for s in range(n)] for r in range(n)]
    x = identity
    for k in range(order):
        # x holds only degrees <= k (x_0 = 1, then x_k has order k)
        ux = _smat_mul(u, [[entry.truncate(k + 1) for entry in row] for row in x])
        x = [[identity[r][s] + ux[r][s] for s in range(n)] for r in range(n)]
    return x


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


def fraction_classical_cf(data: JacobiData, order: int) -> NCSeries:
    """1 / (1 - beta_0 z - gamma_1 z^2 / (1 - beta_1 z - ...)), level by level
    from the deepest one the order reaches."""
    level = order // 2
    f = NCSeries.one(1, max(order - 2 * level, 0))
    for k in range(level, -1, -1):
        budget = order - 2 * k
        terms = {EMPTY_WORD: Fraction(1)}
        beta = data.beta_at(k)
        if beta and budget >= 1:
            terms[(1,)] = -beta
        denom = NCSeries(1, budget, terms)
        if budget >= 2:
            gamma = data.gamma_at(k + 1)
            if gamma:
                denom = denom - gamma * f.truncate(budget - 2).sandwich(1, 1).truncate(budget)
        f = denom.inverse()
    return f


def fraction_scalar_branched_cf(cm: CoefficientMap, order: int) -> NCSeries:
    """The branched continued fraction on the map's Fraction entries."""
    d = cm.d

    def node(u: Word, budget: int) -> NCSeries:
        terms: dict[Word, Fraction] = {EMPTY_WORD: Fraction(1)}
        if budget >= 1:
            for i in range(1, d + 1):
                bval = cm.b(i, u)
                if bval:
                    terms[(i,)] = -bval
        denom = NCSeries(d, budget, terms)
        if budget >= 2:
            for j in range(1, d + 1):
                child = (j,) + u
                cval = cm.c(child)
                if cval:
                    sub = node(child, budget - 2)
                    denom = denom - cval * sub.sandwich(j, j).truncate(budget)
        return denom.inverse()

    return node(EMPTY_WORD, order)


def block_extract(matrix: Sequence[Sequence], i: int, j: int, d: int) -> list[list]:
    """Block (i, j) of a d^k x d^k matrix viewed as d x d blocks.

    Rows whose index word starts with letter i, columns starting with letter
    j; for a 2 x 2 matrix this is just the (i, j) entry as a 1 x 1 matrix.
    """
    n = len(matrix)
    if n % d != 0 or any(len(row) != n for row in matrix):
        raise ValueError(f"matrix is not square of size divisible by {d}")
    m = n // d
    if not (1 <= i <= d and 1 <= j <= d):
        raise ValueError(f"block indices must lie in 1..{d}")
    return [list(row[(j - 1) * m : j * m]) for row in matrix[(i - 1) * m : i * m]]


def fraction_matricial_cf(md: MatricialData, order: int) -> NCSeries:
    """The matricial continued fraction with Fraction series matrices."""
    d = md.d
    top = md.levels
    effective = min(order, 2 * top)
    f = None
    for k in range(top, -1, -1):
        budget = max(effective - 2 * k, 0)
        n = d**k
        denom = _smat_identity(n, d, budget)
        for i in range(1, d + 1):
            t_matrix = md.t[k][i - 1]
            for r in range(n):
                for s in range(n):
                    value = t_matrix[r][s]
                    if value and budget >= 1:
                        denom[r][s] = denom[r][s] - NCSeries(d, budget, {(i,): value})
        if k < top and budget >= 2 and f is not None:
            c_matrix = md.c[k]
            scaled = [
                [c_matrix[r][r] * f[r][s].truncate(budget - 2) for s in range(d * n)]
                for r in range(d * n)
            ]
            for j in range(1, d + 1):
                for l in range(1, d + 1):
                    block = block_extract(scaled, j, l, d)
                    for r in range(n):
                        for s in range(n):
                            if block[r][s].terms:
                                denom[r][s] = denom[r][s] - block[r][s].sandwich(j, l).truncate(budget)
        f = _smat_inverse(denom, budget)
    return f[0][0]


def eager_product_type_entries(tree: OmegaTree, j1: JacobiData, j2: JacobiData):
    """Every nonzero B and C entry of the product-type map, as two dicts."""
    marginals = {1: j1, 2: j2}
    b: dict[tuple[int, Word], Fraction] = {}
    c: dict[Word, Fraction] = {}
    for u in words_up_to(2, tree.depth):
        for i in (1, 2):
            if (i,) + u in tree.members:
                value = marginals[i].beta_at(leading_run_length(u, i))
                if value:
                    b[(i, u)] = value
        if u and tree.in_interior(u):
            value = marginals[u[0]].gamma_at(leading_run_length(u, u[0]))
            if value:
                c[u] = value
    return b, c


def eager_cfree_entries(mu1, nu1, mu2, nu2, depth: int):
    """Every nonzero B and C entry of the two-pair map, as two dicts."""
    mu = {1: mu1, 2: mu2}
    nu = {1: nu1, 2: nu2}
    b: dict[tuple[int, Word], Fraction] = {}
    c: dict[Word, Fraction] = {}
    for u in words_up_to(2, depth):
        for i in (1, 2):
            k = leading_run_length(u, i)
            value = (mu[i] if len(u) == k else nu[i]).beta_at(k)
            if value:
                b[(i, u)] = value
        if u:
            i = u[0]
            k = leading_run_length(u, i)
            value = (mu[i] if len(u) == k else nu[i]).gamma_at(k)
            if value:
                c[u] = value
    return b, c


# one-variable polynomials inside block lists are coefficient tuples,
# lowest degree first
Coeffs = tuple[Fraction, ...]
Block = tuple[int, Coeffs]


def _monomial_coeffs(power: int) -> Coeffs:
    return (Fraction(0),) * power + (Fraction(1),)


def _coeff_mul(p: Coeffs, q: Coeffs) -> Coeffs:
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if not a:
            continue
        for j, b in enumerate(q):
            if b:
                out[i + j] += a * b
    return tuple(out)


def _coeff_mean(moments: MomentSequence, p: Coeffs) -> Fraction:
    return sum((c * moments[k] for k, c in enumerate(p) if c), Fraction(0))


def _blocks_of_word(word: Word) -> tuple[Block, ...]:
    return tuple((letter, _monomial_coeffs(length)) for letter, length in word_runs(word))


def _delete_block(blocks: tuple[Block, ...], index: int) -> tuple[Block, ...]:
    """Remove one block, multiplying neighbors together if letters now match."""
    before = list(blocks[:index])
    after = list(blocks[index + 1 :])
    if before and after and before[-1][0] == after[0][0]:
        letter = before[-1][0]
        merged = (letter, _coeff_mul(before[-1][1], after[0][1]))
        return tuple(before[:-1] + [merged] + after[1:])
    return tuple(before + after)


def _center(block: Block, mean: Fraction) -> Block:
    letter, coeffs = block
    adjusted = (coeffs[0] - mean,) + coeffs[1:]
    return (letter, adjusted)


def centering_cfree_state(
    mu1: JacobiData, nu1: JacobiData, mu2: JacobiData, nu2: JacobiData
) -> MomentFunctional:
    """Two-pair state: interior blocks center against nu, values come from mu.

    A leading letter-1 block and a trailing letter-2 block are exempt from
    centering; once every non-exempt block is nu-centered the moment is the
    product of the mu-means of all blocks.
    """
    mu = {1: MomentSequence(mu1), 2: MomentSequence(mu2)}
    nu = {1: MomentSequence(nu1), 2: MomentSequence(nu2)}
    cache: dict[tuple[Block, ...], Fraction] = {}

    def needs_centering(index: int, letter: int, count: int) -> bool:
        if index == 0 and letter == 1:
            return False
        if index == count - 1 and letter == 2:
            return False
        return True

    def eval_blocks(blocks: tuple[Block, ...]) -> Fraction:
        if not blocks:
            return Fraction(1)
        if len(blocks) == 1:
            letter, coeffs = blocks[0]
            return _coeff_mean(mu[letter], coeffs)
        cached = cache.get(blocks)
        if cached is not None:
            return cached
        result = None
        for index, (letter, coeffs) in enumerate(blocks):
            if not needs_centering(index, letter, len(blocks)):
                continue
            mean = _coeff_mean(nu[letter], coeffs)
            if mean:
                centered = blocks[:index] + (_center(blocks[index], mean),) + blocks[index + 1 :]
                result = eval_blocks(centered) + mean * eval_blocks(_delete_block(blocks, index))
                break
        if result is None:
            # every required block is nu-centered: the moment factorizes
            result = Fraction(1)
            for letter, coeffs in blocks:
                result *= _coeff_mean(mu[letter], coeffs)
        cache[blocks] = result
        return result

    def phi(word: Word) -> Fraction:
        return eval_blocks(_blocks_of_word(tuple(word)))

    return phi


def fraction_noncrossing_moments(
    marginals: dict[int, MomentSequence], nested: MomentFunctional | None = None
) -> MomentFunctional:
    """Joint moments summed over non-crossing partitions into one-letter blocks.

    Recursing on the block S of the first position,

        phi(w) = sum_S kappa_|S|(w_1) * prod over the inner gaps of nested(gap)
                 * phi(tail),

    where S runs over the position sets that contain the first position and
    on which w is constant, the inner gaps are the stretches between
    consecutive elements of S, and the tail is the stretch after the last
    one.  ``nested`` evaluates the inner gaps; it defaults to phi itself.  A
    marginal's kappa_n comes from the same sum on the word a^n, whose value
    m_n is known: kappa_n is m_n minus the terms with |S| < n.  The memo is
    keyed by words.
    """
    # kappa_n at index n; index 0 is never read
    cumulants: dict[int, list[Fraction]] = {1: [Fraction(0)], 2: [Fraction(0)]}
    cache: dict[Word, Fraction] = {}

    def block_sum(word: Word, kappa: list[Fraction]) -> Fraction:
        """The sum over S, with kappa the first letter's cumulants."""
        letter = word[0]
        # chains[j][k]: sum over the sets S with last element j and |S| = k
        # of the product of their inner gaps' values
        chains: dict[int, dict[int, Fraction]] = {}
        total = Fraction(0)
        for j, current in enumerate(word):
            if current != letter:
                continue
            if j == 0:
                weights = {1: Fraction(1)}
            else:
                weights = {}
                for i, before in chains.items():
                    gap = inner(word[i + 1 : j])
                    if gap:
                        for k, weight in before.items():
                            weights[k + 1] = weights.get(k + 1, 0) + weight * gap
            chains[j] = weights
            tail = phi(word[j + 1 :])
            if tail:
                for k, weight in weights.items():
                    total += kappa[k] * weight * tail
        return total

    def cumulants_through(letter: int, n: int) -> list[Fraction]:
        kappa = cumulants[letter]
        while len(kappa) <= n:
            m = len(kappa)
            kappa.append(Fraction(0))  # leaves out S = every position
            kappa[m] = marginals[letter][m] - block_sum((letter,) * m, kappa)
        return kappa

    def phi(word: Word) -> Fraction:
        word = tuple(word)
        if not word:
            return Fraction(1)
        letter = word[0]
        count = word.count(letter)
        if count == len(word):
            return marginals[letter][count]
        cached = cache.get(word)
        if cached is None:
            cached = cache[word] = block_sum(word, cumulants_through(letter, count))
        return cached

    inner = phi if nested is None else nested
    return phi
