"""Direct-definition reference states, used to cross-check the main machinery.

Every oracle here evaluates joint moments straight from a defining
factorization or combinatorial formula, never through coefficient maps or
continued fractions, so agreement between the two routes is meaningful.

One non-crossing recursion serves the free and the two-pair oracles; see
:func:`_noncrossing_moments`.  It sums over the block of the first position,
with cumulants read off the marginals' moments and the gaps nested inside
that block evaluated by a second state.  For the free state that second
state is the state itself (Speicher's moment-cumulant formula).  For the
two-pair (conditionally free) state it is the free state of the nu
marginals, and the cumulants read off the mu marginals are the c-free
cumulants (Bozejko, Leinert and Speicher, 1996).  The block-centering
evaluation of the two-pair state, a route independent of this sum, lives
in the tests as its reference.

The oracles of a marginal pair run in integers.  With D an integer that
clears every recursion coefficient of the marginals, each one finds
M(w) = D^|w| phi(w) from the integers D^n m_n of its marginals' moments
and divides once per word.  The free and two-pair sums scale block by
block (the block, its gaps and its tail add up to the word); the block
products of the Boolean, monotone, anti-monotone and tensor states scale
run by run.  D is the lcm of the marginals' stored coefficient
denominators.  A factory given ``scale=D`` uses that D instead and returns
the integers M(w) themselves: ``compare`` builds the oracle at its
coefficient map's scale and checks each word as two integers over the
same D^|w|.  A scale that does not clear a coefficient the oracle reads
raises ``ValueError``.

Each ``*_state`` factory holds one :class:`~ncprod.jacobi.MomentSequence`
per marginal, so a marginal moment is computed once however many words
need it, and the non-crossing sums memoize every word they evaluate.

:func:`gram_schmidt_mops` orthogonalizes the monomials under any such
functional and tests the monic-orthogonality property.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Sequence, Union

from .jacobi import JacobiData, MomentSequence, coefficient_scale
from .words import Word, graded_lex_key, parse_rational, word_runs, words_up_to

if TYPE_CHECKING:
    from .ncpoly import NCPolynomial

MomentFunctional = Callable[[Word], Fraction]
# w -> D^|w| phi(w), for an integer D fixed with the functional
NumeratorFunctional = Callable[[Word], int]
# what a *_state factory returns: a MomentFunctional, or with scale= a NumeratorFunctional
Functional = Union[MomentFunctional, NumeratorFunctional]


def _noncrossing_moments(
    marginals: dict[int, MomentSequence], nested: NumeratorFunctional | None = None
) -> NumeratorFunctional:
    """Joint moments summed over non-crossing partitions into one-letter
    blocks, as numerators over the marginals' common scale D.

    Recursing on the block S of the first position,

        phi(w) = sum_S kappa_|S|(w_1) * prod over the inner gaps of nested(gap)
                 * phi(tail),

    where S runs over the position sets that contain the first position and
    on which w is constant, the inner gaps are the stretches between
    consecutive elements of S, and the tail is the stretch after the last
    one.  ``nested`` evaluates the inner gaps; it defaults to phi itself.  A
    marginal's kappa_n comes from the same sum on the word a^n, whose value
    m_n is known: kappa_n is m_n minus the terms with |S| < n.

    The lengths of S, the gaps and the tail add up to |w|, so the same sum
    holds for M(w) = D^|w| phi(w) with K_n = D^n kappa_n in place of the
    cumulants, and with M_n = D^n m_n read from the marginals
    (:meth:`~ncprod.jacobi.MomentSequence.numerator`).  It runs on those
    integers, and ``nested`` must count at the same D.  The memo is keyed by
    words.
    """
    # K_n at index n; index 0 is never read
    cumulants: dict[int, list[int]] = {1: [0], 2: [0]}
    cache: dict[Word, int] = {}

    def block_sum(word: Word, kappa: list[int]) -> int:
        """The sum over S, with kappa the first letter's cumulants."""
        letter = word[0]
        # chains[j][k]: sum over the sets S with last element j and |S| = k
        # of the product of their inner gaps' values
        chains: dict[int, dict[int, int]] = {}
        total = 0
        for j, current in enumerate(word):
            if current != letter:
                continue
            if j == 0:
                weights = {1: 1}
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

    def cumulants_through(letter: int, n: int) -> list[int]:
        kappa = cumulants[letter]
        while len(kappa) <= n:
            m = len(kappa)
            kappa.append(0)  # leaves out S = every position
            kappa[m] = marginals[letter].numerator(m) - block_sum((letter,) * m, kappa)
        return kappa

    def phi(word: Word) -> int:
        word = tuple(word)
        if not word:
            return 1
        letter = word[0]
        count = word.count(letter)
        if count == len(word):
            return marginals[letter].numerator(count)
        cached = cache.get(word)
        if cached is None:
            cached = cache[word] = block_sum(word, cumulants_through(letter, count))
        return cached

    inner = phi if nested is None else nested
    return phi


def _moment_sequences(scale: int | None, *data: JacobiData) -> list[MomentSequence]:
    """One moment sequence per marginal, all at one scale: the given one, or
    else the lcm of the marginals' own (:func:`~ncprod.jacobi.coefficient_scale`)."""
    if scale is None:
        scale = math.lcm(*(coefficient_scale(d) for d in data))
    return [MomentSequence(d, scale) for d in data]


def _finish(numerators: NumeratorFunctional, scale: int, scaled: bool) -> Functional:
    """The numerators themselves if ``scaled``, else phi(w) = numerators(w) /
    scale^|w|, one division per word."""
    if scaled:
        return numerators
    powers = [1]

    def phi(word: Word) -> Fraction:
        word = tuple(word)
        while len(powers) <= len(word):
            powers.append(powers[-1] * scale)
        return Fraction(numerators(word), powers[len(word)])

    return phi


def free_state(j1: JacobiData, j2: JacobiData, *, scale: int | None = None) -> Functional:
    """Joint moments of the free product of the two marginals.

    Speicher's moment-cumulant formula: the sum, over the non-crossing
    partitions of the positions whose blocks each hold one letter, of the
    product of the blocks' free cumulants.
    """
    m1, m2 = _moment_sequences(scale, j1, j2)
    return _finish(_noncrossing_moments({1: m1, 2: m2}), m1.scale, scale is not None)


def boolean_state(j1: JacobiData, j2: JacobiData, *, scale: int | None = None) -> Functional:
    """Each maximal block contributes its own marginal moment."""
    m1, m2 = _moment_sequences(scale, j1, j2)
    marginals = {1: m1, 2: m2}

    def phi(word: Word) -> int:
        total = 1
        for letter, length in word_runs(tuple(word)):
            total *= marginals[letter].numerator(length)
        return total

    return _finish(phi, m1.scale, scale is not None)


def monotone_state(j1: JacobiData, j2: JacobiData, *, scale: int | None = None) -> Functional:
    """All letter-1 blocks merge into one marginal moment; letter-2 blocks factor."""
    m1, m2 = _moment_sequences(scale, j1, j2)

    def phi(word: Word) -> int:
        word = tuple(word)
        ones = sum(1 for letter in word if letter == 1)
        total = m1.numerator(ones)
        for letter, length in word_runs(word):
            if letter == 2:
                total *= m2.numerator(length)
        return total

    return _finish(phi, m1.scale, scale is not None)


def antimonotone_state(j1: JacobiData, j2: JacobiData, *, scale: int | None = None) -> Functional:
    """Monotone with the letters and marginals interchanged."""
    mirrored = monotone_state(j2, j1, scale=scale)

    def phi(word: Word):
        return mirrored(tuple(3 - letter for letter in word))

    return phi


def tensor_state(j1: JacobiData, j2: JacobiData, *, scale: int | None = None) -> Functional:
    """Product of the two total-power marginal moments."""
    m1, m2 = _moment_sequences(scale, j1, j2)

    def phi(word: Word) -> int:
        word = tuple(word)
        ones = sum(1 for letter in word if letter == 1)
        return m1.numerator(ones) * m2.numerator(len(word) - ones)

    return _finish(phi, m1.scale, scale is not None)


def _pairings(positions: tuple[int, ...], letters: Word):
    """All perfect matchings of the positions that pair equal letters."""
    if not positions:
        yield ()
        return
    first = positions[0]
    rest = positions[1:]
    for idx, partner in enumerate(rest):
        if letters[partner] != letters[first]:
            continue
        remaining = rest[:idx] + rest[idx + 1 :]
        for sub in _pairings(remaining, letters):
            yield ((first, partner),) + sub


def _crossings(pairing: Sequence[tuple[int, int]]) -> int:
    count = 0
    for a, b in pairing:
        for c, e in pairing:
            if a < c < b < e:
                count += 1
    return count


def q_gaussian_state(q: Fraction) -> MomentFunctional:
    """Letter-matching pair partitions weighted by q to the number of crossings."""
    q = parse_rational(q)
    cache: dict[Word, Fraction] = {}

    def phi(word: Word) -> Fraction:
        word = tuple(word)
        if len(word) % 2:
            return Fraction(0)
        cached = cache.get(word)
        if cached is not None:
            return cached
        total = Fraction(0)
        for pairing in _pairings(tuple(range(len(word))), word):
            total += q ** _crossings(pairing)
        cache[word] = total
        return total

    return phi


def cfree_state(
    mu1: JacobiData,
    nu1: JacobiData,
    mu2: JacobiData,
    nu2: JacobiData,
    *,
    scale: int | None = None,
) -> Functional:
    """Joint moments of the conditionally free product of two (mu, nu) pairs.

    Mixed cumulants vanish, and in each non-crossing partition the outer
    blocks carry the c-free cumulants of their letter's pair while the
    nested blocks carry the free cumulants of its nu.  So the inner gaps of
    the first position's block are evaluated by the free state of
    (nu1, nu2), and the cumulants the recursion reads off the mu moments
    are the c-free ones.  With nu = mu this is the free state; with nu the
    point mass at 0 every inner gap vanishes and it is the Boolean state.
    """
    m1, n1, m2, n2 = _moment_sequences(scale, mu1, nu1, mu2, nu2)
    nested = _noncrossing_moments({1: n1, 2: n2})
    return _finish(_noncrossing_moments({1: m1, 2: m2}, nested), m1.scale, scale is not None)


def functional_inner(phi: MomentFunctional, p: NCPolynomial, q: NCPolynomial) -> Fraction:
    """<p, q> = phi(p* q), with phi extended linearly from words to polynomials."""
    product = p.involution() * q
    return sum((coeff * phi(w) for w, coeff in product.terms.items()), Fraction(0))


class MopsResult:
    """Orthogonalized monomial family plus the monic-orthogonality verdict."""

    __slots__ = ("polynomials", "norms", "is_mops", "witness", "witness_value")

    def __init__(
        self,
        polynomials: dict[Word, NCPolynomial],
        norms: dict[Word, Fraction],
        is_mops: bool,
        witness: tuple[Word, Word] | None = None,
        witness_value: Fraction | None = None,
    ):
        self.polynomials = polynomials
        self.norms = norms
        self.is_mops = is_mops
        self.witness = witness
        self.witness_value = witness_value


def gram_schmidt_mops(
    phi: MomentFunctional,
    depth: int,
    within_degree_order: Callable[[list[Word]], list[Word]] | None = None,
) -> MopsResult:
    """Orthogonalize the monomials degree by degree and test orthogonality.

    Q_u is x_u minus its projections onto the nonzero-norm orthogonalized
    polynomials of strictly lower degree; zero-norm directions are skipped
    rather than inverted.  The functional must be defined on words up to
    length 2 * depth.  The verdict is True exactly when all distinct pairs up
    to the depth are orthogonal; the first failing pair is reported.

    Every inner product comes from one moment matrix N / L, N[a][b] =
    L phi(rev(a) b) in integers, over the words up to the depth, so phi is
    called once per pair of words and no polynomial is multiplied.  Each
    Q_u is kept as an integer vector c over those words with Q_u = c / c_u
    (Q_u is monic, so c_u is its denominator), and its integer row
    r_u = c^T N: <Q_u, q> = r_u . q / (c_u L) and ||Q_u||^2 =
    n_u / (c_u^2 L) with n_u = r_u . c.  Projecting c onto Q_v takes
    c <- n_v c - (r_v . c) c_v and divides out the content of c.  Every
    result is unchanged when c is scaled, by a negative factor too, so no
    sign is fixed; a Fraction is built only for the results.
    The order is that of modified Gram-Schmidt: each overlap is taken
    against c as already updated by the projections before it, which
    matters because lower Q_v of one degree need not be orthogonal to each
    other.

    Within-degree ordering never affects the result because projections only
    target lower degrees; ``within_degree_order`` exists to exercise that.
    """
    from .ncpoly import MomentMatrix, NCPolynomial

    words = words_up_to(2, depth)
    index = {w: i for i, w in enumerate(words)}
    by_degree: list[list[Word]] = [[w for w in words if len(w) == n] for n in range(depth + 1)]
    if within_degree_order is not None:
        by_degree = [within_degree_order(list(level)) for level in by_degree]

    matrix = MomentMatrix(phi, words)
    pair = matrix.pair
    vectors: dict[Word, list[int]] = {}
    rows: dict[Word, list[int]] = {}
    norms: dict[Word, int] = {}  # n_u = c^T N c
    for n, level in enumerate(by_degree):
        lower = [v for m in range(n) for v in by_degree[m] if norms[v]]
        for u in level:
            c = [0] * len(words)
            c[index[u]] = 1
            for v in lower:
                overlap = pair(rows[v], c)
                if overlap:
                    norm = norms[v]
                    c = [norm * x - overlap * y for x, y in zip(c, vectors[v])]
                    g = math.gcd(*c)
                    if g > 1:
                        c = [x // g for x in c]
            vectors[u] = c
            rows[u] = matrix.row(c)
            norms[u] = pair(rows[u], c)

    scale = matrix.scale
    denominator = {u: c[index[u]] for u, c in vectors.items()}
    polys = {
        u: NCPolynomial(2, {w: Fraction(x, denominator[u]) for w, x in zip(words, c) if x})
        for u, c in vectors.items()
    }
    norm_values = {u: Fraction(norm, denominator[u] ** 2 * scale) for u, norm in norms.items()}
    ordered = [u for level in by_degree for u in level]
    for u in ordered:
        for v in ordered:
            if u == v:
                continue
            value = pair(rows[u], vectors[v])
            if value:
                pair_uv = (u, v) if graded_lex_key(u) <= graded_lex_key(v) else (v, u)
                witness = Fraction(value, denominator[u] * denominator[v] * scale)
                return MopsResult(polys, norm_values, False, pair_uv, witness)
    return MopsResult(polys, norm_values, True)


def factor_into_one_variable_triple(
    p: NCPolynomial,
) -> tuple[Fraction, Fraction, Fraction] | None:
    """Constants (a, b, c) with p = (x1 + a)(x2 + b)(x1 + c), if they exist.

    The only monic one-variable factor shape whose leading word is (1, 2, 1);
    the candidate constants are read off the degree-two coefficients and then
    verified exactly.
    """
    from .ncpoly import NCPolynomial

    a = p.coefficient((2, 1))
    b = p.coefficient((1, 1))
    c = p.coefficient((1, 2))
    x1 = NCPolynomial.variable(1, p.d)
    x2 = NCPolynomial.variable(2, p.d)
    candidate = (x1 + a) * (x2 + b) * (x1 + c)
    return (a, b, c) if candidate == p else None
