"""Direct-definition reference states, used to cross-check the main machinery.

Every oracle here evaluates joint moments straight from a defining
factorization or combinatorial formula, never through coefficient maps or
continued fractions, so agreement between the two routes is meaningful.

One non-crossing sum serves the free and the two-pair oracles; see
:class:`_noncrossing_moments`.  It sums over the block of the first
position, with cumulants read off the marginals' moments and the gaps
nested inside that block evaluated by a second state.  For the free state
that second state is the state itself (Speicher's moment-cumulant formula).
For the two-pair (conditionally free) state it is the free state of the nu
marginals, and the cumulants read off the mu marginals are the c-free
cumulants (Bozejko, Leinert and Speicher, 1996).  The block-centering
evaluation of the two-pair state, a route independent of this sum, lives
in the tests as its reference.

One block rule serves the Boolean, monotone, anti-monotone and tensor
states; see :func:`_block_product`.  They differ only in which letters
merge: every occurrence of a merged letter belongs to one block, each
maximal run of any other letter is a block of its own, and phi(w) is the
product of the blocks' marginal moments.  No letter merges in the Boolean
state, letter 1 in the monotone, letter 2 in the anti-monotone and both in
the tensor state.  Every functional here but the q-deformed Gaussian one
reads its word through :func:`~ncprod.words.check_word`, so a letter that
is not an int in 1..2 raises ``ValueError`` naming it.

The oracles of a marginal pair run in integers.  With D an integer that
clears every recursion coefficient of the marginals, each one finds
M(w) = D^|w| phi(w) from the integers D^n m_n of its marginals' moments
and divides once per word.  The free and two-pair sums scale block by
block (the block, its gaps and its tail add up to the word), and so do
the block products (the blocks add up to the word).  D is the lcm of the
marginals' stored coefficient denominators.  A factory given ``scale=D``
uses that D instead and returns the integers M(w) themselves: ``compare``
builds the oracle at its coefficient map's scale and checks each word as
two integers over the same D^|w|.  A scale that does not clear a
coefficient the oracle reads raises ``ValueError``.

Each ``*_state`` factory holds one :class:`~ncprod.jacobi.MomentSequence`
per marginal, so a marginal moment is computed once however many words
need it.  The non-crossing sum fills one dense integer table per word
length, indexed as :func:`~ncprod.prodstate.moment_parts` indexes its
table, grouping the first position's block by its last element: each
prefix's chain (the block's inner gaps, by block size) is built once from
the chains of its shorter prefixes, so words that share a prefix share it.
The free and two-pair functionals are views that extend the table through
the word's length and read one entry.  So one word costs its whole table,
every word of its length and below, and reads every letter's marginal
moments through index |w|: on the golden marginals (Python 3.11, a shared
2-core VM), about 0.03 s at |w| = 12 and 0.6 s at |w| = 16, where a
word-by-word sum took 2 ms.  Every caller in the package asks for whole
tables; for one long free moment, :class:`~ncprod.prodstate.StateEvaluator`
on the product-type map of ``builder("free", n)`` evaluates the word alone,
in under a millisecond there.

:func:`gram_schmidt_mops` orthogonalizes the monomials under any such
functional and tests the monic-orthogonality property.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from fractions import Fraction

from .jacobi import JacobiData, MomentSequence, coefficient_scale
from .words import Word, _add_outer, check_word, graded_lex_key, parse_rational, word_runs, words_up_to

# typing.TYPE_CHECKING without loading typing; type checkers read it as True
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .ncpoly import NCPolynomial

MomentFunctional = Callable[[Word], Fraction]
# w -> D^|w| phi(w), for an integer D fixed with the functional
NumeratorFunctional = Callable[[Word], int]
# what a *_state factory returns: a MomentFunctional, or with scale= a NumeratorFunctional
Functional = MomentFunctional | NumeratorFunctional


class _noncrossing_moments:
    """Joint moments summed over non-crossing partitions into one-letter
    blocks, as numerators over the marginals' common scale D, one dense
    table per word length.

    Summing over the block S of the first position and grouping by the
    last element j of S,

        phi(w) = sum over j with w_j = w_1 of A(w_1 ... w_j) * phi(w_{j+1} ... w_n),
        A(p) = sum_k kappa_k(p_1) * chain_k(p),

    where chain_k(p) sums, over the sets S of k positions of p that hold the
    letter p_1 and contain its first and last position, the product of
    ``nested`` over the inner gaps, the stretches between consecutive
    elements of S.  ``nested`` defaults to phi itself.  A marginal's
    kappa_n comes from the same sum on the word a^n, whose value m_n is
    known: kappa_n is m_n minus the terms with |S| < n.

    The lengths of S, the gaps and the tail add up to |w|, so the same sum
    holds for M(w) = D^|w| phi(w) with K_n = D^n kappa_n in place of the
    cumulants, and with M_n = D^n m_n read from the marginals
    (:meth:`~ncprod.jacobi.MomentSequence.numerator`).  It runs on those
    integers, and ``nested`` must count at the same D.

    ``parts[n]`` holds M(w) for the d^n words of length n at their base-d
    indices (leftmost letter most significant), as in
    :func:`~ncprod.prodstate.moment_parts`.  The chains are kept per first
    letter a: the prefix a v a is indexed by v, and the chains of the
    prefixes of one length are dense lists, one per k.  S's element before
    the last is the first position (k = 2, one gap v) or the last a of v, so
    each chain is built once from those of the shorter prefixes and the
    gap values; words that share a prefix share its chain, and every step
    is an outer product (:func:`~ncprod.words._add_outer`).

    Calling the table on a word extends it through the word's length and
    reads one entry, so one word costs its whole table: every word of its
    length and below, and every letter's marginal moments through index
    |w| (the nested state's through |w| - 2).  A read that raises leaves
    the table as it was.
    """

    __slots__ = ("_marginals", "_nested", "parts", "_cumulants", "_chains", "_blocks")

    def __init__(
        self, marginals: dict[int, MomentSequence], nested: _noncrossing_moments | None = None
    ):
        self._marginals = [marginals[letter] for letter in range(1, len(marginals) + 1)]
        self._nested = nested
        self.parts = [[1]]
        letters = range(len(marginals))
        # per letter: K_n at index n, index 0 never read
        self._cumulants: list[list[int]] = [[0] for _ in letters]
        # per letter a, per |v|: [chain_k(a v a) over v, for k = 2, 3, ...]
        self._chains: list[list[list[list[int]]]] = [[] for _ in letters]
        # per letter a, per |v|: A(a v a) over v
        self._blocks: list[list[list[int]]] = [[] for _ in letters]

    def through(self, n: int) -> list[list[int]]:
        """``parts``, extended through length n."""
        while len(self.parts) <= n:
            self._extend()
        return self.parts

    def __call__(self, word: Word) -> int:
        d = len(self._marginals)
        word = check_word(word, d)
        index = 0
        for letter in word:
            index = index * d + letter - 1
        return self.through(len(word))[len(word)][index]

    def _extend(self) -> None:
        """Add the words of the next length.  Every read that can raise comes
        first, before the table changes."""
        parts = self.parts
        n = len(parts)
        m = n - 2  # |v| of the prefixes a v a of length n
        d = len(self._marginals)
        moments = [marginal.numerator(n) for marginal in self._marginals]
        gaps = parts if self._nested is None else self._nested.through(max(m, 0))
        row = [0] * d**n
        for a, marginal in enumerate(self._marginals):
            kappa, chains, blocks = self._cumulants[a], self._chains[a], self._blocks[a]
            if n == 1:
                kappa.append(moments[a])
            else:
                # S's element before the last: the first position (k = 2,
                # gap v), or the last a of v, at i - 1, after the prefix
                # a v' a with |v'| = i - 1 and before the gap of length m - i
                level = [gaps[m]] + [[0] * d**m for _ in range(m)]
                for i in range(1, m + 1):
                    stride = d ** (m - i)
                    for k, chain in enumerate(chains[i - 1]):
                        _add_outer(level[k + 1], chain, gaps[m - i], stride * d, a * stride)
                # a^n: its value m_n less every term but kappa_n's, whose chain is 1
                pure = [sum(a * d**t for t in range(length)) for length in range(n - 1)]
                rest = kappa[1] * marginal.numerator(n - 1)
                rest += sum(blocks[j - 2][pure[j - 2]] * marginal.numerator(n - j) for j in range(2, n))
                rest += sum(kappa[k + 2] * level[k][pure[m]] for k in range(m))
                kappa.append(moments[a] - rest)
                block = [0] * d**m
                for k, chain in enumerate(level):
                    if kappa[k + 2]:
                        block = [x + kappa[k + 2] * y for x, y in zip(block, chain)]
                chains.append(level)
                blocks.append(block)
            # the words a w': j = 1, then the prefixes a v a of every length j
            top = a * d ** (n - 1)
            _add_outer(row, kappa[1:2], parts[n - 1], d ** (n - 1), top)
            for j in range(2, n + 1):
                stride = d ** (n - j)
                _add_outer(row, blocks[j - 2], parts[n - j], stride * d, top + a * stride)
        parts.append(row)


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
    product of the blocks' free cumulants.  The functional is a view of one
    table (:class:`_noncrossing_moments`): a word extends it through the
    word's length, so one word of length n costs every word through n.
    """
    m1, m2 = _moment_sequences(scale, j1, j2)
    return _finish(_noncrossing_moments({1: m1, 2: m2}), m1.scale, scale is not None)


def _block_product(
    merged: tuple[int, ...], j1: JacobiData, j2: JacobiData, scale: int | None
) -> Functional:
    """The block rule shared by the Boolean, monotone, anti-monotone and
    tensor states: all occurrences of a letter in ``merged`` form one block,
    each maximal run of any other letter is a block of its own, and M(w) is
    the product of the blocks' M_n = D^n m_n."""
    m1, m2 = _moment_sequences(scale, j1, j2)
    marginals = {1: m1, 2: m2}

    def phi(word: Word) -> int:
        word = check_word(word, 2)
        total = 1
        for letter in merged:
            total *= marginals[letter].numerator(word.count(letter))
        for letter, length in word_runs(word):
            if letter not in merged:
                total *= marginals[letter].numerator(length)
        return total

    return _finish(phi, m1.scale, scale is not None)


def boolean_state(j1: JacobiData, j2: JacobiData, *, scale: int | None = None) -> Functional:
    """Each maximal block contributes its own marginal moment."""
    return _block_product((), j1, j2, scale)


def monotone_state(j1: JacobiData, j2: JacobiData, *, scale: int | None = None) -> Functional:
    """All letter-1 blocks merge into one marginal moment; letter-2 blocks factor."""
    return _block_product((1,), j1, j2, scale)


def antimonotone_state(j1: JacobiData, j2: JacobiData, *, scale: int | None = None) -> Functional:
    """Monotone with the letters and marginals interchanged."""
    return _block_product((2,), j1, j2, scale)


def tensor_state(j1: JacobiData, j2: JacobiData, *, scale: int | None = None) -> Functional:
    """Product of the two total-power marginal moments."""
    return _block_product((1, 2), j1, j2, scale)


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
    Like :func:`free_state`, the functional is a view of one table, which
    reads the gaps from the table of (nu1, nu2); a word of length n costs
    every word through n, and the nu table through n - 2.
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


def gram_schmidt_mops(phi: MomentFunctional, depth: int) -> MopsResult:
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
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    from .ncpoly import MomentMatrix, NCPolynomial

    words = words_up_to(2, depth)
    index = {w: i for i, w in enumerate(words)}
    by_degree: list[list[Word]] = [[w for w in words if len(w) == n] for n in range(depth + 1)]

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
    for u in words:
        for v in words:
            if u == v:
                continue
            value = pair(rows[u], vectors[v])
            if value:
                pair_uv = (u, v) if graded_lex_key(u) <= graded_lex_key(v) else (v, u)
                witness = Fraction(value, denominator[u] * denominator[v] * scale)
                return MopsResult(polys, norm_values, False, pair_uv, witness)
    return MopsResult(polys, norm_values, True)
