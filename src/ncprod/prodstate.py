"""Product-type states: basis polynomials, coefficient maps, state evaluation.

A state with a monic orthogonal polynomial family {P_u} indexed by words is
determined by per-word recursion coefficients: B(i, u) measures the
stay-in-place part of left multiplication by x_i at P_u, and C(u) >= 0 the
lowering part.  The complete rewrite rule for left multiplication is

    x_i * P_u = P_{(i, u)} + B(i, u) * P_u + [u starts with i] * C(u) * P_tail(u)

where tail(u) drops the first letter.  Expanding a monomial letter by letter
(rightmost first) from P_() and reading the constant coefficient evaluates
the state on it; that transfer-operator expansion is exact and linear.
Because the P_u are orthogonal, with ||P_u||^2 the product of C over the
nonempty suffixes of u, :class:`StateEvaluator` runs that expansion only at
half the word length: phi(x_a x_b) pairs the expansions of x_rev(a) and x_b.

:class:`StateEvaluator` runs it in integers.  With D an integer that
clears the denominator of every B and C entry (the map's ``scale``), the
scaled variables y_i = D x_i and basis Q_u = D^|u| P_u obey

    y_i * Q_u = Q_{(i, u)} + (D B(i, u)) * Q_u + [u starts with i] * (D^2 C(u)) * Q_tail(u),

whose coefficients B' = D B and C' = D^2 C are integers, since D clears
every denominator (C' takes D^2 because Q_tail(u) carries one factor D
fewer than Q_u).  So the expansion of y_w in the Q-basis has integer
coefficients, ||Q_u||^2 (the product of C' over the nonempty suffixes of u)
is an integer, and phi(x_w) = phi(y_w) / D^|w| needs one division per word.
The continued-fraction engines in :mod:`ncprod.cfrac` run on the same
integer coefficients.

:func:`moment_parts` gives every word's numerator D^|w| phi(x_w) through an
order as one dense list of ints per degree, the layout of the
continued-fraction engines' tables: a degree is a sum of outer products of
the half-length expansions' columns, one per basis word, with no word tuple
or ``Fraction`` per word.  The ``moments`` table and :func:`moment_table`
come from it; :meth:`StateEvaluator.word_numerator` and
:meth:`StateEvaluator.word_moment` evaluate one word at a time.

A :class:`CoefficientMap` answers B(i, u) and C(u) on demand and keeps each
answer, so a query touches only the entries it reads (``cfrac --order 13``
reads a few hundred of the 49,148 entries of depth 13), and so does its
integer view of B' and C'.  D is fixed at construction.  Coefficient maps
come from two constructions:

* ``product_type_map(tree, j1, j2, nu=None)``: at a node u = i^k v, B(i, u)
  and C(u) are beta_k and gamma_k of the leading run's marginal, mu_i
  (``j1``, ``j2``) when the run is the whole word and nu_i otherwise (nu
  defaults to mu).  B(i, u) is 0 unless (i, u) is a tree member, and C(u)
  is 0 unless u is an interior member (member with its same-letter
  extension present).  ``cfree_map(mu1, nu1, mu2, nu2, depth)``, the
  two-marginal-pair state, is this map on the full binary tree.
* ``explicit_map``: arbitrary diagonal data, for exercising the continued
  fraction machinery beyond the product-type case.

The first takes D from the marginals: the lcm over every coefficient the
map can hold, all read at construction, so Jacobi data that run out under
the "error" policy raise there and not at some later query.  A finitely
supported marginal (some gamma_n = 0) is accepted on any tree: the basis
polynomials that its zero reaches have norm 0, as on the tree's boundary.

Every map's basis polynomial P_u is :func:`recursion_basis`, built from the
rewrite rules.  On a product-type map that is :func:`basis_polynomial`, the
definition (for a member u, the product of one-variable orthogonal
polynomials over the runs of u), which the tests check it against.

The maps, the evaluator and the moment tables run on the integer helpers of
:mod:`ncprod.words` alone.  :func:`basis_polynomial`,
:func:`recursion_basis` and :func:`gram_matrix` import the polynomial layer
(:mod:`ncprod.ncpoly`) when they run, so a process that only tabulates
moments never loads it.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

from .jacobi import JacobiData
from .omega import OmegaTree, builder
from .words import (
    EMPTY_WORD,
    Word,
    _add_outer,
    clear_denominator,
    common_denominator,
    graded_lex_key,
    leading_run_length,
    parse_rational,
    word_postfixes,
    word_runs,
    words_of_length,
    words_up_to,
)

if TYPE_CHECKING:
    from .ncpoly import NCPolynomial

BasisExpansion = Mapping[Word, Fraction]


class DepthExhaustedError(RuntimeError, ValueError):
    """A coefficient was requested beyond the stored depth of the map."""


ZERO = Fraction(0)


class CoefficientMap:
    """Per-word recursion coefficients B(i, u) and C(u), answered on demand.

    ``b_rule(i, u)`` and ``c_rule(u)`` give one entry (0 where there is
    none); :meth:`b` and :meth:`c` ask each rule at most once per entry and
    keep its answer.  A word longer than ``depth`` is never kept, so every
    query beyond the depth raises :class:`DepthExhaustedError`.

    ``scale`` is D, fixed at construction: an integer that clears the
    denominator of every entry.  :attr:`integer` is the map of B' = D B and
    C' = D^2 C, whose entries are ints, also kept as they are read.  P_u
    comes from the rewrite rules (:func:`recursion_basis`) for every map;
    :func:`basis_polynomial` is the definition the tests check it against.

    The rules are pure, and a memo only ever gains the value its rule
    gives, so threads may share a map.
    """

    def __init__(
        self,
        d: int,
        depth: int,
        b_rule: Callable[[int, Word], Fraction],
        c_rule: Callable[[Word], Fraction],
        scale: int,
    ):
        self.d = d
        self.depth = depth
        self.scale = scale
        self._b_rule = b_rule
        self._c_rule = c_rule
        self._b: dict[tuple[int, Word], Fraction] = {}
        self._c: dict[Word, Fraction] = {}

    def b(self, letter: int, word: Word) -> Fraction:
        key = (letter, word)
        value = self._b.get(key)
        if value is None:
            if len(word) > self.depth:
                raise DepthExhaustedError(
                    f"B query at depth {len(word)} exceeds map depth {self.depth}"
                )
            value = self._b[key] = self._b_rule(letter, word)
        return value

    def c(self, word: Word) -> Fraction:
        value = self._c.get(word)
        if value is None:
            if len(word) > self.depth:
                raise DepthExhaustedError(
                    f"C query at depth {len(word)} exceeds map depth {self.depth}"
                )
            value = self._c[word] = self._c_rule(word)
        return value

    @functools.cached_property
    def integer(self) -> "CoefficientMap":
        """The map of B' = D B and C' = D^2 C, whose entries are ints."""
        scale = self.scale
        return CoefficientMap(
            self.d,
            self.depth,
            lambda letter, word: clear_denominator(self.b(letter, word), scale),
            lambda word: clear_denominator(self.c(word), scale * scale),
            1,
        )

    def norm_squared(self, word: Word) -> Fraction:
        """Product of C over all nonempty right-suffixes of the word."""
        total = Fraction(1)
        for suffix in word_postfixes(word)[:-1]:
            total *= self.c(suffix)
            if not total:
                return total
        return total


def _jacobi_lcm(data: JacobiData, depth: int) -> int:
    """lcm of the denominators of beta_0..beta_depth and gamma_1..gamma_depth;
    reading them raises JacobiRangeError where the data run out."""
    betas = [data.beta_at(k) for k in range(depth + 1)]
    return common_denominator(betas + [data.gamma_at(k) for k in range(1, depth + 1)])


def product_type_map(
    tree: OmegaTree,
    j1: JacobiData,
    j2: JacobiData,
    nu: tuple[JacobiData, JacobiData] | None = None,
) -> CoefficientMap:
    """Coefficient map of the product-type state attached to a tree.

    At a node u = i^k v the leading run's beta_k and gamma_k give B(i, u)
    and C(u): from mu_i (``j1``, ``j2``) when v is empty, and from nu_i
    otherwise, with ``nu`` defaulting to the mu pair.  B is 0 where (i, u)
    is not a member, and C where u is not an interior member.  D is the lcm
    over each mu's coefficients through index depth and each nu's through
    depth - 1, every coefficient an entry can take.
    """
    mu = (j1, j2)
    inner = mu if nu is None else nu
    depth = tree.depth
    scale = math.lcm(
        *(_jacobi_lcm(data, depth) for data in mu),
        *(_jacobi_lcm(data, depth - 1) for data in inner),
    )
    def b_rule(letter: int, word: Word) -> Fraction:
        if (letter,) + word not in tree:
            return ZERO
        k = leading_run_length(word, letter)
        return (mu if len(word) == k else inner)[letter - 1].beta_at(k)

    def c_rule(word: Word) -> Fraction:
        if not word or not tree.in_interior(word):
            return ZERO
        letter = word[0]
        k = leading_run_length(word, letter)
        return (mu if len(word) == k else inner)[letter - 1].gamma_at(k)

    return CoefficientMap(2, depth, b_rule, c_rule, scale)


def cfree_map(
    mu1: JacobiData, nu1: JacobiData, mu2: JacobiData, nu2: JacobiData, depth: int
) -> CoefficientMap:
    """The two-marginal-pair (c-free) map: the product-type map of the
    full binary tree with nu = (nu1, nu2)."""
    return product_type_map(builder("free", depth), mu1, mu2, (nu1, nu2))


def explicit_map(
    d: int,
    depth: int,
    b_entries: Mapping[tuple[int, Iterable[int]], Fraction],
    c_entries: Mapping[Iterable[int], Fraction],
) -> CoefficientMap:
    """Arbitrary diagonal recursion data (no tree attached); D is the lcm
    of the entries' denominators, and P_u comes from the rewrite rules."""
    b = {(letter, tuple(word)): exact for (letter, word), value in b_entries.items()
         if (exact := parse_rational(value))}
    c = {tuple(word): exact for word, value in c_entries.items() if (exact := parse_rational(value))}
    for letter, word in b:
        if not 1 <= letter <= d or len(word) > depth:
            raise ValueError(f"bad B entry at letter {letter}, word {list(word)}")
    for word, value in c.items():
        if not word or len(word) > depth:
            raise ValueError(f"bad C entry at word {list(word)}")
        if value < 0:
            raise ValueError(f"C entry at {list(word)} is negative: {value}")
    scale = common_denominator((*b.values(), *c.values()))
    return CoefficientMap(
        d, depth, lambda letter, word: b.get((letter, word), ZERO), lambda word: c.get(word, ZERO), scale
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
    from .jacobi import orthogonal_polynomial
    from .ncpoly import NCPolynomial

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
    from .ncpoly import NCPolynomial

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


def left_multiply(cm: CoefficientMap, letter: int, expansion: BasisExpansion) -> dict[Word, Fraction]:
    """Linear extension of the left-multiplication rewrite rule.

    Coefficients stay in the type of the map's entries and the expansion's
    coefficients: ``Fraction`` for a map as built, ``int`` for the scaled map
    and integer expansions of :class:`StateEvaluator`.
    """
    if not 1 <= letter <= cm.d:
        raise ValueError(f"letter {letter} outside alphabet 1..{cm.d}")
    out: dict[Word, Fraction] = {}

    def add(word: Word, value: Fraction) -> None:
        total = out.get(word, 0) + value
        if total:
            out[word] = total
        elif word in out:
            del out[word]

    for word, coeff in expansion.items():
        add((letter,) + word, coeff)
        bval = cm.b(letter, word)
        if bval:
            add(word, coeff * bval)
        if word and word[0] == letter:
            cval = cm.c(word)
            if cval:
                add(word[1:], coeff * cval)
    return out


class StateEvaluator:
    """Memoizing evaluator of one coefficient map's state.

    A word w = a.b is evaluated from two half-length expansions, with
    a = w[:len(w) // 2]:

        phi(x_a x_b) = <x_rev(a), x_b> = sum_u [x_rev(a)]_u [x_b]_u ||P_u||^2,

    because the P_u are orthogonal and every x_i is symmetric under the form
    diag(||P_u||^2) (||P_{iu}||^2 = C(iu) ||P_u||^2), for any coefficient map.

    The sum runs in integers.  With D the map's scale, y_i = D x_i and
    Q_u = D^|u| P_u, the rewrite rule has the coefficients B' = D B and
    C' = D^2 C, which are integers because D clears every denominator; the
    map's integer view ``cm.integer`` drives :func:`left_multiply`.
    Then the expansions A of y_rev(a) and B of y_b in the Q-basis, and
    ||Q_u||^2 (the product of C' over the nonempty suffixes of u), are
    integers, and

        phi(x_w) = sum_u A_u B_u ||Q_u||^2 / D^|w|.

    :meth:`word_numerator` is that integer sum, D^|w| phi(x_w); comparing
    two of them at one D compares the moments.  Integer expansions are
    cached for every suffix built, and so are the norms and, for each left
    half, its row {u: A_u ||Q_u||^2}, shared by every word that starts with
    that half.  Word moments are cached as well, so evaluating many
    polynomials against the same state reuses work.  Supports polynomials of
    degree up to ``cm.depth + 1``; a longer word raises
    :class:`DepthExhaustedError`.

    The caches make instances single-threaded; share the map and
    give each thread its own evaluator.
    """

    def __init__(self, cm: CoefficientMap):
        self.cm = cm
        self._scale = cm.scale
        self._integer = cm.integer
        self._expansions: dict[Word, dict[Word, int]] = {EMPTY_WORD: {EMPTY_WORD: 1}}
        self._norms: dict[Word, int] = {EMPTY_WORD: 1}
        self._rows: dict[Word, dict[Word, int]] = {}
        self._moments: dict[Word, Fraction] = {}

    def _integer_expansion(self, word: Word) -> dict[Word, int]:
        """Expansion of y_word in the Q-basis, built from the longest cached
        suffix outward."""
        cached = self._expansions.get(word)
        if cached is not None:
            return cached
        start = len(word)
        for k in range(1, len(word) + 1):
            if word[k:] in self._expansions:
                start = k
                break
        current = self._expansions[word[start:]]
        for pos in range(start - 1, -1, -1):
            current = left_multiply(self._integer, word[pos], current)
            self._expansions[word[pos:]] = current
        return current

    def expansion(self, word: Word) -> dict[Word, Fraction]:
        """Expansion of the monomial x_word in the P-basis:
        [x_w]_u = [y_w]_u D^|u| / D^|w|."""
        word = tuple(word)
        scale = self._scale
        denominator = scale ** len(word)
        return {
            u: Fraction(coeff * scale ** len(u), denominator)
            for u, coeff in self._integer_expansion(word).items()
        }

    def _norm(self, u: Word) -> int:
        """||Q_u||^2 = C'(u) ||Q_tail(u)||^2."""
        norm = self._norms.get(u)
        if norm is None:
            norm = self._norms[u] = self._integer.c(u) * self._norm(u[1:])
        return norm

    def _row(self, left: Word) -> dict[Word, int]:
        """{u: A_u ||Q_u||^2} for the expansion A of y_left, zeros dropped."""
        row = self._rows.get(left)
        if row is None:
            row = {}
            for u, coeff in self._integer_expansion(left).items():
                norm = self._norm(u)
                if norm:
                    row[u] = coeff * norm
            self._rows[left] = row
        return row

    def word_numerator(self, word: Word) -> int:
        """D^|w| phi(w), with D the map's scale: the integer sum over u of
        A_u B_u ||Q_u||^2, which :meth:`word_moment` divides once."""
        word = tuple(word)
        if len(word) > self.cm.depth + 1:
            raise DepthExhaustedError(
                f"word of length {len(word)} exceeds map depth {self.cm.depth} + 1"
            )
        half = len(word) // 2
        row = self._row(word[:half][::-1])
        right = self._integer_expansion(word[half:])
        total = 0
        for u, a in row.items():
            b = right.get(u)
            if b is not None:
                total += a * b
        return total

    def word_moment(self, word: Word) -> Fraction:
        word = tuple(word)
        value = self._moments.get(word)
        if value is None:
            value = self._moments[word] = Fraction(
                self.word_numerator(word), self._scale ** len(word)
            )
        return value

    def eval_poly(self, p: NCPolynomial) -> Fraction:
        if p.d != self.cm.d:
            raise ValueError(f"alphabet mismatch: {p.d} vs {self.cm.d}")
        return sum((coeff * self.word_moment(w) for w, coeff in p.terms.items()), Fraction(0))


def moment_parts(cm: CoefficientMap, order: int) -> list[list[int]]:
    """Every word's numerator D^|w| phi(w) through the order, D the map's
    scale, as one dense list per degree: parts[n] holds the d^n words of
    length n at their base-d indices (leftmost letter most significant).

    Degree n splits each word as a.b with |a| = h = n // 2 and |b| = n - h,
    as :meth:`StateEvaluator.word_numerator` does, and reads the same cached
    expansions.  Over the basis words u that both halves reach, the column
    L_u[x] = [y_rev(a_x)]_u ||Q_u||^2 (the left halves a_x in base-d order)
    and the column R_u[y] = [y_(b_y)]_u (the right halves) give

        parts[n][x d^(n-h) + y] = sum_u L_u[x] R_u[y],

    one outer product per u, and x d^(n-h) + y is the index of a_x.b_y.
    Raises :class:`DepthExhaustedError` above order ``cm.depth + 1``.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if order > cm.depth + 1:
        raise DepthExhaustedError(f"order {order} exceeds map depth {cm.depth} + 1")
    evaluator = StateEvaluator(cm)
    d = cm.d
    parts = []
    for n in range(order + 1):
        h = n // 2
        lefts = _columns([evaluator._row(a[::-1]) for a in words_of_length(d, h)])
        rights = _columns([evaluator._integer_expansion(b) for b in words_of_length(d, n - h)])
        out = [0] * d**n
        stride = d ** (n - h)
        for u, column in lefts.items():
            right = rights.get(u)
            if right is not None:
                _add_outer(out, column, right, stride)
        parts.append(out)
    return parts


def _columns(vectors: list[Mapping[Word, int]]) -> dict[Word, list[int]]:
    """{u: [v[u] for v in vectors]} over every u some vector holds."""
    columns: dict[Word, list[int]] = {}
    for x, vector in enumerate(vectors):
        for u, value in vector.items():
            column = columns.get(u)
            if column is None:
                column = columns[u] = [0] * len(vectors)
            column[x] = value
    return columns


def moment_table(cm: CoefficientMap, order: int) -> list[tuple[Word, Fraction]]:
    """All word moments up to the given order, in graded-lex order: the
    numerators of :func:`moment_parts` over D^|w|."""
    table = []
    for n, part in enumerate(moment_parts(cm, order)):
        denominator = cm.scale**n
        table += zip(words_of_length(cm.d, n), (Fraction(v, denominator) for v in part))
    return table


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

    Needs 2 * depth <= cm.depth + 1 so that the inner products stay within
    the supported degree.  Each entry is P_u^T N P_v / L, with N / L the
    state's moment matrix over the words up to the depth.
    """
    from .ncpoly import MomentMatrix

    if 2 * depth > cm.depth + 1:
        raise DepthExhaustedError(
            f"Gram depth {depth} needs map depth >= {2 * depth - 1}, have {cm.depth}"
        )
    words = tuple(words_up_to(cm.d, depth))
    vectors = {u: list(map(recursion_basis(cm, u).coefficient, words)) for u in words}
    matrix = MomentMatrix(StateEvaluator(cm).word_moment, words)
    entries: dict[tuple[Word, Word], Fraction] = {}
    for u in words:
        row = matrix.row(vectors[u])
        for v in words:
            value = matrix.pair(row, vectors[v])
            if value:
                entries[(u, v)] = Fraction(value, matrix.scale)
    return GramMatrix(words=words, entries=entries)
