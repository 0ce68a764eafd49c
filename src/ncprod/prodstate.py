"""Product-type states: coefficient maps and state evaluation.

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
continued-fraction engines' tables, from one full-length sweep of the
rewrite rule over dense columns, with no word tuple or ``Fraction`` per
word.  The ``moments`` and ``compare`` tables come from it, and so does
:func:`moment_table`, the moments over D^|w| from which ``mops --state
omega`` and :func:`ncprod.basis.gram_matrix` read every inner product.
:meth:`StateEvaluator.word_numerator` and :meth:`StateEvaluator.word_moment`
evaluate one word at a time by pairing half-length expansions instead.

Each level down costs two degrees, so a moment of order n reads B and C
only at words of length at most n // 2: a map of depth N serves every order
through 2N + 1.  A read past the map's depth raises
:class:`DepthExhaustedError`, the one depth check of every route.

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

The first takes D from the marginals' stored prefixes: the lcm over the
stored coefficients through the indices an entry can take, which clears
every coefficient the map can hold, since one beyond a prefix is the last
stored entry or 0.  It reads no coefficient through the extension policy,
so Jacobi data that run out under the "error" policy raise at the first
query that reads past them (a ``JacobiRangeError`` naming the index), and
a route that stays within them runs.  A finitely supported marginal (some
gamma_n = 0) is accepted on any tree: the basis polynomials that its zero
reaches have norm 0, as on the tree's boundary.

The maps, the evaluator and the moment tables run on the integer helpers of
:mod:`ncprod.words` alone, so a process that only tabulates moments loads
no polynomial code.  The basis polynomials P_u that the rewrite rule
defines, and their Gram matrix, are built in :mod:`ncprod.basis`.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Iterable, Mapping
from fractions import Fraction

from .jacobi import JacobiData
from .omega import OmegaTree, builder
from .words import (
    EMPTY_WORD,
    Word,
    check_word,
    clear_denominator,
    common_denominator,
    leading_run_length,
    parse_rational,
    word_values,
)

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
    C' = D^2 C, whose entries are ints, also kept as they are read.
    :meth:`norm_squared` is the product formula for ||P_u||^2, kept the
    same way.

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
        self._norms: dict[Word, Fraction] = {EMPTY_WORD: 1}

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
        """||P_u||^2 = C(u) ||P_tail(u)||^2: the product of C over the
        nonempty right-suffixes of the word, kept as it is computed.  It
        starts from the int 1, so on :attr:`integer` it is the int
        ||Q_u||^2."""
        value = self._norms.get(word)
        if value is None:
            value = self._norms[word] = self.c(word) * self.norm_squared(word[1:])
        return value


def _jacobi_lcm(data: JacobiData, depth: int) -> int:
    """lcm of the denominators of the stored beta_0..beta_depth and
    gamma_1..gamma_depth.  A coefficient beyond the stored prefix is the
    last stored entry or 0, so this clears every one of those indices
    without reading any through the extension policy."""
    return common_denominator(data.beta[: depth + 1] + data.gamma[: max(depth, 0)])


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
    over each mu's stored coefficients through index depth and each nu's
    through depth - 1, which clears every coefficient an entry can take.
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
    of the entries' denominators, and P_u comes from the rewrite rules.  A
    nonzero entry on a word with a letter outside 1..d, or beyond the
    depth, is refused with a ValueError that names it."""
    b = {(letter, tuple(word)): exact for (letter, word), value in b_entries.items()
         if (exact := parse_rational(value))}
    c = {tuple(word): exact for word, value in c_entries.items() if (exact := parse_rational(value))}
    for letter, word in b:
        _check_entry(f"B entry at letter {letter}, word {list(word)}", (letter, *word), d, len(word) > depth)
    for word, value in c.items():
        _check_entry(f"C entry at word {list(word)}", word, d, not word or len(word) > depth)
        if value < 0:
            raise ValueError(f"C entry at {list(word)} is negative: {value}")
    scale = common_denominator((*b.values(), *c.values()))
    return CoefficientMap(
        d, depth, lambda letter, word: b.get((letter, word), ZERO), lambda word: c.get(word, ZERO), scale
    )


def _check_entry(entry: str, word: Word, d: int, out_of_range: bool) -> None:
    """Refuse a map entry whose word has a letter outside 1..d or a length
    out of range."""
    try:
        check_word(word, d)
    except ValueError as exc:
        raise ValueError(f"bad {entry}: {exc}") from None
    if out_of_range:
        raise ValueError(f"bad {entry}")


def left_multiply(cm: CoefficientMap, letter: int, expansion: BasisExpansion) -> dict[Word, Fraction]:
    """Linear extension of the left-multiplication rewrite rule.

    Coefficients stay in the type of the map's entries and the expansion's
    coefficients: ``Fraction`` for a map as built, ``int`` for the scaled map
    and integer expansions of :class:`StateEvaluator`.
    """
    check_word((letter,), cm.d)
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
    """One word at a time: the library's evaluator of one coefficient map's
    state, and the tests' route independent of :func:`moment_parts`.

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
    cached for every suffix built, each from its tail's; ||Q_u||^2 is the
    integer view's :meth:`CoefficientMap.norm_squared`, which the map keeps.
    Word moments are not cached, since many words at once are
    :func:`moment_table`'s work.
    A map of depth N serves every order through 2N + 1; a longer word is
    refused only if its own expansions read past the map.  A polynomial's
    value is :meth:`word_moment` extended linearly, as
    :func:`ncprod.oracle.functional_inner` extends any word functional.

    The caches make instances single-threaded; share the map and
    give each thread its own evaluator.
    """

    def __init__(self, cm: CoefficientMap):
        self.cm = cm
        self._scale = cm.scale
        self._integer = cm.integer
        self._expansions: dict[Word, dict[Word, int]] = {EMPTY_WORD: {EMPTY_WORD: 1}}

    def _integer_expansion(self, word: Word) -> dict[Word, int]:
        """Expansion of y_word in the Q-basis: y_(word[0]) times that of
        y_tail(word), kept for every suffix built."""
        expansion = self._expansions.get(word)
        if expansion is None:
            expansion = self._expansions[word] = left_multiply(
                self._integer, word[0], self._integer_expansion(word[1:])
            )
        return expansion

    def word_numerator(self, word: Word) -> int:
        """D^|w| phi(w), with D the map's scale: the integer sum over u of
        A_u B_u ||Q_u||^2, which :meth:`word_moment` divides once.  The word
        is checked before any cache is read, since ``True`` and ``2.0`` hash
        as 1 and 2 would."""
        word = check_word(word, self.cm.d)
        half = len(word) // 2
        right = self._integer_expansion(word[half:])
        norm = self._integer.norm_squared
        total = 0
        for u, a in self._integer_expansion(word[:half][::-1]).items():
            b = right.get(u)
            if b is not None:
                total += a * b * norm(u)
        return total

    def word_moment(self, word: Word) -> Fraction:
        word = tuple(word)
        return Fraction(self.word_numerator(word), self._scale ** len(word))


def moment_parts(cm: CoefficientMap, order: int) -> list[list[int]]:
    """Every word's numerator D^|w| phi(w) through the order, D the map's
    scale, as one dense list per degree: parts[n] holds the d^n words of
    length n at their base-d indices (leftmost letter most significant).

    One sweep over word length runs the transfer operator on dense
    columns.  At length j, E[u] lists the integer coefficient [y_w]_u of
    Q_u in the expansion of y_w over the d^j words w.  Prepending the
    letter i gives the words iw, block i of the next length, and the
    rewrite rule read at Q_u gives

        E'[u] block i = [u starts with i] E[tail(u)] + B'(i, u) E[u] + C'(iu) E[iu].

    parts[j] is E[()], the coefficient of Q_() = 1.  A basis word u is
    dropped once it can no longer lower to (): when it is longer than
    order - j, or when C'(u) = 0, since Q_u lowers only through Q_tail(u);
    so is a u whose column vanishes.  B' and C' are thus read only at words
    of length at most order // 2: a map of depth N serves every order
    through 2N + 1.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    b, c = cm.integer.b, cm.integer.c
    letters = range(1, cm.d + 1)
    columns: dict[Word, list[int]] = {EMPTY_WORD: [1]}
    parts = [[1]]
    for j in range(order):
        zeros = [0] * len(parts[-1])
        reach = order - j - 1
        grown = {}
        for u in {v for u in columns for v in (u, u[1:], *((i,) + u for i in letters))}:
            if len(u) > reach or u and not c(u):
                continue
            here = columns.get(u, zeros)
            column = []
            for i in letters:
                raised = columns.get(u[1:], zeros) if u and u[0] == i else zeros
                stay = b(i, u) if here is not zeros else 0
                lowered = columns.get((i,) + u, zeros)
                low = c((i,) + u) if lowered is not zeros else 0
                column += [r + stay * s + low * t for r, s, t in zip(raised, here, lowered)]
            if any(column):
                grown[u] = column
        columns = grown
        parts.append(columns.get(EMPTY_WORD, zeros * cm.d))
    return parts


def moment_table(cm: CoefficientMap, order: int) -> list[tuple[Word, Fraction]]:
    """All word moments up to the given order, in graded-lex order: the
    numerators of :func:`moment_parts` over D^|w|."""
    return list(word_values(cm.d, moment_parts(cm, order), cm.scale))
