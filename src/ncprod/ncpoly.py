"""Non-commutative polynomials, truncated non-commutative power series, and
the moment matrix of a word functional.

Coefficients are exact rationals (``fractions.Fraction``), each from
outside read by :func:`~ncprod.words.parse_rational`; words and their
helpers live in :mod:`ncprod.words`.  Only the routes that build a
polynomial or a series load this module: the basis polynomials, ``gram``,
``mops``, ``counterexample`` and the engines' public ``NCSeries`` wrappers.

All values are immutable after construction and all operations are pure, so
everything here is safe to share between threads.

:class:`MomentMatrix` takes the inner products <p, q> = phi(p* q) of a word
functional phi from one integer table of its values, not from products.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from .words import (
    EMPTY_WORD,
    Rational,
    Word,
    check_word,
    clear_denominator,
    common_denominator,
    format_rational,
    graded_lex_key,
    parse_rational,
)

# the coefficient of an absent word; Fractions are immutable, so one serves all
_ZERO = Fraction(0)


def _clean_terms(terms: Mapping[Word, Rational], d: int) -> dict[Word, Fraction]:
    cleaned: dict[Word, Fraction] = {}
    for word, coeff in terms.items():
        value = parse_rational(coeff)
        if value:
            cleaned[check_word(word, d)] = value
    return cleaned


def _make(d: int, order: int | None, terms: Mapping[Word, Rational]) -> "NCPolynomial":
    """The result of arithmetic, built without the constructors' checks.

    Its terms already hold exact coefficients on words over 1..d, so only
    zero coefficients and words longer than ``order`` are dropped.  A
    polynomial when ``order`` is None, a series otherwise.  It is also the
    one way to make a series of ``int`` coefficients: sums, products,
    truncations, sandwiches and inverses of such series, and their int
    multiples, keep int coefficients.
    """
    if order is None:
        out = object.__new__(NCPolynomial)
        kept = {w: c for w, c in terms.items() if c}
    else:
        out = object.__new__(NCSeries)
        object.__setattr__(out, "order", order)
        kept = {w: c for w, c in terms.items() if c and len(w) <= order}
    object.__setattr__(out, "d", d)
    object.__setattr__(out, "terms", kept)
    return out


def _format_terms(terms: Mapping[Word, Fraction], var: str) -> str:
    if not terms:
        return "0"
    pieces = []
    for word in sorted(terms, key=graded_lex_key):
        coeff = terms[word]
        mono = "*".join(f"{var}{letter}" for letter in word)
        if not word:
            body = format_rational(abs(coeff))
        elif abs(coeff) == 1:
            body = mono
        else:
            body = f"{format_rational(abs(coeff))}*{mono}"
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces)


def _meet(a: int | None, b: int | None) -> int | None:
    """The smaller of two truncation orders, where None means untruncated."""
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


class NCPolynomial:
    """Rational-coefficient element of the free algebra on x_1, ..., x_d.

    ``terms`` maps words to nonzero coefficients; the zero polynomial has no
    terms and its :meth:`degree` is ``None`` rather than -1.

    ``order`` is the truncation order: ``None`` for a polynomial, an integer
    for an :class:`NCSeries`.  A result truncates at the smallest order among
    its operands, and is a series exactly when that order is an integer.
    """

    __slots__ = ("d", "terms")
    order: int | None = None

    def __init__(self, d: int, terms: Mapping[Word, Rational] | None = None):
        if d < 1:
            raise ValueError("alphabet size must be at least 1")
        cleaned = _clean_terms(terms or {}, d)
        if self.order is not None:
            cleaned = {w: c for w, c in cleaned.items() if len(w) <= self.order}
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "terms", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls, d: int) -> "NCPolynomial":
        return cls(d)

    @classmethod
    def one(cls, d: int) -> "NCPolynomial":
        return cls(d, {EMPTY_WORD: 1})

    @classmethod
    def monomial(cls, word: Iterable[int], d: int, coeff: Rational = 1) -> "NCPolynomial":
        return cls(d, {tuple(word): coeff})

    @classmethod
    def variable(cls, letter: int, d: int) -> "NCPolynomial":
        return cls(d, {(letter,): 1})

    def coefficient(self, word: Iterable[int]) -> Fraction:
        return self.terms.get(tuple(word), _ZERO)

    def degree(self) -> int | None:
        """Maximal word length among terms; None for the zero polynomial."""
        if not self.terms:
            return None
        return max(len(w) for w in self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def _coerce(self, other):
        """A scalar becomes a constant of this order; anything else is returned as is."""
        if isinstance(other, (int, Fraction)):
            return _make(self.d, self.order, {EMPTY_WORD: Fraction(other)})
        return other

    def _check_compatible(self, other: "NCPolynomial") -> None:
        if self.d != other.d:
            raise ValueError(f"alphabet mismatch: {self.d} vs {other.d}")

    def __add__(self, other):
        other = self._coerce(other)
        if not isinstance(other, NCPolynomial):
            return NotImplemented
        self._check_compatible(other)
        merged = dict(self.terms)
        for word, coeff in other.terms.items():
            prev = merged.get(word)
            merged[word] = coeff if prev is None else prev + coeff
        return _make(self.d, _meet(self.order, other.order), merged)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.d, self.order, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if not isinstance(other, NCPolynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _make(self.d, self.order, {w: c * other for w, c in self.terms.items()})
        if not isinstance(other, NCPolynomial):
            return NotImplemented
        self._check_compatible(other)
        order = _meet(self.order, other.order)
        limit = math.inf if order is None else order
        # Bucket the right factor by degree so truncation prunes pair products.
        buckets: dict[int, list[tuple[Word, Fraction]]] = {}
        for word, coeff in other.terms.items():
            buckets.setdefault(len(word), []).append((word, coeff))
        product: dict[Word, Fraction] = {}
        for w1, c1 in self.terms.items():
            room = limit - len(w1)
            if room < 0:
                continue
            for length, entries in buckets.items():
                if length > room:
                    continue
                for w2, c2 in entries:
                    word = w1 + w2
                    prev = product.get(word)
                    product[word] = c1 * c2 if prev is None else prev + c1 * c2
        return _make(self.d, order, product)

    def __rmul__(self, other):
        # self.__mul__, not NCPolynomial.__mul__: a replaced NCSeries.__mul__ (the
        # benchmark's tracer installs one) must see scalar factors too.
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def involution(self) -> "NCPolynomial":
        """Reverse every word, keep coefficients; each x_i is self-adjoint."""
        return _make(self.d, self.order, {w[::-1]: c for w, c in self.terms.items()})

    def __eq__(self, other):
        other = self._coerce(other)
        if not isinstance(other, NCPolynomial):
            return NotImplemented
        return self.d == other.d and self.order == other.order and self.terms == other.terms

    def __hash__(self):
        return hash((self.d, self.order, frozenset(self.terms.items())))

    def to_str(self) -> str:
        """Terms in graded-lexicographic order, in x for a polynomial and z for a series."""
        return _format_terms(self.terms, "x" if self.order is None else "z")

    def __repr__(self):
        return f"NCPolynomial({self.to_str()})"


class NCSeries(NCPolynomial):
    """Degree-truncated non-commutative formal power series.

    An :class:`NCPolynomial` that stores only words of length <= ``order``.
    The inherited arithmetic drops higher terms, so every result is exact up
    to the truncation order.
    """

    __slots__ = ("order",)

    def __init__(self, d: int, order: int, terms: Mapping[Word, Rational] | None = None):
        if order < 0:
            raise ValueError("truncation order must be nonnegative")
        object.__setattr__(self, "order", order)
        super().__init__(d, terms)

    @classmethod
    def zero(cls, d: int, order: int) -> "NCSeries":
        return cls(d, order)

    @classmethod
    def one(cls, d: int, order: int) -> "NCSeries":
        return cls(d, order, {EMPTY_WORD: 1})

    @classmethod
    def monomial(cls, word: Iterable[int], d: int, order: int, coeff: Rational = 1) -> "NCSeries":
        return cls(d, order, {tuple(word): coeff})

    @classmethod
    def variable(cls, letter: int, d: int, order: int) -> "NCSeries":
        return cls(d, order, {(letter,): 1})

    def constant_term(self) -> Fraction:
        return self.terms.get(EMPTY_WORD, _ZERO)

    def truncate(self, order: int) -> "NCSeries":
        if order < 0:
            raise ValueError("truncation order must be nonnegative")
        return _make(self.d, order, self.terms)

    def sandwich(self, left: int, right: int) -> "NCSeries":
        """z_left * self * z_right; exact two orders beyond self, so order grows by 2."""
        check_word((left, right), self.d)
        shifted = {(left,) + word + (right,): coeff for word, coeff in self.terms.items()}
        return _make(self.d, self.order + 2, shifted)

    def inverse(self) -> "NCSeries":
        """Multiplicative inverse up to the truncation order.

        Requires constant term exactly 1; computed degree by degree from
        t = 1 - r*t where r is the positive-degree part.  With den the lcm of
        r's denominators and R = r*den, the degree-m part T_m = t_m*den^m is
        integral, T_m = -sum_j R_j*T_(m-j)*den^(j-1), so the recursion runs on
        integers and each output coefficient becomes a Fraction once.  A
        series of int coefficients (den = 1) keeps its inverse in ints.
        """
        one = self.constant_term()
        if one != 1:
            raise ValueError("series inverse requires constant term 1")
        integral = type(one) is int
        rest = [(word, coeff) for word, coeff in self.terms.items() if word]
        den = common_denominator(coeff for _, coeff in rest)
        # R_j * den^(j-1), grouped by the degree j
        r_by_degree: dict[int, list[tuple[Word, int]]] = {}
        for word, coeff in rest:
            scaled = clear_denominator(coeff, den) * den ** (len(word) - 1)
            r_by_degree.setdefault(len(word), []).append((word, scaled))
        parts: list[dict[Word, int]] = [{EMPTY_WORD: 1}]
        terms: dict[Word, Rational] = {EMPTY_WORD: one}
        for m in range(1, self.order + 1):
            component: dict[Word, int] = {}
            for j, entries in r_by_degree.items():
                if j > m:
                    continue
                lower = parts[m - j]
                for wr, cr in entries:
                    for wt, ct in lower.items():
                        word = wr + wt
                        component[word] = component.get(word, 0) - cr * ct
            component = {w: c for w, c in component.items() if c}
            parts.append(component)
            if integral:
                terms.update(component)
                continue
            scale = den**m
            for word, coeff in component.items():
                terms[word] = Fraction(coeff, scale)
        return _make(self.d, self.order, terms)

    def __repr__(self):
        return f"NCSeries(order={self.order}, {self.to_str()})"


class MomentMatrix:
    """The form <p, q> = phi(p* q) of a word functional, in integers, on
    polynomials given as dense coefficient vectors over a fixed list of words.

    Each phi(rev(a) + b) is evaluated once and kept as N[a][b] = L phi(rev(a)
    + b), L (``scale``) the lcm of their denominators, so <p, q> = p^T N q / L
    needs no polynomial product: :meth:`row` gives p^T N, :meth:`pair` closes
    it with q."""

    def __init__(self, phi: Callable[[Word], Fraction], words: Iterable[Word]):
        self.words = tuple(words)
        values = [[phi(a[::-1] + b) for b in self.words] for a in self.words]
        self.scale = common_denominator(value for row in values for value in row)
        self.entries = [[v.numerator * (self.scale // v.denominator) for v in row] for row in values]

    def row(self, p: Sequence[Rational]) -> list[Rational]:
        """p^T N, one entry per word: the coefficients of q -> L <p, q>."""
        out = [0] * len(self.words)
        for coeff, entries in zip(p, self.entries):
            if coeff:
                out = [x + coeff * v for x, v in zip(out, entries)]
        return out

    @staticmethod
    def pair(row: Sequence[Rational], q: Sequence[Rational]) -> Rational:
        """L <p, q>, from the row of p."""
        return sum(map(operator.mul, row, q))
