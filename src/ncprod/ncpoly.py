"""Non-commutative polynomials and the moment matrix of a word functional.

Coefficients are exact rationals (``fractions.Fraction``), each from
outside read by :func:`~ncprod.words.parse_rational`; words and their
helpers live in :mod:`ncprod.words`.  Only the routes that build a
polynomial load this module: the basis polynomials, ``gram``, ``mops`` and
``counterexample``.  The continued-fraction engines work on dense integer
lists and give value tables (:mod:`ncprod.cfrac`).

All values are immutable after construction and all operations are pure, so
everything here is safe to share between threads.

:class:`MomentMatrix` takes the inner products <p, q> = phi(p* q) of a word
functional phi from one integer table of its values, not from products.
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Iterable, Mapping, Sequence
from fractions import Fraction

from .words import (
    EMPTY_WORD,
    Rational,
    Word,
    check_word,
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


def _make(d: int, terms: Mapping[Word, Rational]) -> "NCPolynomial":
    """The result of arithmetic, built without the constructors' checks.

    Its terms already hold exact coefficients on words over 1..d, so only
    zero coefficients are dropped.  It is also the one way to make a
    polynomial of ``int`` coefficients: sums and products of such
    polynomials, and their int multiples, keep int coefficients.
    """
    out = object.__new__(NCPolynomial)
    object.__setattr__(out, "d", d)
    object.__setattr__(out, "terms", {w: c for w, c in terms.items() if c})
    return out


class NCPolynomial:
    """Rational-coefficient element of the free algebra on x_1, ..., x_d.

    ``terms`` maps words to nonzero coefficients; the zero polynomial has no
    terms and its :meth:`degree` is ``None`` rather than -1.
    """

    __slots__ = ("d", "terms")

    def __init__(self, d: int, terms: Mapping[Word, Rational] | None = None):
        if d < 1:
            raise ValueError("alphabet size must be at least 1")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "terms", _clean_terms(terms or {}, d))

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
        """A scalar becomes a constant; anything else is returned as is."""
        if isinstance(other, (int, Fraction)):
            return _make(self.d, {EMPTY_WORD: Fraction(other)})
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
        return _make(self.d, merged)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.d, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if not isinstance(other, NCPolynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _make(self.d, {w: c * other for w, c in self.terms.items()})
        if not isinstance(other, NCPolynomial):
            return NotImplemented
        self._check_compatible(other)
        product: dict[Word, Fraction] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                word = w1 + w2
                prev = product.get(word)
                product[word] = c1 * c2 if prev is None else prev + c1 * c2
        return _make(self.d, product)

    def __rmul__(self, other):
        # self.__mul__, not NCPolynomial.__mul__: a replaced __mul__ (the
        # benchmark's tracer installs one) must see scalar factors too.
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def involution(self) -> "NCPolynomial":
        """Reverse every word, keep coefficients; each x_i is self-adjoint."""
        return _make(self.d, {w[::-1]: c for w, c in self.terms.items()})

    def __eq__(self, other):
        other = self._coerce(other)
        if not isinstance(other, NCPolynomial):
            return NotImplemented
        return self.d == other.d and self.terms == other.terms

    def __hash__(self):
        return hash((self.d, frozenset(self.terms.items())))

    def to_str(self) -> str:
        """Terms in graded-lexicographic order."""
        if not self.terms:
            return "0"
        pieces = []
        for word in sorted(self.terms, key=graded_lex_key):
            coeff = self.terms[word]
            mono = "*".join(f"x{letter}" for letter in word)
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

    def __repr__(self):
        return f"NCPolynomial({self.to_str()})"


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
