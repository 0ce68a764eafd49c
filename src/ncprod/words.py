"""Words, exact rationals and dense graded integer series: the integer core
that every route shares.

Every value from outside passes :func:`parse_rational`, which refuses a
float, so nothing in this package touches floating point.  Words are tuples
of letters from ``{1, ..., d}`` with the empty tuple as the unit monomial.
Words are stored leftmost-first, and a "postfix" always means a
right-suffix: ``(2, 1)`` is a postfix of ``(1, 2, 1)`` but ``(1, 2)`` is
not.

A dense graded series is one list of ints per degree m holding the d^m
words of length m at their base-d values (leftmost letter most
significant), which is :func:`words_up_to` order.  :func:`_add_outer` is
the one product on such lists, shared by the transfer operator's table and
both continued-fraction engines.

:class:`FrozenRecord` is the base of the package's small immutable value
types.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

Word = tuple[int, ...]
Rational = Union[Fraction, int]

EMPTY_WORD: Word = ()


def parse_rational(value: Union[Rational, str]) -> Fraction:
    """An int, a Fraction or a "p/q", integer or decimal string ("3/4",
    "-1/2", "2", "0.1") as an exact Fraction.  A float is refused: 0.1 would
    become 3602879701896397/2**55.  So is a bool.  Every failure is a
    ValueError, whose message shows the value by :func:`format_value`."""
    if isinstance(value, float):
        raise ValueError(
            f"float {format_value(value)} is not exact; pass an int, a Fraction or a 'p/q' string"
        )
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {format_value(value)}")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ValueError(f"not a rational: {format_value(value)}") from exc


def format_rational(value: Rational) -> str:
    """Canonical lowest-terms string, integers rendered without a denominator;
    ``str`` already prints a Fraction or an int that way."""
    return str(value)


def format_value(value: object) -> str:
    """A value read from JSON as a message shows it: a string, true, false
    and null as JSON writes them, each Fraction (a JSON number that is not
    an integer) in exact form, 29/10 rather than Fraction(29, 10), and any
    other value by its repr."""
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(map(format_value, value)) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{format_value(key)}: {format_value(item)}" for key, item in value.items()) + "}"
    if value is None or isinstance(value, (bool, str)):
        return json.dumps(value)
    return repr(value)


# the JSON type of each Python type json.load returns (a number that is not
# an integer is read as a Fraction), with its article
_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", int: "an integer",
               Fraction: "a number", bool: "a boolean", type(None): "null"}


def json_type(value: object) -> str:
    """The JSON type of a value read from JSON, with its article, as a
    message names it: "an array", "an integer", "null"."""
    kind = type(value)
    return _JSON_TYPES.get(kind) or f"a {kind.__name__}"


def check_word(word: Iterable[int], d: int) -> Word:
    w = tuple(word)
    for letter in w:
        if not (type(letter) is int and 1 <= letter <= d):
            raise ValueError(f"letter {format_value(letter)} outside alphabet 1..{d}")
    return w


def word_postfixes(word: Word) -> list[Word]:
    """All right-suffixes of a word, longest first, down to the empty word."""
    return [word[k:] for k in range(len(word) + 1)]


def word_runs(word: Word) -> list[tuple[int, int]]:
    """Maximal constant runs as (letter, length) pairs, leftmost run first."""
    runs: list[list[int]] = []
    for letter in word:
        if runs and runs[-1][0] == letter:
            runs[-1][1] += 1
        else:
            runs.append([letter, 1])
    return [(letter, length) for letter, length in runs]


def leading_run_length(word: Word, letter: int) -> int:
    """Length of the initial run of ``letter`` at the left end of the word."""
    k = 0
    for current in word:
        if current != letter:
            break
        k += 1
    return k


def graded_lex_key(word: Word) -> tuple[int, Word]:
    return (len(word), word)


def words_of_length(d: int, length: int) -> list[Word]:
    return list(itertools.product(range(1, d + 1), repeat=length))


def words_up_to(d: int, max_length: int) -> list[Word]:
    """All words of length <= max_length in graded-lexicographic order."""
    out: list[Word] = []
    for n in range(max_length + 1):
        out.extend(words_of_length(d, n))
    return out


def _add_outer(out: list, a: Sequence, b: Sequence, stride: int, offset: int = 0) -> None:
    """out[offset + x stride + y] += a[x] b[y] for every x and y, with
    stride >= len(b): one slice update per entry of the shorter factor, a
    contiguous slice of out per entry of a or a strided one per entry of b."""
    inner = len(b)
    if len(a) <= inner:
        for x, g in enumerate(a):
            if g:
                lo = offset + x * stride
                out[lo : lo + inner] = [y + g * t for y, t in zip(out[lo : lo + inner], b)]
    else:
        span = len(a) * stride
        for y, t in enumerate(b):
            if t:
                lo = offset + y
                out[lo : lo + span : stride] = [v + t * g for v, g in zip(out[lo : lo + span : stride], a)]


def common_denominator(values: Iterable[Rational]) -> int:
    """The lcm of the values' denominators; 1 for no values."""
    return math.lcm(*(value.denominator for value in values))


def clear_denominator(value: Rational, multiple: int) -> int:
    """value * multiple as an int; the multiple must clear value's denominator."""
    quotient, remainder = divmod(multiple, value.denominator)
    if remainder:
        raise ValueError(f"{multiple} does not clear the denominator of {value}")
    return value.numerator * quotient


class FrozenRecord:
    """Base of the package's small immutable value types.

    A subclass names its fields in ``__slots__``; its ``__init__`` checks and
    normalises the arguments and hands the values to this ``__init__`` in
    slot order.  Instances refuse assignment, compare and hash by their
    field values, and copy and pickle through their constructor.  Plain
    classes rather than generated ones: the standard library's class
    generator imports ``inspect``, which costs a short CLI run more time
    than its arithmetic.
    """

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()
