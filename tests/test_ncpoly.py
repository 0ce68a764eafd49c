"""Free-algebra arithmetic: words and polynomials, and the reference
kernels' truncated series.

A series is a polynomial cut at an order passed explicitly (``truncate``).
The series inverse and the sandwich z_j F z_l are the reference kernels'
(``fraction_inverse`` and ``sandwich``), which every Fraction
continued-fraction engine of the tests is built from; the library's
engines solve their inverses on dense integer lists.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_kernels import fraction_inverse, sandwich, truncate

from ncprod.ncpoly import NCPolynomial
from ncprod.words import (
    format_rational,
    parse_rational,
    word_postfixes,
    word_runs,
    words_of_length,
    words_up_to,
)

F = Fraction


def test_postfixes_of_mixed_word():
    assert word_postfixes((1, 2, 1)) == [(1, 2, 1), (2, 1), (1,), ()]


def test_postfixes_of_empty_word():
    assert word_postfixes(()) == [()]


def test_postfixes_of_run():
    assert word_postfixes((2, 2)) == [(2, 2), (2,), ()]


def test_word_runs():
    assert word_runs((1, 1, 2, 1)) == [(1, 2), (2, 1), (1, 1)]
    assert word_runs(()) == []


def test_word_count_powers_of_two():
    for k in range(11):
        assert len(words_of_length(2, k)) == 2**k
    assert len(words_up_to(2, 4)) == 31


def test_rational_round_trip():
    for text in ("3/4", "-1/2", "2", "0"):
        assert format_rational(parse_rational(text)) == text
    with pytest.raises(ValueError):
        parse_rational("1/0")


def x(i, d=2):
    return NCPolynomial.variable(i, d)


def test_monomial_concatenation():
    assert x(1) * x(2) == NCPolynomial.monomial((1, 2), 2)


def test_ring_arithmetic():
    p = (x(1) - 1) * (x(1) + 1)
    assert p == NCPolynomial(2, {(1, 1): 1, (): -1})


def test_noncommutative_concatenation():
    assert NCPolynomial.monomial((1, 2), 2) * x(1) == NCPolynomial.monomial((1, 2, 1), 2)
    assert x(1) * x(2) != x(2) * x(1)


def test_involution_reverses_words():
    assert (x(1) * x(2)).involution() == x(2) * x(1)
    p = x(1) * x(1) + 3 * x(2)
    assert p.involution() == p
    palindrome = NCPolynomial.monomial((1, 2, 1), 2)
    assert palindrome.involution() == palindrome


def test_zero_polynomial_degree_sentinel():
    assert NCPolynomial.zero(2).degree() is None
    assert NCPolynomial.one(2).degree() == 0
    assert (x(1) * x(2)).degree() == 2


def test_alphabet_mismatch_rejected():
    with pytest.raises(ValueError):
        x(1, d=1) * x(2, d=2)


words2 = st.lists(st.integers(1, 2), max_size=3).map(tuple)
coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
polys = st.dictionaries(words2, coeffs, max_size=4).map(lambda t: NCPolynomial(2, t))


@settings(max_examples=60, deadline=None)
@given(polys, polys, polys)
def test_multiplication_associative(p, q, r):
    assert (p * q) * r == p * (q * r)


@settings(max_examples=60, deadline=None)
@given(polys)
def test_involution_is_involutive(p):
    assert p.involution().involution() == p


@settings(max_examples=60, deadline=None)
@given(polys, polys)
def test_involution_antihomomorphism(p, q):
    assert (p * q).involution() == q.involution() * p.involution()


def test_geometric_series_inverse():
    s = NCPolynomial.one(1) - x(1, d=1)
    assert fraction_inverse(s, 3).terms == {(): 1, (1,): 1, (1, 1): 1, (1, 1, 1): 1}


def test_two_letter_geometric_inverse():
    s = NCPolynomial.one(2) - x(1) - x(2)
    inv = fraction_inverse(s, 2)
    for w in words_up_to(2, 2):
        assert inv.coefficient(w) == 1
    assert inv.degree() == 2


def test_inverse_of_one():
    for order in (0, 3, 7):
        assert fraction_inverse(NCPolynomial.one(2), order) == NCPolynomial.one(2)


def test_inverse_requires_unit_constant_term():
    with pytest.raises(ValueError):
        fraction_inverse(2 * NCPolynomial.one(2), 3)
    with pytest.raises(ValueError):
        fraction_inverse(x(1), 3)


series_terms = st.dictionaries(
    st.lists(st.integers(1, 2), min_size=1, max_size=3).map(tuple), coeffs, max_size=5
)


@settings(max_examples=100, deadline=None)
@given(series_terms, st.integers(min_value=1, max_value=8))
def test_series_inverse_round_trip(terms, order):
    s = truncate(NCPolynomial.one(2) + NCPolynomial(2, terms), order)
    assert s.coefficient(()) == 1  # generated words are nonempty
    t = fraction_inverse(s, order)
    assert truncate(s * t, order).terms == {(): 1}
    assert truncate(t * s, order).terms == {(): 1}


def test_series_truncation_drops_high_terms():
    s = truncate(NCPolynomial(2, {(1, 1, 1): 7, (1,): 1}), 2)
    assert s.terms == {(1,): 1}
    t = NCPolynomial.monomial((1, 2), 2)
    assert truncate(t * t, 4).terms == {(1, 2, 1, 2): 1}
    assert truncate(t * t * t, 4).terms == {}


def test_sandwich_shifts_and_grows_order():
    """A series exact through order 1, wrapped, is exact through order 3;
    cut lower, it loses its top terms."""
    s = NCPolynomial(2, {(): 1, (1,): 2})
    assert sandwich(s, 2, 1, 3).terms == {(2, 1): 1, (2, 1, 1): 2}
    assert sandwich(s, 2, 1, 2).terms == {(2, 1): 1}
