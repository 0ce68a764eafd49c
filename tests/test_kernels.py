"""Exact kernels against their plain references, and what every result holds.

``NCSeries.inverse`` runs on integers over a common denominator and
``cfrac._smat_inverse`` truncates each Neumann step; both must equal the
plain ``Fraction`` versions in ``reference_kernels`` exactly.  Arithmetic
results skip the constructors' checks, so the invariants those checks gave
are asserted here on every operation.
"""

import random
from fractions import Fraction

import pytest
from reference_kernels import fraction_inverse, full_order_neumann_inverse

from ncprod import JacobiData, preset
from ncprod.cfrac import MatricialData, _smat_inverse
from ncprod.ncpoly import NCPolynomial, NCSeries

F = Fraction


def random_coefficient(rng: random.Random) -> Fraction:
    """A signed rational with a small denominator; about one in seven is zero."""
    return F(rng.choice((-1, 1)) * rng.randint(0, 6), rng.randint(1, 12))


def random_terms(rng: random.Random, d: int, max_length: int, count: int) -> dict:
    terms = {}
    for _ in range(count):
        length = rng.randint(1, max_length)
        terms[tuple(rng.randint(1, d) for _ in range(length))] = random_coefficient(rng)
    return terms


def random_unit_series(rng: random.Random, d: int, order: int) -> NCSeries:
    """Constant term 1, a few random terms of degree 1..3 and one of degree 1..order."""
    if not order:
        return NCSeries(d, 0, {(): 1})
    terms = {**random_terms(rng, d, min(order, 3), rng.randint(0, 5)),
             **random_terms(rng, d, order, 1)}
    return NCSeries(d, order, {(): 1, **terms})


def assert_clean(p: NCPolynomial) -> None:
    """Only nonzero Fraction coefficients, on valid words within the order."""
    for word, coeff in p.terms.items():
        assert type(coeff) is Fraction and coeff != 0, (word, coeff)
        assert type(word) is tuple and all(1 <= letter <= p.d for letter in word), word
        if p.order is not None:
            assert len(word) <= p.order, (word, p.order)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_integer_inverse_equals_fraction_loop(d):
    rng = random.Random(500 + d)
    for order in range(9):
        for _ in range(4):
            s = random_unit_series(rng, d, order)
            t = s.inverse()
            assert t == fraction_inverse(s)
            assert_clean(t)
            assert s * t == NCSeries.one(d, order)


def test_integer_inverse_without_positive_degree_terms():
    assert NCSeries.one(2, 5).inverse() == NCSeries.one(2, 5)
    # the lcm of no denominators is 1; a degree may have no terms at all
    s = NCSeries(2, 6, {(): 1, (1, 2, 2): F(-3, 4)})
    assert s.inverse() == fraction_inverse(s)


def random_series_matrix(rng: random.Random, n: int, d: int, order: int) -> list:
    """Identity constant term; about a third of the entries have no other terms."""
    rows = []
    for r in range(n):
        row = []
        for s in range(n):
            terms = {(): 1} if r == s else {}
            if order and rng.random() < 2 / 3:
                terms.update(random_terms(rng, d, min(order, 3), rng.randint(1, 3)))
            row.append(NCSeries(d, order, terms))
        rows.append(row)
    return rows


@pytest.mark.parametrize("n", [1, 2, 4])
def test_truncated_neumann_equals_full_order(n):
    rng = random.Random(600 + n)
    for d in (1, 2):
        for order in range(7):
            mat = random_series_matrix(rng, n, d, order)
            fast = _smat_inverse(mat, order)
            slow = full_order_neumann_inverse(mat, order)
            assert fast == slow
            for row in fast:
                for entry in row:
                    assert entry.order == order
                    assert_clean(entry)


def test_arithmetic_results_hold_only_clean_terms():
    rng = random.Random(7)
    for d in (1, 2, 3):
        for order in (None, 0, 1, 3, 5):
            for _ in range(5):
                terms_p = random_terms(rng, d, 4, 5)
                terms_q = random_terms(rng, d, 4, 5)
                if order is None:
                    p, q = NCPolynomial(d, terms_p), NCPolynomial(d, terms_q)
                else:
                    p, q = NCSeries(d, order, terms_p), NCSeries(d, 4, terms_q)
                results = [p + q, p - q, p * q, q * p, -p, p.involution(),
                           p * 2, 2 * p, p + 3, 3 + p, p - 3, 3 - p,
                           p * F(-2, 3), p * 0, p + (-p), p - p]
                if order is not None:
                    results += [p.truncate(2), p.truncate(order + 3), p.sandwich(1, d),
                                (p - p.constant_term() + 1).inverse()]
                for result in results:
                    assert_clean(result)
                assert (p * 0).is_zero() and (p - p).is_zero()


def test_int_scalar_results_are_fractions():
    p = NCPolynomial(2, {(1,): 1, (2, 1): F(1, 2)})
    assert (p * 2).terms == {(1,): F(2), (2, 1): F(1)}
    assert (p + 3).terms == {(): F(3), (1,): F(1), (2, 1): F(1, 2)}
    s = NCSeries(2, 1, {(1,): 1, (2, 1): 5})
    assert (s + 3).terms == {(): F(3), (1,): F(1)}


def test_public_constructors_keep_their_checks():
    s = NCSeries(2, 3, {(1,): 1})
    with pytest.raises(ValueError):
        s.truncate(-1)
    with pytest.raises(ValueError):
        s.sandwich(1, 3)
    with pytest.raises(ValueError):
        NCPolynomial(2, {(3,): 1})
    with pytest.raises(ValueError):
        NCSeries(2, 3, {(0, 1): 1})
    with pytest.raises(ValueError):
        NCSeries(2, -1)
    with pytest.raises(ValueError):
        NCPolynomial.monomial((1, 2, 3), 2)


def test_float_coefficients_are_rejected():
    for build in (lambda: NCPolynomial(2, {(1,): 0.1}),
                  lambda: NCSeries(2, 3, {(): 1.0}),
                  lambda: NCPolynomial.monomial((1,), 2, 0.5),
                  lambda: JacobiData(beta=(0.1,), gamma=()),
                  lambda: JacobiData(beta=(), gamma=(F(1), 0.5)),
                  lambda: preset("custom", beta=(0.25,), gamma=(1,)),
                  lambda: preset("point-mass", c=0.5),
                  lambda: MatricialData(d=1, t=((((0.5,),),),), c=())):
        with pytest.raises(ValueError, match="float"):
            build()
    # exact inputs are still read as before
    assert NCPolynomial(2, {(1,): "1/10"}).coefficient((1,)) == F(1, 10)
    assert JacobiData(beta=(F(1, 10), 2), gamma=("3/4",)).beta == (F(1, 10), F(2))
