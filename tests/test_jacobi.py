"""One-variable states: recursion polynomials, moments, presets.

Expected moment values are computed against brute-force combinatorial
oracles defined in this file (pair partitions with crossing weights, atom
sums for finitely supported states), never against the implementation.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_jacobi
from ncprod import JacobiData, orthogonal_polynomial, preset
from ncprod.jacobi import (
    JacobiRangeError,
    MomentSequence,
    jacobi_from_json,
    jacobi_to_json,
)
from ncprod.ncpoly import NCPolynomial
from ncprod.oracle import functional_inner

F = Fraction


# brute-force pairing oracle -------------------------------------------------

def _all_pairings(positions):
    if not positions:
        yield ()
        return
    first, rest = positions[0], positions[1:]
    for idx in range(len(rest)):
        pair = (first, rest[idx])
        for sub in _all_pairings(rest[:idx] + rest[idx + 1 :]):
            yield (pair,) + sub


def _crossings(pairing):
    return sum(
        1 for a, b in pairing for c, d in pairing if a < c < b < d
    )


def pairing_moment(n, weight):
    """Single-variable moment of a centered state whose pair partitions carry
    weight(crossings); semicircle is weight = 0**crossings."""
    if n % 2:
        return F(0)
    return sum((weight(_crossings(p)) for p in _all_pairings(tuple(range(n)))), F(0))


def test_semicircle_moments_are_noncrossing_counts():
    j = preset("semicircle")
    for n in (2, 4, 6):
        expected = pairing_moment(n, lambda cr: F(1) if cr == 0 else F(0))
        assert MomentSequence(j)[n] == expected
    # frozen values from the oracle: Catalan numbers
    assert [MomentSequence(j)[n] for n in (2, 4, 6)] == [1, 2, 5]


def test_point_mass_moments():
    j = preset("point-mass", c=F(3))
    for n in range(6):
        assert MomentSequence(j)[n] == F(3) ** n


def test_q_gaussian_single_variable_moment():
    q = F(1, 2)
    j = preset("q-gaussian", q=q)
    expected = pairing_moment(4, lambda cr: q**cr)
    assert MomentSequence(j)[4] == expected
    assert expected == F(5, 2)  # gamma_1*gamma_2 + gamma_1**2 = (1 + q) + 1
    for n in (2, 6):
        assert MomentSequence(j)[n] == pairing_moment(n, lambda cr: q**cr)


def test_gaussian_preset_moments():
    j = preset("gaussian")
    # all pairings with weight 1: (n-1)!! for even n
    for n in (2, 4, 6):
        assert MomentSequence(j)[n] == pairing_moment(n, lambda cr: F(1))
    assert [MomentSequence(j)[n] for n in (2, 4, 6)] == [1, 3, 15]


def test_bernoulli_moments_match_atoms():
    p, a, b = F(1, 3), F(2), F(-1)
    j = preset("bernoulli", p=p, a=a, b=b)
    for n in range(7):
        assert MomentSequence(j)[n] == p * a**n + (1 - p) * b**n
    assert j.gamma_at(1) and not j.gamma_at(2)  # on two points


def test_moment_zero_is_one():
    assert MomentSequence(preset("semicircle"))[0] == 1


def test_semicircle_polynomial_degree_two():
    p = orthogonal_polynomial(preset("semicircle"), 2)
    assert p == NCPolynomial(1, {(1, 1): 1, (): -1})


def test_polynomial_base_cases():
    j = JacobiData(beta=(F(2, 3),), gamma=(F(1, 2),))
    assert orthogonal_polynomial(j, 0) == NCPolynomial.one(1)
    assert orthogonal_polynomial(j, 1) == NCPolynomial(1, {(1,): 1, (): -F(2, 3)})


def test_polynomial_satisfies_recursion():
    rng = random.Random(7)
    j = random_jacobi(rng)
    x = NCPolynomial.variable(1, 1)
    for n in range(1, 6):
        lhs = x * orthogonal_polynomial(j, n)
        rhs = (
            orthogonal_polynomial(j, n + 1)
            + j.beta_at(n) * orthogonal_polynomial(j, n)
            + j.gamma_at(n) * orthogonal_polynomial(j, n - 1)
        )
        assert lhs == rhs


@pytest.mark.parametrize("seed", range(5))
def test_orthogonality_and_norms(seed):
    j = random_jacobi(random.Random(seed))
    polys = [orthogonal_polynomial(j, n) for n in range(7)]
    moments = MomentSequence(j)
    for m in range(7):
        for n in range(7):
            value = functional_inner(lambda w: moments[len(w)], polys[m], polys[n])
            if m != n:
                assert value == 0
            else:
                norm = F(1)
                for k in range(1, n + 1):
                    norm *= j.gamma_at(k)
                assert value == norm


def test_finite_support_gives_zero_norm():
    j = preset("bernoulli", p=F(1, 2), a=F(1), b=F(-1))
    p2 = orthogonal_polynomial(j, 2)
    moments = MomentSequence(j)
    assert functional_inner(lambda w: moments[len(w)], p2, p2) == 0


def test_presets():
    semi = preset("semicircle")
    assert semi.beta_at(5) == 0 and semi.gamma_at(5) == 1
    free_case = preset("q-gaussian", q=F(0))
    assert [free_case.gamma_at(n) for n in (1, 2, 3)] == [1, 1, 1]
    point = preset("point-mass", c=F(3))
    assert point.beta_at(2) == 3 and point.gamma_at(1) == 0
    with pytest.raises(ValueError):
        preset("q-gaussian", q=F(1))
    with pytest.raises(ValueError):
        preset("does-not-exist")


def test_gamma_validation():
    with pytest.raises(ValueError):
        JacobiData(beta=(F(0),), gamma=(F(-1),))
    with pytest.raises(ValueError):
        JacobiData(beta=(F(0),), gamma=(F(1), F(0), F(2)))
    JacobiData(beta=(F(0),), gamma=(F(1), F(0), F(0)))  # trailing zeros fine


@pytest.mark.parametrize("text", ["12", b"12"])
@pytest.mark.parametrize("field", ["beta", "gamma"])
def test_string_coefficients_are_refused_not_read_letter_by_letter(field, text):
    """"12" would otherwise iterate to the coefficients 1 and 2."""
    fields = {"beta": ["0"], "gamma": ["1"], field: text}
    with pytest.raises(ValueError, match=f"^{field} must be a sequence of rationals"):
        JacobiData(**fields)


# (beta, gamma, policy, method, index, the value or the exact error)
EXTENSION_CASES = [
    ((1, 2), (3,), "zero", "beta_at", 5, F(0)),
    ((1, 2), (3,), "zero", "gamma_at", 5, F(0)),
    ((1, 2), (3,), "zero", "gamma_at", 1, F(3)),
    ((1, 2), (3,), "zero", "gamma_at", 2, F(0)),
    ((1, 2), (3, 4), "repeat", "beta_at", 7, F(2)),
    ((1, 2), (3, 4), "repeat", "gamma_at", 7, F(4)),
    ((), (), "repeat", "beta_at", 0, F(0)),
    ((), (), "repeat", "gamma_at", 3, F(0)),
    ((1,), (1,), "error", "beta_at", 0, F(1)),
    ((1,), (1,), "error", "gamma_at", 1, F(1)),
    # gamma_0 is zero by convention, stored or not
    ((1,), (), "error", "gamma_at", 0, F(0)),
    ((1,), (1,), "error", "beta_at", 1, (JacobiRangeError, "beta_1 beyond stored prefix of length 1")),
    ((1,), (1,), "error", "gamma_at", 2, (JacobiRangeError, "gamma_2 beyond stored prefix of length 1")),
    ((), (), "error", "beta_at", 0, (JacobiRangeError, "beta_0 beyond stored prefix of length 0")),
    ((1,), (), "error", "gamma_at", 1, (JacobiRangeError, "gamma_1 beyond stored prefix of length 0")),
    ((1,), (1,), "repeat", "beta_at", -1, (ValueError, "beta index must be nonnegative")),
    ((1,), (1,), "zero", "gamma_at", -1, (ValueError, "gamma index must be nonnegative")),
]


def test_extension_policies():
    for beta, gamma, policy, method, n, expected in EXTENSION_CASES:
        case = (beta, gamma, policy, method, n)
        read = getattr(JacobiData(beta=beta, gamma=gamma, extend=policy), method)
        if isinstance(expected, tuple):
            kind, message = expected
            with pytest.raises(kind) as caught:
                read(n)
            assert type(caught.value) is kind and str(caught.value) == message, case
        else:
            assert read(n) == expected, case


def test_json_round_trip():
    j = JacobiData(beta=(F(1, 2),), gamma=(F(3, 4), F(1)), extend="zero")
    assert jacobi_from_json(jacobi_to_json(j)) == j
    from_preset = jacobi_from_json({"preset": "q-gaussian", "q": "1/2"})
    assert from_preset.gamma_at(2) == F(3, 2)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 8), st.fractions(min_value=-2, max_value=2, max_denominator=3))
def test_point_mass_moment_property(n, c):
    assert MomentSequence(preset("point-mass", c=c))[n] == c**n


def test_moment_sequence_resumes_one_transfer_pass(monkeypatch):
    data = random_jacobi(random.Random(3))
    expected = [MomentSequence(data)[n] for n in range(10)]
    extensions = []
    extend = MomentSequence._extend
    monkeypatch.setattr(MomentSequence, "_extend", lambda self, n: extensions.append(n) or extend(self, n))
    seq = MomentSequence(data)
    assert [seq[n] for n in (5, 2, 9, 0, 9)] == [expected[n] for n in (5, 2, 9, 0, 9)]
    assert [seq[n] for n in range(10)] == expected
    assert extensions == list(range(1, 10))  # one anti-diagonal per index beyond 0, never repeated
    with pytest.raises(ValueError):
        seq[-1]
