import random
from fractions import Fraction

import pytest

from ncprod import JacobiData, moment
from ncprod.words import words_up_to

F = Fraction


def random_jacobi(rng: random.Random, terms: int = 4, centered: bool = False) -> JacobiData:
    """Deterministic random Jacobi data with strictly positive gammas."""
    beta = tuple(
        F(0) if centered else F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(terms)
    )
    gamma = tuple(F(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(terms))
    return JacobiData(beta=beta, gamma=gamma)


def random_pair(seed: int, centered: bool = False) -> tuple[JacobiData, JacobiData]:
    rng = random.Random(seed)
    return random_jacobi(rng, centered=centered), random_jacobi(rng, centered=centered)


# a fixed pair with every beta and gamma nonzero, used for distinctness-style
# checks where degenerate coefficients would hide differences
GENERIC_J1 = JacobiData(beta=(F(1, 2), F(-1, 3), F(1, 4)), gamma=(F(1), F(2, 3), F(3, 5)))
GENERIC_J2 = JacobiData(beta=(F(-1, 2), F(2, 5), F(1, 3)), gamma=(F(3, 2), F(1, 2), F(5, 7)))


def p1_coefficient(data: JacobiData, n: int) -> Fraction:
    """Coefficient of P_1 = x - mu[x] when x^n is expanded in the monic
    orthogonal polynomials of the one-variable state mu, from its moments alone:
    (mu[x^(n+1)] - mu[x] mu[x^n]) / (mu[x^2] - mu[x]^2)."""
    mean = moment(data, 1)
    return (moment(data, n + 1) - mean * moment(data, n)) / (moment(data, 2) - mean**2)


def map_entries(cm):
    """The nonzero entries of a coefficient map through its depth, as
    {(i, u): B(i, u)} and {u: C(u)}."""
    words = words_up_to(cm.d, cm.depth)
    b = {(i, u): cm.b(i, u) for u in words for i in range(1, cm.d + 1) if cm.b(i, u)}
    c = {u: cm.c(u) for u in words if u and cm.c(u)}
    return b, c


@pytest.fixture
def generic_pair() -> tuple[JacobiData, JacobiData]:
    return GENERIC_J1, GENERIC_J2
