"""Reference states and the monomial orthogonalization machinery."""

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import GENERIC_J1, GENERIC_J2, random_pair
from ncprod import (
    BUILTIN_OMEGAS,
    NCPolynomial,
    StateEvaluator,
    basis_polynomial,
    builder,
    cfree_map,
    cfree_state,
    free_state,
    functional_inner,
    gram_schmidt_mops,
    moment,
    monotone_state,
    preset,
    product_type_map,
    q_gaussian_state,
    tensor_state,
)
from ncprod.jacobi import JacobiData, MomentSequence, coefficient_scale, jacobi_from_json
from ncprod.oracle import (
    _noncrossing_moments,
    antimonotone_state,
    boolean_state,
    factor_into_one_variable_triple,
)
from ncprod.words import words_up_to
from reference_kernels import (
    centering_cfree_state,
    fraction_noncrossing_moments,
    product_gram_schmidt_mops,
)

F = Fraction

SEMI = preset("semicircle")
GOLDEN = Path(__file__).resolve().parent / "golden"


def test_free_semicircle_values():
    assert free_state(SEMI, SEMI)((1, 2, 2, 1)) == 1
    assert free_state(SEMI, SEMI)((1, 2, 1, 2)) == 0


def test_free_single_letter_restriction():
    assert free_state(GENERIC_J1, GENERIC_J2)((1, 1, 1)) == moment(GENERIC_J1, 3)
    assert free_state(GENERIC_J1, GENERIC_J2)(()) == 1


def test_free_centered_alternating_vanishes():
    # with both means zero, any strictly alternating word has moment 0
    j1, j2 = random_pair(5, centered=True)
    assert free_state(j1, j2)((1, 2, 1, 2, 1)) == 0
    assert free_state(j1, j2)((2, 1, 2, 1)) == 0


def test_boolean_block_factorization():
    assert boolean_state(SEMI, SEMI)((1, 2, 1)) == 0  # centered marginals
    assert boolean_state(GENERIC_J1, GENERIC_J2)((1, 1, 2, 2)) == moment(
        GENERIC_J1, 2
    ) * moment(GENERIC_J2, 2)
    assert boolean_state(GENERIC_J1, GENERIC_J2)((2, 2, 2)) == moment(GENERIC_J2, 3)


def test_monotone_block_rule():
    j1, j2 = GENERIC_J1, GENERIC_J2
    assert monotone_state(j1, j2)((1, 2, 1)) == moment(j1, 2) * moment(j2, 1)
    assert monotone_state(j1, j2)((2, 1, 2)) == moment(j1, 1) * moment(j2, 1) ** 2
    assert monotone_state(j1, j2)((1, 1)) == moment(j1, 2)


def test_tensor_total_powers():
    j1, j2 = GENERIC_J1, GENERIC_J2
    assert tensor_state(j1, j2)((1, 2, 1)) == moment(j1, 2) * moment(j2, 1)
    assert tensor_state(j1, j2)((1, 2, 2, 1)) == moment(j1, 2) * moment(j2, 2)
    assert tensor_state(j1, j2)(()) == 1


def test_antimonotone_is_swapped_monotone():
    j1, j2 = GENERIC_J1, GENERIC_J2
    for w in words_up_to(2, 6):
        mirrored = tuple(3 - letter for letter in w)
        assert antimonotone_state(j1, j2)(w) == monotone_state(j2, j1)(mirrored)


def test_q_gaussian_values():
    q = F(1, 2)
    assert q_gaussian_state(q)((2, 1, 2, 1)) == q
    assert q_gaussian_state(q)((1, 1, 1, 1)) == 2 + q
    assert q_gaussian_state(q)((1, 2)) == 0
    assert q_gaussian_state(q)((1, 2, 1)) == 0  # odd length


def test_q_gaussian_zero_is_free_semicircles():
    phi = q_gaussian_state(F(0))
    free = free_state(SEMI, SEMI)
    for w in words_up_to(2, 6):
        assert phi(w) == free(w), w


@pytest.mark.parametrize(
    "name,oracle",
    [("free", free_state), ("boolean", boolean_state), ("monotone", monotone_state), ("antimonotone", antimonotone_state)],
)
def test_oracles_match_tree_states(name, oracle):
    j1, j2 = random_pair(31)
    cm = product_type_map(builder(name, 6), j1, j2)
    evaluator = StateEvaluator(cm)
    phi = oracle(j1, j2)
    for w in words_up_to(2, 6):
        assert evaluator.word_moment(w) == phi(w), w


@pytest.mark.parametrize(
    "j1,j2",
    [
        *(random_pair(seed) for seed in (51, 52, 53)),
        # a zero beta, and a marginal supported on one point
        (JacobiData(beta=(F(0), F(1, 2)), gamma=(F(1), F(2))), preset("point-mass", c=F(3, 2))),
    ],
    ids=["seed51", "seed52", "seed53", "zero-beta-point-mass"],
)
def test_free_cumulant_sum_equals_centering_route(j1, j2):
    """free_state sums free cumulants over non-crossing partitions; the
    two-pair state with nu = mu reaches the free state by centering blocks."""
    free = free_state(j1, j2)
    centered = centering_cfree_state(j1, j1, j2, j2)
    for w in words_up_to(2, 8):
        assert free(w) == centered(w), w


def _cfree_reference_cases():
    cases = {}
    for seed in (61, 62, 63):
        mu1, mu2 = random_pair(seed)
        nu1, nu2 = random_pair(seed + 100)
        cases[f"seed{seed}"] = (mu1, nu1, mu2, nu2)
    delta0 = preset("point-mass", c=F(0))
    cases["nu-point-mass-0"] = (GENERIC_J1, delta0, GENERIC_J2, delta0)
    nu1, nu2 = random_pair(64, centered=True)
    cases["nu-centered"] = (GENERIC_J1, nu1, GENERIC_J2, nu2)
    return cases


_CFREE_CASES = _cfree_reference_cases()


@pytest.mark.parametrize("pairs", list(_CFREE_CASES.values()), ids=list(_CFREE_CASES))
def test_cfree_cumulant_sum_equals_centering_route(pairs):
    """cfree_state sums c-free cumulants over the outer blocks and nu's free
    cumulants over the nested ones; the centering route shares none of it."""
    phi = cfree_state(*pairs)
    centered = centering_cfree_state(*pairs)
    for w in words_up_to(2, 8):
        assert phi(w) == centered(w), w


def test_free_semicircles_sum_non_crossing_pairings():
    """Semicircle cumulants are kappa_2 = 1 and 0 otherwise, so the free
    moment counts the non-crossing letter-matching pairings: q-Gaussian at q = 0."""
    free = free_state(SEMI, SEMI)
    pairings = q_gaussian_state(F(0))
    for w in words_up_to(2, 10):
        assert free(w) == pairings(w), w


def test_cfree_single_letter_restriction():
    nu1, nu2 = random_pair(41)
    assert cfree_state(GENERIC_J1, nu1, GENERIC_J2, nu2)((1, 1)) == moment(GENERIC_J1, 2)
    assert cfree_state(GENERIC_J1, nu1, GENERIC_J2, nu2)((2,)) == moment(GENERIC_J2, 1)


def test_cfree_degenerations():
    delta0 = preset("point-mass", c=F(0))
    free = free_state(GENERIC_J1, GENERIC_J2)
    boolean = boolean_state(GENERIC_J1, GENERIC_J2)
    with_mu = cfree_state(GENERIC_J1, GENERIC_J1, GENERIC_J2, GENERIC_J2)
    with_d0 = cfree_state(GENERIC_J1, delta0, GENERIC_J2, delta0)
    for w in words_up_to(2, 6):
        assert with_mu(w) == free(w), w
        assert with_d0(w) == boolean(w), w


def test_cfree_oracle_matches_map():
    nu1, nu2 = random_pair(43)
    cm = cfree_map(GENERIC_J1, nu1, GENERIC_J2, nu2, 7)
    evaluator = StateEvaluator(cm)
    phi = cfree_state(GENERIC_J1, nu1, GENERIC_J2, nu2)
    for w in words_up_to(2, 6):
        assert evaluator.word_moment(w) == phi(w), w


# the integer core -------------------------------------------------------------

def _golden(name):
    return jacobi_from_json(json.loads((GOLDEN / f"{name}.json").read_text()))


def _integer_core_cases():
    """(mu1, nu1, mu2, nu2) quadruples; the free sum runs on (mu1, mu2)."""
    delta0 = preset("point-mass", c=F(0))
    # coprime denominators: betas over 7, gammas over 11 and 13
    coprime1 = JacobiData(beta=(F(1, 7), F(-3, 7)), gamma=(F(2, 11), F(5, 13), F(4, 11)))
    coprime2 = JacobiData(beta=(F(2, 7), F(-1, 7)), gamma=(F(9, 13), F(3, 11)))
    # supported on three points: every gamma past the stored two is zero
    finite = JacobiData(beta=(F(1, 3), F(-1, 2), F(1, 5)), gamma=(F(2, 5), F(3, 4)), extend="zero")
    q_gaussian = preset("q-gaussian", q=F(1, 3))  # gammas over 3^0 .. 3^23
    j1, j2, nu1, nu2 = (_golden(name) for name in ("j1", "j2", "nu1", "nu2"))
    return {
        "golden-nu-mu": (j1, j1, j2, j2),
        "golden-two-pair": (j1, nu1, j2, nu2),
        "coprime": (coprime1, coprime2, coprime2, coprime1),
        "nu-point-mass-0": (GENERIC_J1, delta0, GENERIC_J2, delta0),
        "zero-extension": (finite, GENERIC_J1, GENERIC_J2, finite),
        "q-gaussian": (q_gaussian, SEMI, GENERIC_J2, q_gaussian),
    }


_INTEGER_CORE_CASES = _integer_core_cases()


@pytest.mark.parametrize("pairs", list(_INTEGER_CORE_CASES.values()), ids=list(_INTEGER_CORE_CASES))
def test_integer_core_equals_fraction_recursion(pairs):
    """The non-crossing sum on the numerators D^|w| phi(w) equals the same
    sum run in Fractions, times D^|w|, on every word through order 8: as
    the free sum and with nested nu gaps, at the marginals' own D and at a
    multiple of it; the public factories divide it back exactly."""
    mu1, nu1, mu2, nu2 = pairs

    def sequences(a, b, scale=None):
        return {1: MomentSequence(a, scale), 2: MomentSequence(b, scale)}

    free_ref = fraction_noncrossing_moments(sequences(mu1, mu2))
    cfree_ref = fraction_noncrossing_moments(
        sequences(mu1, mu2), fraction_noncrossing_moments(sequences(nu1, nu2))
    )
    own = math.lcm(*(coefficient_scale(data) for data in pairs))
    words = words_up_to(2, 8)
    for scale in (own, 6 * own):
        free = _noncrossing_moments(sequences(mu1, mu2, scale))
        cfree = _noncrossing_moments(
            sequences(mu1, mu2, scale), _noncrossing_moments(sequences(nu1, nu2, scale))
        )
        for w in words:
            assert free(w) == free_ref(w) * scale ** len(w), (scale, w)
            assert cfree(w) == cfree_ref(w) * scale ** len(w), (scale, w)
    free_public = free_state(mu1, mu2)
    cfree_public = cfree_state(*pairs)
    for w in words:
        assert free_public(w) == free_ref(w), w
        assert cfree_public(w) == cfree_ref(w), w


@pytest.mark.parametrize(
    "factory", [free_state, boolean_state, monotone_state, antimonotone_state, tensor_state]
)
def test_scaled_oracle_gives_the_numerators(factory):
    """With scale=D a factory returns D^|w| phi(w) as an int, for any D that
    clears the marginals' coefficients."""
    phi = factory(GENERIC_J1, GENERIC_J2)
    scale = 5 * math.lcm(coefficient_scale(GENERIC_J1), coefficient_scale(GENERIC_J2))
    numerators = factory(GENERIC_J1, GENERIC_J2, scale=scale)
    for w in words_up_to(2, 6):
        value = numerators(w)
        assert type(value) is int
        assert value == phi(w) * scale ** len(w), w


def test_scale_that_leaves_a_denominator_raises():
    """A scale that clears beta_0 = 1/7 and gamma_1 = 2/11 but not gamma_2 =
    5/13 serves the words that read no further and raises, never truncates,
    at the first that does."""
    coprime = JacobiData(beta=(F(1, 7),), gamma=(F(2, 11), F(5, 13)))
    assert MomentSequence(coprime, 77).numerator(2) == 77**2 * moment(coprime, 2)
    with pytest.raises(ValueError, match="does not clear"):
        MomentSequence(coprime, 77).numerator(3)
    pairs = (coprime, coprime, coprime, coprime)
    for factory in (free_state, boolean_state, monotone_state, antimonotone_state, tensor_state, cfree_state):
        phi = factory(*pairs[: 4 if factory is cfree_state else 2], scale=77)
        assert phi((1, 2)) == 77**2 * moment(coprime, 1) ** 2
        with pytest.raises(ValueError, match="does not clear"):
            phi((2, 2, 2))


# monomial orthogonalization --------------------------------------------------

def test_mops_reproduces_basis_polynomials_centered():
    # with centered marginals the monomial expansions carry no zero-norm
    # components through depth 3, so orthogonalization recovers the basis
    # polynomials exactly
    j1, j2 = random_pair(9, centered=True)
    for name in BUILTIN_OMEGAS:
        tree = builder(name, 6)
        cm = product_type_map(tree, j1, j2)
        evaluator = StateEvaluator(cm)
        result = gram_schmidt_mops(evaluator.word_moment, 3)
        assert result.is_mops, name
        for u in words_up_to(2, 3):
            expected = basis_polynomial(tree, j1, j2, u)
            assert result.polynomials[u] == expected, (name, u)


def test_mops_on_tree_states_generic_data():
    # for arbitrary data the verdict stays true and the orthogonalized family
    # can differ from the basis polynomials only by zero-norm vectors, which
    # no inner product can see
    for name in BUILTIN_OMEGAS:
        tree = builder(name, 6)
        cm = product_type_map(tree, GENERIC_J1, GENERIC_J2)
        evaluator = StateEvaluator(cm)
        result = gram_schmidt_mops(evaluator.word_moment, 3)
        assert result.is_mops, name
        for u in words_up_to(2, 3):
            diff = result.polynomials[u] - basis_polynomial(tree, GENERIC_J1, GENERIC_J2, u)
            assert functional_inner(evaluator.word_moment, diff, diff) == 0, (name, u)


def test_mops_q_counterexample():
    for q in (F(1, 2), F(-1, 3)):
        phi = q_gaussian_state(q)
        result = gram_schmidt_mops(phi, 3)
        assert not result.is_mops
        assert result.witness == ((1, 2), (2, 1))
        assert result.witness_value == q
        x1x2x1 = NCPolynomial.monomial((1, 2, 1), 2)
        x2 = NCPolynomial.variable(2, 2)
        assert result.polynomials[(1, 2, 1)] == x1x2x1 - q * x2
        assert functional_inner(phi, result.polynomials[(1, 2)], result.polynomials[(2, 1)]) == q


def test_mops_q_zero_is_true():
    assert gram_schmidt_mops(q_gaussian_state(F(0)), 3).is_mops


def test_mops_tensor_counterexample():
    result = gram_schmidt_mops(tensor_state(SEMI, SEMI), 2)
    assert not result.is_mops
    assert result.witness == ((1, 2), (2, 1))
    assert result.witness_value == 1  # the two orthogonalized monomials coincide


def test_mops_verdict_stable_under_within_degree_order():
    phi = q_gaussian_state(F(1, 2))
    forward = gram_schmidt_mops(phi, 3)
    reversed_order = gram_schmidt_mops(phi, 3, within_degree_order=lambda ws: ws[::-1])
    assert forward.is_mops == reversed_order.is_mops
    assert forward.polynomials == reversed_order.polynomials


def test_mops_zero_norm_directions_skipped():
    # boolean state: mixed monomials have zero norm, yet orthogonalization
    # proceeds and the verdict is clean
    cm = product_type_map(builder("boolean", 6), GENERIC_J1, GENERIC_J2)
    evaluator = StateEvaluator(cm)
    result = gram_schmidt_mops(evaluator.word_moment, 3)
    assert result.is_mops
    assert result.norms[(1, 2)] == 0


def _mops_states():
    """(phi, depth) cases: three product-type states and three q-Gaussian
    ones at depth 3, the tensor state (a witness), free at depth 4, a free
    product with a point-mass marginal at depth 4 (26 zero norms) and a
    functional with negative norms."""
    for name in ("free", "boolean", "one-branch"):
        cm = product_type_map(builder(name, 6), GENERIC_J1, GENERIC_J2)
        yield pytest.param(StateEvaluator(cm).word_moment, 3, id=f"{name}-word_moment")
    yield pytest.param(tensor_state(GENERIC_J1, GENERIC_J2), 3, id="tensor-phi")
    for q in (F(0), F(1, 3), F(-1, 2)):
        yield pytest.param(q_gaussian_state(q), 3, id=f"q-gaussian {q}-phi")
    cm = product_type_map(builder("free", 8), GENERIC_J1, GENERIC_J2)
    yield pytest.param(StateEvaluator(cm).word_moment, 4, id="free depth 4-word_moment")
    cm = product_type_map(builder("free", 8), preset("point-mass", c=F(1, 2)), GENERIC_J2)
    yield pytest.param(StateEvaluator(cm).word_moment, 4, id="point-mass depth 4-word_moment")
    # an indefinite functional: random signed values, so some norms are negative
    rng = random.Random(1200)
    values = {w: F(rng.randint(-9, 9), rng.randint(1, 5)) for w in words_up_to(2, 6)}
    yield pytest.param(values.__getitem__, 3, id="indefinite-phi")


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("phi,depth", list(_mops_states()))
def test_mops_moment_matrix_equals_polynomial_products(phi, depth, reverse):
    """Inner products from the integer moment matrix give the same family,
    norms, verdict and witness as inner products from polynomial products."""
    order = (lambda ws: ws[::-1]) if reverse else None
    got = gram_schmidt_mops(phi, depth, within_degree_order=order)
    expected = product_gram_schmidt_mops(phi, depth, within_degree_order=order)
    assert got.polynomials == expected.polynomials
    assert got.norms == expected.norms
    assert got.is_mops == expected.is_mops
    assert got.witness == expected.witness
    assert got.witness_value == expected.witness_value


def test_q_121_does_not_factor_for_generic_q():
    for q in (F(1, 2), F(-1, 3), F(2, 5)):
        result = gram_schmidt_mops(q_gaussian_state(q), 3)
        assert factor_into_one_variable_triple(result.polynomials[(1, 2, 1)]) is None
    # at q = 0 it is just the monomial, which factors trivially
    zero = gram_schmidt_mops(q_gaussian_state(F(0)), 3)
    assert factor_into_one_variable_triple(zero.polynomials[(1, 2, 1)]) == (0, 0, 0)


@pytest.mark.parametrize(
    "factory", [free_state, boolean_state, monotone_state, antimonotone_state, tensor_state]
)
def test_state_computes_each_marginal_moment_once(monkeypatch, factory):
    """A state holds one moment sequence per marginal: words through order 6
    need indices 0..6 of each, so at most 6 transfer steps per marginal."""
    steps = []
    step = MomentSequence._step
    monkeypatch.setattr(MomentSequence, "_step", lambda self, vec: steps.append(1) or step(self, vec))
    phi = factory(GENERIC_J1, GENERIC_J2)
    for w in words_up_to(2, 6):
        phi(w)
    assert len(steps) <= 2 * 6
