"""Coefficient maps, basis polynomials, and transfer-operator evaluation."""

import math
import random
from fractions import Fraction

import pytest

from conftest import GENERIC_J1, GENERIC_J2, map_entries, p1_coefficient, random_pair
from reference_kernels import eager_cfree_entries, eager_product_type_entries
from ncprod import (
    BUILTIN_OMEGAS,
    CoefficientMap,
    JacobiData,
    NCPolynomial,
    StateEvaluator,
    antimonotone_state,
    basis_polynomial,
    boolean_state,
    builder,
    cfree_map,
    explicit_map,
    free_state,
    functional_inner,
    gram_matrix,
    left_multiply,
    moment,
    moment_table,
    monotone_state,
    omega_from_json,
    preset,
    product_type_map,
    recursion_basis,
    scalar_branched_cf,
)
from ncprod.jacobi import JacobiRangeError
from ncprod.omega import enumerate_valid_trees, validate
from ncprod.prodstate import DepthExhaustedError, moment_parts
from ncprod.words import words_of_length, words_up_to

F = Fraction

SEMI = preset("semicircle")


def x(i):
    return NCPolynomial.variable(i, 2)


def word_poly(w):
    return NCPolynomial.monomial(w, 2)


# coefficient maps -----------------------------------------------------------

def test_product_map_assignment_on_boolean_tree():
    cm = product_type_map(builder("boolean", 4), GENERIC_J1, GENERIC_J2)
    # pure-run nodes carry the marginal coefficients
    assert cm.b(1, ()) == GENERIC_J1.beta_at(0)
    assert cm.b(1, (1, 1)) == GENERIC_J1.beta_at(2)
    assert cm.c((2, 2)) == GENERIC_J2.gamma_at(2)
    # off-tree raises vanish
    assert cm.b(1, (2,)) == 0
    assert cm.b(2, (1, 1)) == 0
    assert cm.c((1, 2)) == 0


def test_product_map_boundary_kills_lowering():
    cm = product_type_map(builder("one-branch", 4), GENERIC_J1, GENERIC_J2)
    assert cm.b(2, (1,)) == GENERIC_J2.beta_at(0)  # (2, 1) is a member
    assert cm.c((2, 1)) == 0  # boundary node
    assert cm.c((1, 1)) == GENERIC_J1.gamma_at(2)


def test_explicit_map_rejects_negative_c():
    with pytest.raises(ValueError, match="negative"):
        explicit_map(2, 3, {}, {(1,): F(-1)})


def test_depth_guard():
    cm = product_type_map(builder("free", 2), SEMI, SEMI)
    for _ in range(2):  # a word beyond the depth is never kept
        with pytest.raises(DepthExhaustedError):
            cm.b(1, (1, 2, 1))
        with pytest.raises(DepthExhaustedError):
            cm.integer.c((1, 2, 1))
    with pytest.raises(DepthExhaustedError):
        StateEvaluator(cm).eval_poly(word_poly((1, 2, 1, 2)))


def test_integer_view_refuses_a_scale_that_leaves_a_denominator():
    cm = CoefficientMap(1, 2, lambda letter, word: F(1, 6), lambda word: F(0), 3)
    with pytest.raises(ValueError, match="does not clear"):
        scalar_branched_cf(cm, 2)


ORACLES = {
    "free": free_state,
    "boolean": boolean_state,
    "monotone": monotone_state,
    "antimonotone": antimonotone_state,
}


def _assert_map_matches_references(name, depth, j1, j2):
    """The built-in tree's map builds, and its moments through order
    depth + 1 equal the scalar continued fraction and, on the four universal
    trees, the tree's direct-definition oracle."""
    cm = product_type_map(builder(name, depth), j1, j2)
    evaluator = StateEvaluator(cm)
    series = scalar_branched_cf(cm, depth + 1)
    oracle = ORACLES[name](j1, j2) if name in ORACLES else None
    for w in words_up_to(2, depth + 1):
        value = evaluator.word_moment(w)
        assert value == series.coefficient(w), (name, depth, w)
        if oracle is not None:
            assert value == oracle(w), (name, depth, w)


def test_finite_support_guard():
    """There is no finite-support guard: a two-point marginal builds a map
    on a tree with runs longer than two, and so does a point mass on every
    built-in tree."""
    two_points = preset("bernoulli", p=F(1, 2), a=F(1), b=F(-1))
    _assert_map_matches_references("boolean", 4, two_points, GENERIC_J2)
    _assert_map_matches_references("boolean", 1, two_points, GENERIC_J2)
    point_mass = preset("point-mass", c=F(-1, 2))
    for name in BUILTIN_OMEGAS:
        _assert_map_matches_references(name, 4, GENERIC_J1, point_mass)


@pytest.mark.parametrize("name", BUILTIN_OMEGAS)
def test_finite_support_guard_names_the_shortest_pure_run(name):
    """A tree of depth N holds the pure runs through N + 1.  A marginal on n
    points is accepted whether or not n < N + 1, for either letter, and the
    state still matches its references."""
    three_points = JacobiData(beta=(F(1, 2), F(0)), gamma=(F(1), F(2, 3)), extend="zero")
    assert three_points.gamma_at(2) and not three_points.gamma_at(3)  # on three points
    _assert_map_matches_references(name, 2, GENERIC_J1, three_points)
    _assert_map_matches_references(name, 3, GENERIC_J1, three_points)
    _assert_map_matches_references(name, 5, three_points, GENERIC_J2)


def test_error_policy_marginal_raises_at_map_construction():
    """Maps answer on demand, but read every marginal coefficient they can
    use when they fix D, so data that run out fail at construction."""
    short = JacobiData(beta=(F(1, 2), F(1, 3)), gamma=(F(1), F(2)), extend="error")
    product_type_map(builder("free", 1), short, GENERIC_J2)
    with pytest.raises(JacobiRangeError, match="beta_2"):
        product_type_map(builder("free", 2), short, GENERIC_J2)
    with pytest.raises(JacobiRangeError):
        product_type_map(builder("boolean", 2), GENERIC_J1, short)
    # the two-pair map reads each nu one index less deep than each mu
    cfree_map(GENERIC_J1, short, GENERIC_J2, short, 2)
    with pytest.raises(JacobiRangeError):
        cfree_map(GENERIC_J1, short, GENERIC_J2, short, 3)
    with pytest.raises(JacobiRangeError):
        cfree_map(short, GENERIC_J1, GENERIC_J2, GENERIC_J2, 2)


CUSTOM_TREE = {"words": [[2, 1], [2, 2, 1], [1, 2, 1]], "implicit_runs": True}


def test_lazy_entries_equal_eager_build():
    """Entries read on demand equal every entry the word-by-word build
    fills, and D is the lcm of their denominators."""
    nu1, nu2 = random_pair(11)
    trees = [builder(name, 6) for name in BUILTIN_OMEGAS]
    trees.append(omega_from_json({**CUSTOM_TREE, "depth": 6}))
    cases = [(product_type_map(tree, GENERIC_J1, GENERIC_J2),
              eager_product_type_entries(tree, GENERIC_J1, GENERIC_J2)) for tree in trees]
    cases.append((cfree_map(GENERIC_J1, nu1, GENERIC_J2, nu2, 6),
                  eager_cfree_entries(GENERIC_J1, nu1, GENERIC_J2, nu2, 6)))
    for index, (cm, (b, c)) in enumerate(cases):
        assert map_entries(cm) == (b, c), index
        assert cm.scale == math.lcm(*(v.denominator for v in (*b.values(), *c.values()))), index
        for (i, u), value in b.items():
            assert cm.integer.b(i, u) == value * cm.scale
        for u, value in c.items():
            assert cm.integer.c(u) == value * cm.scale**2


# basis polynomials ----------------------------------------------------------

def test_basis_polynomial_empty_word():
    tree = builder("free", 3)
    assert basis_polynomial(tree, GENERIC_J1, GENERIC_J2, ()) == NCPolynomial.one(2)


def test_basis_polynomial_free_in_tree():
    tree = builder("free", 3)
    expected = (x(1) - GENERIC_J1.beta_at(0)) * (x(2) - GENERIC_J2.beta_at(0))
    assert basis_polynomial(tree, GENERIC_J1, GENERIC_J2, (1, 2)) == expected


def test_basis_polynomial_boolean_longest_postfix():
    tree = builder("boolean", 3)
    expected = x(1) * (x(2) - GENERIC_J2.beta_at(0))
    assert basis_polynomial(tree, GENERIC_J1, GENERIC_J2, (1, 2)) == expected


def test_basis_polynomial_monic_with_leading_word():
    tree = builder("monotone", 4)
    for u in words_up_to(2, 4):
        p = basis_polynomial(tree, GENERIC_J1, GENERIC_J2, u)
        assert p.coefficient(u) == 1
        assert all(len(w) < len(u) or w == u for w in p.terms)


def test_recursion_basis_matches_definition():
    """With or without nu, on every built-in tree, the rewrite rules rebuild
    the run-product basis."""
    nu = (random_pair(3)[0], random_pair(4)[1])
    for name in BUILTIN_OMEGAS:
        tree = builder(name, 6)
        for pair in (None, nu):
            cm = product_type_map(tree, GENERIC_J1, GENERIC_J2, pair)
            for u in words_up_to(2, 4):
                expected = basis_polynomial(tree, GENERIC_J1, GENERIC_J2, u, pair)
                assert recursion_basis(cm, u) == expected, (name, pair is None, u)


def test_basis_polynomial_takes_the_rightmost_run_from_mu():
    mu1, nu1, mu2, nu2 = GENERIC_J1, random_pair(3)[0], GENERIC_J2, random_pair(4)[1]
    free = builder("free", 6)
    p = basis_polynomial(free, mu1, mu2, (1, 2), (nu1, nu2))
    assert p == (x(1) - nu1.beta_at(0)) * (x(2) - mu2.beta_at(0))
    cm = cfree_map(mu1, nu1, mu2, nu2, 6)
    for u in words_up_to(2, 4):
        assert recursion_basis(cm, u) == basis_polynomial(free, mu1, mu2, u, (nu1, nu2))


def test_recursion_basis_matches_definition_on_every_small_tree():
    """Every tree stored to length 3, with its pure runs grown to depth 4,
    under a generic pair and a finitely supported one: the rewrite rules
    rebuild the run-product basis at every word through length 4."""
    pure_runs = {(letter,) * n for letter in (1, 2) for n in range(6)}
    finite = (preset("bernoulli", p=F(1, 3), a=1, b=-2), preset("point-mass", c=F(1, 2)))
    trees = [validate(members | pure_runs, 4) for members in enumerate_valid_trees(3)]
    assert len(trees) == 64
    for tree in trees:
        for j1, j2 in ((GENERIC_J1, GENERIC_J2), finite):
            cm = product_type_map(tree, j1, j2)
            for u in words_up_to(2, 4):
                assert recursion_basis(cm, u) == basis_polynomial(tree, j1, j2, u), (tree, u)


# left multiplication --------------------------------------------------------

def test_left_multiply_raise_only():
    cm = product_type_map(builder("boolean", 4), SEMI, SEMI)
    assert left_multiply(cm, 1, {(): F(1)}) == {(1,): F(1)}


def test_left_multiply_out_of_tree():
    cm = product_type_map(builder("boolean", 4), SEMI, SEMI)
    assert left_multiply(cm, 2, {(1,): F(1)}) == {(2, 1): F(1)}


def test_left_multiply_three_term():
    cm = product_type_map(builder("free", 4), SEMI, SEMI)
    assert left_multiply(cm, 1, {(1,): F(1)}) == {(1, 1): F(1), (): F(1)}


def test_left_multiply_general_node():
    cm = product_type_map(builder("free", 4), GENERIC_J1, GENERIC_J2)
    out = left_multiply(cm, 2, {(2, 1): F(1)})
    assert out == {
        (2, 2, 1): F(1),
        (2, 1): GENERIC_J2.beta_at(1),
        (1,): GENERIC_J2.gamma_at(1),
    }


# state evaluation -----------------------------------------------------------

def test_single_letter_moment_is_mean():
    for name in BUILTIN_OMEGAS:
        cm = product_type_map(builder(name, 3), GENERIC_J1, GENERIC_J2)
        assert StateEvaluator(cm).eval_poly(x(1)) == GENERIC_J1.beta_at(0)
        assert StateEvaluator(cm).eval_poly(x(2)) == GENERIC_J2.beta_at(0)


def test_stochastic_independence():
    for name in BUILTIN_OMEGAS:
        cm = product_type_map(builder(name, 8), GENERIC_J1, GENERIC_J2)
        ev = StateEvaluator(cm)
        for n in range(5):
            for k in range(5):
                word = (1,) * n + (2,) * k
                assert ev.word_moment(word) == moment(GENERIC_J1, n) * moment(GENERIC_J2, k)


def test_free_semicircle_values():
    cm = product_type_map(builder("free", 4), SEMI, SEMI)
    ev = StateEvaluator(cm)
    assert ev.word_moment((1, 2, 1, 2)) == 0
    assert ev.word_moment((1, 2, 2, 1)) == 1


def test_centering():
    for name in BUILTIN_OMEGAS:
        tree = builder(name, 6)
        cm = product_type_map(tree, GENERIC_J1, GENERIC_J2)
        ev = StateEvaluator(cm)
        for u in words_up_to(2, 5):
            if u:
                assert ev.eval_poly(basis_polynomial(tree, GENERIC_J1, GENERIC_J2, u)) == 0


def test_state_is_linear():
    cm = product_type_map(builder("monotone", 4), GENERIC_J1, GENERIC_J2)
    p = word_poly((1, 2)) - 3 * word_poly((2, 1, 1))
    q = F(1, 2) * word_poly((2,))
    ev = StateEvaluator(cm)
    assert ev.eval_poly(p + q) == ev.eval_poly(p) + ev.eval_poly(q)
    assert ev.eval_poly(NCPolynomial.one(2)) == 1


# inner products and Gram matrices -------------------------------------------

@pytest.mark.parametrize("name", BUILTIN_OMEGAS)
def test_orthogonality_random_data(name):
    j1, j2 = random_pair(17)
    tree = builder(name, 6)
    cm = product_type_map(tree, j1, j2)
    gram = gram_matrix(cm, 3)
    assert gram.is_diagonal()
    diagonal = gram.diagonal()
    for u in gram.words:
        assert diagonal[u] == cm.norm_squared(u)


def test_norm_product_free_semicircle():
    cm = product_type_map(builder("free", 4), SEMI, SEMI)
    tree = builder("free", 4)
    p = basis_polynomial(tree, SEMI, SEMI, (1, 2))
    assert functional_inner(StateEvaluator(cm).word_moment, p, p) == 1


def test_one_branch_boundary_vector_has_zero_norm():
    tree = builder("one-branch", 4)
    cm = product_type_map(tree, GENERIC_J1, GENERIC_J2)
    p = basis_polynomial(tree, GENERIC_J1, GENERIC_J2, (2, 1))
    assert functional_inner(StateEvaluator(cm).word_moment, p, p) == 0


def test_gram_boolean_semicircle_depth_two():
    cm = product_type_map(builder("boolean", 4), SEMI, SEMI)
    gram = gram_matrix(cm, 2)
    diag = gram.diagonal()
    assert diag[()] == 1
    for u in ((1,), (2,), (1, 1), (2, 2)):
        assert diag[u] == 1
    for u in ((1, 2), (2, 1)):
        assert diag[u] == 0


def test_gram_free_semicircle_all_ones():
    cm = product_type_map(builder("free", 4), SEMI, SEMI)
    gram = gram_matrix(cm, 2)
    assert all(value == 1 for value in gram.diagonal().values())


def test_gram_depth_guard():
    cm = product_type_map(builder("free", 3), SEMI, SEMI)
    with pytest.raises(DepthExhaustedError):
        gram_matrix(cm, 3)


def test_zero_norm_characterization_depth_three():
    for name in BUILTIN_OMEGAS:
        tree = builder(name, 6)
        cm = product_type_map(tree, GENERIC_J1, GENERIC_J2)
        gram = gram_matrix(cm, 3)
        diag = gram.diagonal()
        for u in gram.words:
            assert (diag[u] == 0) == (not tree.in_interior(u)), (name, u)


# distinctness ---------------------------------------------------------------

DISTINCTNESS_WITNESSES = {
    ("free", "boolean"): (1, 2, 1),
    ("free", "monotone"): (2, 1, 2),
    ("free", "antimonotone"): (1, 2, 1),
    ("free", "one-branch"): (2, 1, 2),
    ("boolean", "monotone"): (1, 2, 1),
    ("boolean", "antimonotone"): (2, 1, 2),
    ("boolean", "one-branch"): (1, 2, 1),
    ("monotone", "antimonotone"): (1, 2, 1),
    ("monotone", "one-branch"): (1, 2, 2, 1),
    ("antimonotone", "one-branch"): (1, 2, 1),
}


def test_distinctness_of_builtin_states():
    evaluators = {
        name: StateEvaluator(product_type_map(builder(name, 6), GENERIC_J1, GENERIC_J2))
        for name in BUILTIN_OMEGAS
    }
    for (a, b), expected_witness in DISTINCTNESS_WITNESSES.items():
        witness = next(
            (
                w
                for w in words_up_to(2, 6)
                if evaluators[a].word_moment(w) != evaluators[b].word_moment(w)
            ),
            None,
        )
        assert witness == expected_witness, (a, b)


# two-pair (c-free) maps -----------------------------------------------------

def test_cfree_map_nu_equals_mu_is_free_map():
    free_cm = product_type_map(builder("free", 5), GENERIC_J1, GENERIC_J2)
    cf = cfree_map(GENERIC_J1, GENERIC_J1, GENERIC_J2, GENERIC_J2, 5)
    assert map_entries(cf) == map_entries(free_cm)


def test_cfree_map_nu_delta_zero_is_boolean_map():
    delta0 = preset("point-mass", c=F(0))
    boolean_cm = product_type_map(builder("boolean", 5), GENERIC_J1, GENERIC_J2)
    cf = cfree_map(GENERIC_J1, delta0, GENERIC_J2, delta0, 5)
    assert map_entries(cf) == map_entries(boolean_cm)


def test_cfree_coefficient_pattern():
    # all-distinct marginal coefficients so the assignment is unambiguous:
    # pure-run nodes carry mu's gammas, every other node nu's
    mu1 = JacobiData(beta=(F(0),), gamma=(F(2), F(3)))
    nu1 = JacobiData(beta=(F(0),), gamma=(F(5), F(7)))
    mu2 = JacobiData(beta=(F(0),), gamma=(F(11), F(13)))
    nu2 = JacobiData(beta=(F(0),), gamma=(F(17), F(19)))
    cm = cfree_map(mu1, nu1, mu2, nu2, 4)
    assert cm.c((1,)) == 2 and cm.c((1, 1)) == 3
    assert cm.c((2,)) == 11 and cm.c((2, 2)) == 13
    assert cm.c((2, 1)) == 17 and cm.c((1, 2)) == 5
    assert cm.c((1, 1, 2)) == 7 and cm.c((2, 2, 1)) == 19


# one-branch factorizations ---------------------------------------------------

def test_one_branch_trailing_two_block_factors():
    # phi[w 1^n 2^k] = phi[w 1^n] mu2[x^k], any context w
    cm = product_type_map(builder("one-branch", 7), GENERIC_J1, GENERIC_J2)
    ev = StateEvaluator(cm)
    for w in words_up_to(2, 3):
        for n in range(1, 3):
            for k in range(1, 3):
                if len(w) + k + n > 6:
                    continue
                lhs = ev.word_moment(w + (1,) * n + (2,) * k)
                rhs = ev.word_moment(w + (1,) * n) * moment(GENERIC_J2, k)
                assert lhs == rhs, (w, n, k)


def test_one_branch_two_one_tail():
    # phi[w 1^n 2 1] = phi[w 1^(n+1)] mu2[x], any context w
    cm = product_type_map(builder("one-branch", 7), GENERIC_J1, GENERIC_J2)
    ev = StateEvaluator(cm)
    for w in words_up_to(2, 3):
        for n in range(1, 3):
            if len(w) + n + 2 > 6:
                continue
            lhs = ev.word_moment(w + (1,) * n + (2, 1))
            rhs = ev.word_moment(w + (1,) * (n + 1)) * moment(GENERIC_J2, 1)
            assert lhs == rhs, (w, n)


def test_one_branch_trailing_one_block_exact_correction():
    # The exact trailing-one-block law of this state is
    #   phi[w 2^k 1^n] = mu1[x^n] phi[w 2^k]
    #                  + a1(n) * mu2[x]^k * (phi[w 1] - mu1[x] phi[w])
    # where a1(n) is the coefficient of P_(1) in the expansion of x_1^n,
    # taken from mu1's moments rather than from the map under test.
    # The bare factorization therefore holds for every context without a
    # letter 1 (the correction collapses there), and at k = n = 1 the
    # correction is what produces the two-one-tail identity above.
    ev = StateEvaluator(product_type_map(builder("one-branch", 8), GENERIC_J1, GENERIC_J2))

    mean1 = moment(GENERIC_J1, 1)
    mean2 = moment(GENERIC_J2, 1)
    for w in words_up_to(2, 3):
        for k in range(1, 4):
            for n in range(1, 4):
                if len(w) + k + n > 8:
                    continue
                lhs = ev.word_moment(w + (2,) * k + (1,) * n)
                leak = (
                    p1_coefficient(GENERIC_J1, n)
                    * mean2**k
                    * (ev.word_moment(w + (1,)) - mean1 * ev.word_moment(w))
                )
                rhs = moment(GENERIC_J1, n) * ev.word_moment(w + (2,) * k) + leak
                assert lhs == rhs, (w, k, n)
                if 1 not in w:
                    assert leak == 0
    # with generic data the correction is genuinely present for 1-bearing
    # contexts, e.g. w = (1), k = 1, n = 2
    lhs = ev.word_moment((1, 2, 1, 1))
    rhs = ev.word_moment((1, 2)) * moment(GENERIC_J1, 2)
    assert lhs != rhs


def test_one_branch_exception_is_real():
    # with generic data the excluded k = n = 1 case genuinely fails
    cm = product_type_map(builder("one-branch", 5), GENERIC_J1, GENERIC_J2)
    ev = StateEvaluator(cm)
    lhs = ev.word_moment((1, 2, 1))
    rhs = ev.word_moment((1, 2)) * moment(GENERIC_J1, 1)
    assert lhs != rhs


def test_one_branch_boolean_degeneration():
    j2 = JacobiData(beta=(F(0), F(2, 5)), gamma=GENERIC_J2.gamma)  # mean zero
    one_branch = StateEvaluator(product_type_map(builder("one-branch", 6), GENERIC_J1, j2))
    boolean = StateEvaluator(product_type_map(builder("boolean", 6), GENERIC_J1, j2))
    for w in words_up_to(2, 6):
        assert one_branch.word_moment(w) == boolean.word_moment(w)


def _random_explicit_map(seed, d, depth):
    """Random B everywhere (zeros included) and random C >= 0, about a third
    of it zero, on every word up to depth."""
    rng = random.Random(seed)
    words = words_up_to(d, depth)
    b = {(i, u): F(rng.randint(-2, 2), rng.randint(1, 3)) for u in words for i in range(1, d + 1)}
    c = {u: F(rng.choice((0, 1, 2)), rng.randint(1, 3)) for u in words if u}
    cm = explicit_map(d, depth, b, c)
    assert 0 < len(map_entries(cm)[1]) < len(c)
    return cm


def test_two_half_moment_equals_full_transfer_expansion():
    """word_moment evaluates a word from two half-length expansions and the
    norms; it must equal the constant term of the full-length expansion,
    taken on a separate evaluator, through order depth + 1."""
    nu1, nu2 = random_pair(7)
    maps = [product_type_map(builder(name, 7), GENERIC_J1, GENERIC_J2) for name in BUILTIN_OMEGAS]
    maps.append(cfree_map(GENERIC_J1, nu1, GENERIC_J2, nu2, 7))
    for d, depth in ((1, 8), (2, 5), (3, 3)):
        maps += [_random_explicit_map(seed, d, depth) for seed in range(3)]
    for index, cm in enumerate(maps):
        ev, reference = StateEvaluator(cm), StateEvaluator(cm)
        for w in words_up_to(cm.d, cm.depth + 1):
            assert ev.word_moment(w) == reference.expansion(w).get((), 0), (index, w)
        with pytest.raises(DepthExhaustedError):
            ev.word_moment((1,) * (cm.depth + 2))


def test_moment_parts_equal_word_numerators():
    """The dense table sums the same half-length products as word_numerator,
    one outer product per basis word, each value at the base-d index of its
    word: equal on every word through order 8, on every built-in tree, the
    two-pair map and random three-letter data."""
    nu1, nu2 = random_pair(11)
    maps = [product_type_map(builder(name, 7), GENERIC_J1, GENERIC_J2) for name in BUILTIN_OMEGAS]
    maps.append(cfree_map(GENERIC_J1, nu1, GENERIC_J2, nu2, 7))
    maps.append(_random_explicit_map(5, 3, 7))
    for index, cm in enumerate(maps):
        parts = moment_parts(cm, 8)
        evaluator = StateEvaluator(cm)
        assert [len(part) for part in parts] == [cm.d**n for n in range(9)]
        for n, part in enumerate(parts):
            assert part == [evaluator.word_numerator(w) for w in words_of_length(cm.d, n)], (index, n)
        table = moment_table(cm, 8)
        assert table == [(w, evaluator.word_moment(w)) for w in words_up_to(cm.d, 8)], index


def test_moment_parts_edges():
    cm = product_type_map(builder("free", 3), GENERIC_J1, GENERIC_J2)
    assert moment_parts(cm, 0) == [[1]]
    assert len(moment_parts(cm, 4)) == 5
    with pytest.raises(DepthExhaustedError):
        moment_parts(cm, 5)
    with pytest.raises(ValueError):
        moment_parts(cm, -1)
