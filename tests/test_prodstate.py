"""Coefficient maps, basis polynomials, and transfer-operator evaluation."""

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GENERIC_J1, GENERIC_J2, map_entries, p1_coefficient, random_pair, scalar_table
from reference_kernels import eager_cfree_entries, eager_product_type_entries, fraction_expansion
from ncprod import (
    BUILTIN_OMEGAS,
    CoefficientMap,
    JacobiData,
    NCPolynomial,
    OmegaTree,
    StateEvaluator,
    antimonotone_state,
    basis_polynomial,
    boolean_state,
    builder,
    cfree_map,
    cfree_state,
    explicit_map,
    free_state,
    functional_inner,
    gram_matrix,
    gram_schmidt_mops,
    jacobi_from_json,
    left_multiply,
    moment_table,
    monotone_state,
    omega_from_json,
    preset,
    product_type_map,
    recursion_basis,
    tensor_state,
)
from ncprod.cfrac import matricial_map_parts, scalar_branched_parts
from ncprod.jacobi import JacobiRangeError, MomentSequence, coefficient_scale
from ncprod.treecheck import enumerate_valid_trees, validate
from ncprod.prodstate import DepthExhaustedError, moment_parts
from ncprod.words import word_values, words_of_length, words_up_to

F = Fraction

SEMI = preset("semicircle")

GOLDEN = Path(__file__).resolve().parent / "golden"


def x(i):
    return NCPolynomial.variable(i, 2)


def word_poly(w):
    return NCPolynomial.monomial(w, 2)


def state_value(ev, p):
    """The state at a polynomial: word_moment extended linearly."""
    return functional_inner(ev.word_moment, NCPolynomial.one(2), p)


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


def test_explicit_map_rejects_words_outside_the_alphabet():
    """An entry on a letter outside 1..d is refused and named, never kept
    in a map whose moment table would read it as no entry at all."""
    with pytest.raises(ValueError, match=r"bad B entry at letter 1, word \[7\]: letter 7 outside alphabet 1..2"):
        explicit_map(2, 3, {(1, (7,)): 1}, {(9,): 2})
    with pytest.raises(ValueError, match=r"bad C entry at word \[1, 0\]: letter 0 outside alphabet 1..2"):
        explicit_map(2, 3, {}, {(1, 0): 2})
    with pytest.raises(ValueError, match=r"bad B entry at letter 3, word \[\]"):
        explicit_map(2, 3, {(3, ()): 1}, {})


def test_depth_guard():
    cm = product_type_map(builder("free", 2), SEMI, SEMI)
    for _ in range(2):  # a word beyond the depth is never kept
        with pytest.raises(DepthExhaustedError):
            cm.b(1, (1, 2, 1))
        with pytest.raises(DepthExhaustedError):
            cm.integer.c((1, 2, 1))
    # a word is refused only where its own expansion reads past the map:
    # 1^6 needs C(1, 1, 1), while (1, 2)^3 is served exactly
    evaluator = StateEvaluator(cm)
    deep = StateEvaluator(product_type_map(builder("free", 9), SEMI, SEMI))
    assert evaluator.word_moment((1, 2) * 3) == deep.word_moment((1, 2) * 3)
    with pytest.raises(DepthExhaustedError, match="C query at depth 3 exceeds map depth 2"):
        state_value(evaluator, word_poly((1,) * 6))


def test_integer_view_refuses_a_scale_that_leaves_a_denominator():
    cm = CoefficientMap(1, 2, lambda letter, word: F(1, 6), lambda word: F(0), 3)
    with pytest.raises(ValueError, match="does not clear"):
        scalar_branched_parts(cm, 2)


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
    values = dict(scalar_table(cm, depth + 1))
    oracle = ORACLES[name](j1, j2) if name in ORACLES else None
    for w in words_up_to(2, depth + 1):
        value = evaluator.word_moment(w)
        assert value == values[w], (name, depth, w)
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


def test_error_policy_marginal_raises_at_first_read_past_its_data():
    """A map takes D from the stored prefixes and reads no coefficient at
    construction, so data under the "error" policy that run out refuse the
    first query that reads past them, and a route that stays within them
    runs."""
    short = JacobiData(beta=(F(1, 2), F(1, 3)), gamma=(F(1), F(2)), extend="error")
    cm = product_type_map(builder("free", 2), short, GENERIC_J2)
    assert len(moment_parts(cm, 3)) == 4  # reads B and C at words of length <= 1
    with pytest.raises(JacobiRangeError, match="beta_2"):
        cm.b(1, (1, 1))
    cm = product_type_map(builder("boolean", 2), GENERIC_J1, short)
    with pytest.raises(JacobiRangeError, match="beta_2"):
        cm.b(2, (2, 2))
    # the two-pair map reads each nu one index less deep than each mu
    cm = cfree_map(GENERIC_J1, short, GENERIC_J2, short, 3)
    assert cm.b(1, (1, 2)) == short.beta[1]
    with pytest.raises(JacobiRangeError, match="beta_2"):
        cm.b(1, (1, 1, 2))


def _old_scale(mus, nus, depth):
    """D as the map once read it at construction: the lcm of every mu's
    beta_0..beta_depth and gamma_1..gamma_depth and every nu's through
    depth - 1, each read through the extension policy."""
    def lcm(data, top):
        betas = [data.beta_at(k) for k in range(top + 1)]
        return math.lcm(*(x.denominator for x in betas + [data.gamma_at(k) for k in range(1, top + 1)]))

    return math.lcm(*(lcm(data, depth) for data in mus), *(lcm(data, depth - 1) for data in nus))


def _golden_marginal(name):
    with open(GOLDEN / f"{name}.json", encoding="utf-8") as handle:
        return jacobi_from_json(json.load(handle, parse_float=Fraction))


def test_scale_from_stored_prefixes_equals_the_lcm_read_through_the_policy():
    """D taken from the stored prefixes equals the lcm over every
    coefficient an entry can take, read through the extension policy, for
    each marginal as a mu and as a nu, at depths 1 to 12; where that read
    runs out (the "error" policy) the map is still built."""
    marginals = [_golden_marginal(name) for name in ("j1", "j2", "nu1", "nu2", "q_gaussian")]
    marginals += [GENERIC_J1, GENERIC_J2, *random_pair(5)]
    marginals += [
        preset("semicircle"),
        preset("q-gaussian", q=F(1, 2), terms=9),
        preset("gaussian", terms=5),
        preset("point-mass", c=F(-2, 7)),
        preset("bernoulli", p=F(1, 3), a=F(1, 2), b=F(-3, 5)),
        JacobiData(beta=(F(1, 2), F(1, 3)), gamma=(F(1), F(2, 9)), extend="zero"),
        JacobiData(beta=(F(1, 2), F(1, 3)), gamma=(F(1), F(2, 9)), extend="error"),
        JacobiData(beta=(), gamma=()),
    ]
    for depth in range(1, 13):
        for data in marginals:
            # semicircle has D = 1, so the one marginal fixes the scale
            for role, mus, nus in (("mu", (data, SEMI), (SEMI, SEMI)), ("nu", (SEMI, SEMI), (data, SEMI))):
                cm = cfree_map(mus[0], nus[0], mus[1], nus[1], depth)
                try:
                    expected = _old_scale(mus, nus, depth)
                except JacobiRangeError:
                    continue
                assert cm.scale == expected, (data, depth, role)
    # a map of depth 0 holds B(i, ()) alone, so no nu coefficient enters D
    nu = JacobiData(beta=(F(1, 5), F(1, 7)), gamma=(F(1, 3), F(1, 11)))
    assert product_type_map(OmegaTree(0, frozenset({(1,), (2,)})), SEMI, SEMI, (nu, nu)).scale == 1


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
        assert state_value(StateEvaluator(cm), x(1)) == GENERIC_J1.beta_at(0)
        assert state_value(StateEvaluator(cm), x(2)) == GENERIC_J2.beta_at(0)


def test_stochastic_independence():
    for name in BUILTIN_OMEGAS:
        cm = product_type_map(builder(name, 8), GENERIC_J1, GENERIC_J2)
        ev = StateEvaluator(cm)
        for n in range(5):
            for k in range(5):
                word = (1,) * n + (2,) * k
                assert ev.word_moment(word) == MomentSequence(GENERIC_J1)[n] * MomentSequence(GENERIC_J2)[k]


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
                assert state_value(ev, basis_polynomial(tree, GENERIC_J1, GENERIC_J2, u)) == 0


def test_state_is_linear():
    cm = product_type_map(builder("monotone", 4), GENERIC_J1, GENERIC_J2)
    p = word_poly((1, 2)) - 3 * word_poly((2, 1, 1))
    q = F(1, 2) * word_poly((2,))
    ev = StateEvaluator(cm)
    assert state_value(ev, p + q) == state_value(ev, p) + state_value(ev, q)
    assert state_value(ev, NCPolynomial.one(2)) == 1


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


def test_integer_view_norms_are_the_scaled_norms_as_ints():
    """The integer view's norm_squared is the int ||Q_u||^2 = D^(2|u|)
    ||P_u||^2, the norm the word-by-word evaluator pairs with."""
    maps = [product_type_map(builder(name, 4), GENERIC_J1, GENERIC_J2) for name in BUILTIN_OMEGAS]
    nu1, nu2 = random_pair(7)
    maps.append(cfree_map(GENERIC_J1, nu1, GENERIC_J2, nu2, 4))
    for cm in maps:
        for u in words_up_to(2, 4):
            norm = cm.integer.norm_squared(u)
            assert type(norm) is int, u
            assert norm == cm.norm_squared(u) * cm.scale ** (2 * len(u)), u


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
    """A depth-3 map serves the Gram matrix through depth 3, which reads
    moments through order 6, and refuses depth 4."""
    cm = product_type_map(builder("free", 3), SEMI, SEMI)
    with pytest.raises(DepthExhaustedError, match="C query at depth 4 exceeds map depth 3"):
        gram_matrix(cm, 4)


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
                rhs = ev.word_moment(w + (1,) * n) * MomentSequence(GENERIC_J2)[k]
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
            rhs = ev.word_moment(w + (1,) * (n + 1)) * MomentSequence(GENERIC_J2)[1]
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

    mean1 = MomentSequence(GENERIC_J1)[1]
    mean2 = MomentSequence(GENERIC_J2)[1]
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
                rhs = MomentSequence(GENERIC_J1)[n] * ev.word_moment(w + (2,) * k) + leak
                assert lhs == rhs, (w, k, n)
                if 1 not in w:
                    assert leak == 0
    # with generic data the correction is genuinely present for 1-bearing
    # contexts, e.g. w = (1), k = 1, n = 2
    lhs = ev.word_moment((1, 2, 1, 1))
    rhs = ev.word_moment((1, 2)) * MomentSequence(GENERIC_J1)[2]
    assert lhs != rhs


def test_one_branch_exception_is_real():
    # with generic data the excluded k = n = 1 case genuinely fails
    cm = product_type_map(builder("one-branch", 5), GENERIC_J1, GENERIC_J2)
    ev = StateEvaluator(cm)
    lhs = ev.word_moment((1, 2, 1))
    rhs = ev.word_moment((1, 2)) * MomentSequence(GENERIC_J1)[1]
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
    the reference's Fraction transfer operator, through order depth + 1."""
    nu1, nu2 = random_pair(7)
    maps = [product_type_map(builder(name, 7), GENERIC_J1, GENERIC_J2) for name in BUILTIN_OMEGAS]
    maps.append(cfree_map(GENERIC_J1, nu1, GENERIC_J2, nu2, 7))
    for d, depth in ((1, 8), (2, 5), (3, 3)):
        maps += [_random_explicit_map(seed, d, depth) for seed in range(3)]
    for index, cm in enumerate(maps):
        ev = StateEvaluator(cm)
        for w in words_up_to(cm.d, cm.depth + 1):
            assert ev.word_moment(w) == fraction_expansion(cm, w).get((), 0), (index, w)
        # a map of depth N serves through order 2N + 1; 1^(2N + 2) reads C(1^(N + 1))
        with pytest.raises(DepthExhaustedError):
            ev.word_moment((1,) * (2 * cm.depth + 2))


def _map_pair(kind, depth):
    """A map of the given depth and a depth-9 map of the same state."""
    if kind == "cfree":
        nu1, nu2 = random_pair(7)
        return [cfree_map(GENERIC_J1, nu1, GENERIC_J2, nu2, n) for n in (depth, 9)]
    if kind == "explicit":
        b, c = map_entries(_random_explicit_map(5, 2, 4))
        return [
            explicit_map(2, n, {k: v for k, v in b.items() if len(k[1]) <= n},
                         {u: v for u, v in c.items() if len(u) <= n})
            for n in (depth, 9)
        ]
    return [product_type_map(builder(kind, n), GENERIC_J1, GENERIC_J2) for n in (depth, 9)]


def _rule_routes(cm, order):
    """Every word's value through the order from each map-fed route."""
    evaluator = StateEvaluator(cm)
    tables = [route(cm, order) for route in (moment_parts, scalar_branched_parts, matricial_map_parts)]
    return [list(word_values(cm.d, parts, cm.scale)) for parts in tables] + [
        [(w, F(evaluator.word_numerator(w), cm.scale ** len(w))) for w in words_up_to(cm.d, order)]
    ]


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("kind", [*BUILTIN_OMEGAS, "cfree", "explicit"])
def test_a_map_of_depth_n_serves_every_order_through_2n_plus_1(kind, depth):
    """Each tree level down costs two degrees, so every map-fed route serves
    exactly the orders through 2N + 1 on a map of depth N, with the values
    of a deep map, and gram_matrix every depth through N.  On the free tree,
    where C vanishes nowhere, each refuses the first order it cannot serve,
    2N + 2, with the map's own error; the evaluator refuses 1^(2N + 2) but
    serves (1, 2)^(N + 1), whose two half expansions share no word longer
    than N."""
    cm, deep = _map_pair(kind, depth)
    order = 2 * depth + 1
    expected = moment_table(deep, order)
    for index, values in enumerate(_rule_routes(cm, order)):
        assert values == expected, (kind, depth, index)
    assert gram_matrix(cm, depth).entries == gram_matrix(deep, depth).entries
    if kind != "free":
        return
    refusal = f"C query at depth {depth + 1} exceeds map depth {depth}"
    for route in (moment_parts, scalar_branched_parts, matricial_map_parts):
        with pytest.raises(DepthExhaustedError, match=refusal):
            route(cm, order + 1)
    with pytest.raises(DepthExhaustedError, match=refusal):
        gram_matrix(cm, depth + 1)
    with pytest.raises(DepthExhaustedError, match=refusal):
        StateEvaluator(cm).word_numerator((1,) * (order + 1))
    alternating = (1, 2) * (depth + 1)
    assert StateEvaluator(cm).word_moment(alternating) == StateEvaluator(deep).word_moment(alternating)


def test_moment_parts_equal_word_numerators():
    """Two independent routes: the dense table sweeps the transfer operator
    over whole words, while word_numerator pairs two half-length expansions
    through the norms.  They must agree on every word through order 8, each
    table value at the base-d index of its word, on every built-in tree,
    the two-pair map, a finitely supported marginal (gamma_2 = 0), random
    three-letter data and random one-letter data."""
    nu1, nu2 = random_pair(11)
    finite = JacobiData(beta=(F(1, 2), F(-1, 3)), gamma=(F(2, 5),), extend="zero")
    maps = [product_type_map(builder(name, 7), GENERIC_J1, GENERIC_J2) for name in BUILTIN_OMEGAS]
    maps.append(cfree_map(GENERIC_J1, nu1, GENERIC_J2, nu2, 7))
    maps.append(product_type_map(builder("free", 7), finite, GENERIC_J2))
    maps.append(_random_explicit_map(5, 3, 7))
    maps.append(_random_explicit_map(6, 1, 7))
    for index, cm in enumerate(maps):
        parts = moment_parts(cm, 8)
        evaluator = StateEvaluator(cm)
        assert [len(part) for part in parts] == [cm.d**n for n in range(9)]
        for n, part in enumerate(parts):
            assert part == [evaluator.word_numerator(w) for w in words_of_length(cm.d, n)], (index, n)
        table = moment_table(cm, 8)
        assert table == [(w, evaluator.word_moment(w)) for w in words_up_to(cm.d, 8)], index


def _recording_map(inner):
    """The map of the same entries, with rules that record each word they
    are asked about, and that record."""
    asked = []

    def b_rule(letter, word):
        asked.append(word)
        return inner.b(letter, word)

    def c_rule(word):
        asked.append(word)
        return inner.c(word)

    return CoefficientMap(inner.d, inner.depth, b_rule, c_rule, inner.scale), asked


@pytest.mark.parametrize("order", [8, 9])
def test_moment_parts_reads_coefficients_to_half_the_order(order):
    """The sweep drops every basis word that can no longer lower to (), so
    it asks the map about no word longer than order // 2; a sweep that
    kept every basis word would read past the map's depth, order - 1."""
    inner = product_type_map(builder("free", order - 1), GENERIC_J1, GENERIC_J2)
    cm, asked = _recording_map(inner)
    assert moment_parts(cm, order) == moment_parts(inner, order)
    assert max(map(len, asked)) == order // 2


def test_moment_parts_drops_basis_words_of_norm_zero():
    """On the boolean tree C vanishes off the pure runs, so Q_u has norm 0
    and never lowers to () unless u is a pure run.  The sweep drops those
    u, and asks the map only about words whose tail is a pure run."""
    inner = product_type_map(builder("boolean", 7), GENERIC_J1, GENERIC_J2)
    cm, asked = _recording_map(inner)
    assert moment_parts(cm, 8) == moment_parts(inner, 8)
    assert all(len(set(word[1:])) <= 1 for word in asked)


def _jacobi_data(draw_fraction, gamma_cut):
    """Signed betas beta_0..beta_2 and positive gammas gamma_1, gamma_2, zero
    from index gamma_cut on."""
    beta = [draw_fraction(-2, 2) for _ in range(3)]
    gamma = [draw_fraction(1, 3) if k < gamma_cut else F(0) for k in range(1, 3)]
    return JacobiData(beta=beta, gamma=gamma)


def _draw_pair(data):
    """Two draws of _jacobi_data, each with its own gamma cut."""
    def draw_fraction(low, high):
        return data.draw(st.fractions(min_value=low, max_value=high, max_denominator=3))

    return tuple(_jacobi_data(draw_fraction, data.draw(st.integers(1, 3))) for _ in range(2))


VALID_TREES_3 = enumerate_valid_trees(3)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.sampled_from(VALID_TREES_3), st.data())
def test_four_routes_agree_on_valid_trees(members, data):
    """On a valid tree stored to length 3 and Jacobi data with signed betas
    and sometimes a zero gamma, with sometimes a nu pair of the same kind
    for the inner runs, the transfer-operator table, the scalar and the
    matricial continued fractions and the word-by-word evaluator give the
    same integer numerators through order 5, every order its depth-2 map
    serves."""
    tree = OmegaTree(2, members)
    j1, j2 = _draw_pair(data)
    nu = _draw_pair(data) if data.draw(st.booleans()) else None
    cm = product_type_map(tree, j1, j2, nu)
    evaluator = StateEvaluator(cm)
    words = [[evaluator.word_numerator(w) for w in words_of_length(2, n)] for n in range(6)]
    assert matricial_map_parts(cm, 5) == words
    assert scalar_branched_parts(cm, 5) == words
    assert moment_parts(cm, 5) == words


# every stored beta and gamma distinct across the four marginals, so a rule
# that read one coefficient in place of another would change a numerator
DISTINCT_MU = (
    JacobiData(beta=(F(1, 2), F(-1, 3), F(1, 4)), gamma=(F(1), F(2, 3), F(3, 5))),
    JacobiData(beta=(F(-1, 2), F(2, 5), F(1, 3)), gamma=(F(3, 2), F(4, 7), F(5, 7))),
)
DISTINCT_NU = (
    JacobiData(beta=(F(1, 5), F(-2, 7), F(5, 2)), gamma=(F(4, 5), F(7, 3), F(9, 4))),
    JacobiData(beta=(F(-3, 5), F(1, 6), F(2, 9)), gamma=(F(5, 4), F(2, 11), F(8, 3))),
)
RELATION_ROUTES = {
    "moment_parts": moment_parts,
    "scalar_branched_parts": scalar_branched_parts,
    "matricial_map_parts": matricial_map_parts,
}


def _swap_letters(word):
    return tuple(3 - letter for letter in word)


@pytest.mark.parametrize("nu", [None, DISTINCT_NU], ids=["mu-pair", "nu-pair"])
@pytest.mark.parametrize("route", sorted(RELATION_ROUTES))
def test_reversal_and_letter_swap_on_valid_trees(route, nu):
    """Two relations every product-type state satisfies, on each valid tree
    stored to length 3 through order 5, with and without a nu pair:
    reversal, phi(w) = phi(rev w), since each x_i is symmetric under the
    state's form; and letter swap, the numerators of (sigma Omega, mu2, mu1,
    nu2, nu1) at sigma w equal those of (Omega, mu1, mu2, nu1, nu2) at w over
    the same scale, sigma exchanging the letters 1 and 2.  Every route
    reads the same map rules, so only relations like these see a fault in
    them."""
    parts_of = RELATION_ROUTES[route]
    for members in VALID_TREES_3:
        cm = product_type_map(OmegaTree(2, members), *DISTINCT_MU, nu)
        swapped = product_type_map(OmegaTree(2, frozenset(map(_swap_letters, members))),
                                   *DISTINCT_MU[::-1], nu and nu[::-1])
        assert swapped.scale == cm.scale
        parts, swapped_parts = parts_of(cm, 5), parts_of(swapped, 5)
        for n in range(6):
            words = words_of_length(2, n)
            index = {w: k for k, w in enumerate(words)}
            for w, value in zip(words, parts[n]):
                assert parts[n][index[w[::-1]]] == value, ("reversal", sorted(members), w)
                assert swapped_parts[n][index[_swap_letters(w)]] == value, ("swap", sorted(members), w)


# reflection of marginal 1 and dilation of marginal 2 by DILATION
DILATION = F(2, 3)


def _reflect_dilate(pair):
    """(mu1, mu2) with mu1 reflected, beta -> -beta, and mu2 dilated,
    beta -> a beta and gamma -> a^2 gamma with a = DILATION: the laws of
    -x1 and a x2."""
    first, second = pair
    return (
        JacobiData([-b for b in first.beta], first.gamma, first.extend),
        JacobiData([DILATION * b for b in second.beta], [DILATION**2 * g for g in second.gamma],
                   second.extend),
    )


def _reflection_dilation_break(parts, scale, moved, moved_scale):
    """The first word w at which the numerators ``moved`` over
    moved_scale^|w| of the state of x1 -> -x1, x2 -> a x2 break phi'(w) =
    (-1)^(#1 in w) a^(#2 in w) phi(w), phi's numerators being ``parts``
    over scale^|w|, checked in integers across the two scales; or None."""
    assert len(parts) == len(moved)
    for n, (part, moved_part) in enumerate(zip(parts, moved)):
        for w, x, y in zip(words_of_length(2, n), part, moved_part):
            twos = w.count(2)
            factor = (-1) ** (n - twos) * DILATION**twos
            if y * scale**n * factor.denominator != factor.numerator * x * moved_scale**n:
                return w
    return None


@pytest.mark.parametrize("nu", [None, DISTINCT_NU], ids=["mu-pair", "nu-pair"])
@pytest.mark.parametrize("route", sorted(RELATION_ROUTES))
def test_reflection_and_dilation_on_valid_trees(route, nu):
    """The state of (-x1, a x2) is the product-type state of the reflected
    mu1 (and nu1) and the dilated mu2 (and nu2) on the same tree: on each
    valid tree stored to length 3 through order 5, with and without a nu
    pair, its numerators at w are (-1)^(#1 in w) a^(#2 in w) times the
    state's, over a scale of its own."""
    parts_of = RELATION_ROUTES[route]
    for members in VALID_TREES_3:
        tree = OmegaTree(2, members)
        cm = product_type_map(tree, *DISTINCT_MU, nu)
        moved = product_type_map(tree, *_reflect_dilate(DISTINCT_MU), nu and _reflect_dilate(nu))
        broken = _reflection_dilation_break(parts_of(cm, 5), cm.scale, parts_of(moved, 5), moved.scale)
        assert broken is None, (sorted(members), broken)


def _oracle_parts(factory, pairs, order):
    """An oracle's numerators by degree through the order, at the lcm of its
    marginals' scales, and that scale."""
    scale = math.lcm(*(coefficient_scale(data) for pair in pairs for data in pair))
    marginals = pairs[0] if len(pairs) == 1 else (pairs[0][0], pairs[1][0], pairs[0][1], pairs[1][1])
    phi = factory(*marginals, scale=scale)
    return [list(map(phi, words_of_length(2, n))) for n in range(order + 1)], scale


@pytest.mark.parametrize(
    "factory, pairs",
    [*((factory, (DISTINCT_MU,))
       for factory in (free_state, boolean_state, monotone_state, antimonotone_state, tensor_state)),
     (cfree_state, (DISTINCT_MU, DISTINCT_NU))],
    ids=["free", "boolean", "monotone", "antimonotone", "tensor", "cfree"],
)
def test_reflection_and_dilation_on_every_oracle(factory, pairs):
    """Each direct definition obeys the same reflection and dilation rule
    through order 8; the c-free oracle takes cfree_state(mu1, nu1, mu2,
    nu2), both pairs moved alike."""
    parts, scale = _oracle_parts(factory, pairs, 8)
    moved, moved_scale = _oracle_parts(factory, [_reflect_dilate(pair) for pair in pairs], 8)
    assert _reflection_dilation_break(parts, scale, moved, moved_scale) is None


VALID_TREES_4 = enumerate_valid_trees(4)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.sampled_from(VALID_TREES_4), st.data())
def test_gram_and_mops_on_valid_trees(members, data):
    """On a valid tree stored to length 4 and Jacobi data with signed betas
    and sometimes a zero gamma, the P_u through length 3, the depth of the
    map, are orthogonal, ||P_u||^2 is the product of the C's (the map's
    norm_squared), the monomials orthogonalize to a monic family, and each
    Q_u differs from P_u by a polynomial of norm 0."""
    tree = OmegaTree(3, members)
    j1, j2 = _draw_pair(data)
    cm = product_type_map(tree, j1, j2)
    gram = gram_matrix(cm, 3)
    assert gram.is_diagonal()
    assert gram.diagonal() == {u: cm.norm_squared(u) for u in gram.words}
    phi = dict(moment_table(cm, 6)).__getitem__
    result = gram_schmidt_mops(phi, 3)
    assert result.is_mops
    for u, q in result.polynomials.items():
        difference = q - recursion_basis(cm, u)
        assert functional_inner(phi, difference, difference) == 0, u


def test_moment_parts_edges():
    cm = product_type_map(builder("free", 3), GENERIC_J1, GENERIC_J2)
    assert moment_parts(cm, 0) == [[1]]
    assert len(moment_parts(cm, 7)) == 8
    with pytest.raises(DepthExhaustedError, match="C query at depth 4 exceeds map depth 3"):
        moment_parts(cm, 8)
    with pytest.raises(ValueError):
        moment_parts(cm, -1)
