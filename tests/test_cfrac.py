"""Continued-fraction engines against moments and against each other.

Each engine hands out dense integer parts, as ``moment_parts`` does; read
through ``word_values`` they give one (word, value) pair per word through
the order, in graded-lex order, zeros included, so two routes agree when
their lists are equal."""

from fractions import Fraction

import pytest

from conftest import GENERIC_J1, GENERIC_J2, matricial_table, random_pair, scalar_table
from reference_kernels import block_extract, fraction_classical_cf, value_table
from ncprod import (
    BUILTIN_OMEGAS,
    JacobiData,
    StateEvaluator,
    builder,
    cfree_map,
    preset,
    product_type_map,
    render_branched_cf,
)
from ncprod.cfrac import chain_map, scalar_branched_parts
from ncprod.jacobi import MomentSequence
from ncprod.words import words_up_to
from ncprod.oracle import cfree_state, free_state

F = Fraction

SEMI = preset("semicircle")


def chain_table(values):
    """The value table of one letter: values[n] at the word 1^n."""
    return [((1,) * n, F(value)) for n, value in enumerate(values)]


def classical_table(data, order):
    """The one-variable moments m_0..m_order as the table of the word 1^n:
    the scalar engine on the chain map."""
    return scalar_table(chain_map(data, order), order)


def test_classical_semicircle():
    assert classical_table(SEMI, 6) == chain_table([1, 0, 1, 0, 2, 0, 5])


def test_classical_point_mass_geometric():
    assert classical_table(preset("point-mass", c=F(3)), 3) == chain_table([1, 3, 9, 27])


def test_classical_order_zero():
    assert classical_table(GENERIC_J1, 0) == [((), 1)]


@pytest.mark.parametrize("seed", range(4))
def test_classical_matches_moments(seed):
    j, _ = random_pair(seed)
    moments = MomentSequence(j)
    assert classical_table(j, 10) == chain_table(moments[n] for n in range(11))


def test_classical_finite_support():
    j = preset("bernoulli", p=F(1, 4), a=F(2), b=F(-1))
    moments = MomentSequence(j)
    assert classical_table(j, 8) == chain_table(moments[n] for n in range(9))


@pytest.mark.parametrize(
    "data",
    [GENERIC_J1, SEMI, preset("point-mass", c=F(-2, 3)),
     JacobiData(beta=(F(1, 2), F(-1, 3)), gamma=(F(2, 5),), extend="zero")],
    ids=["generic", "semicircle", "point-mass", "finite-zero"],
)
def test_classical_is_the_scalar_engine_on_a_chain(data):
    """The scalar engine on the one-letter chain map must equal the chain's
    own level-by-level recursion."""
    for order in range(12):
        assert classical_table(data, order) == value_table(fraction_classical_cf(data, order), order), order


def test_scalar_branched_boolean_semicircle():
    cm = product_type_map(builder("boolean", 6), SEMI, SEMI)
    values = dict(scalar_table(cm, 4))
    assert values[(1, 1)] == 1
    assert values[(1, 2, 1, 2)] == 0
    assert values[(1, 1, 2, 2)] == 1


def test_scalar_branched_free_semicircle():
    cm = product_type_map(builder("free", 6), SEMI, SEMI)
    assert dict(scalar_table(cm, 4))[(1, 2, 2, 1)] == 1


def test_scalar_branched_order_zero():
    cm = product_type_map(builder("monotone", 4), GENERIC_J1, GENERIC_J2)
    assert scalar_table(cm, 0) == [((), 1)]


@pytest.mark.parametrize("name", BUILTIN_OMEGAS)
def test_scalar_branched_equals_state(name):
    j1, j2 = random_pair(11)
    cm = product_type_map(builder(name, 6), j1, j2)
    evaluator = StateEvaluator(cm)
    assert scalar_table(cm, 6) == [(w, evaluator.word_moment(w)) for w in words_up_to(2, 6)]


def test_cfree_cf_matches_two_pair_oracle():
    nu1, nu2 = random_pair(23)
    cm = cfree_map(GENERIC_J1, nu1, GENERIC_J2, nu2, 6)
    phi = cfree_state(GENERIC_J1, nu1, GENERIC_J2, nu2)
    assert scalar_table(cm, 6) == [(w, phi(w)) for w in words_up_to(2, 6)]


def test_block_extract_four_by_four():
    matrix = [[10 * r + s for s in range(1, 5)] for r in range(1, 5)]
    # rows 1-2, columns 3-4
    assert block_extract(matrix, 1, 2, 2) == [[13, 14], [23, 24]]
    assert block_extract(matrix, 2, 1, 2) == [[31, 32], [41, 42]]


def test_block_extract_two_by_two_is_entry():
    matrix = [[F(1), F(2)], [F(3), F(4)]]
    assert block_extract(matrix, 1, 2, 2) == [[F(2)]]
    assert block_extract(matrix, 2, 1, 2) == [[F(3)]]


def test_block_extract_identity():
    eye = [[F(r == s) for s in range(4)] for r in range(4)]
    assert block_extract(eye, 1, 1, 2) == [[1, 0], [0, 1]]
    assert block_extract(eye, 1, 2, 2) == [[0, 0], [0, 0]]


def test_block_extract_dimension_mismatch():
    with pytest.raises(ValueError):
        block_extract([[F(1), F(2), F(3)]] * 3, 1, 1, 2)


def test_matricial_one_letter_reduces_to_classical():
    # d = 1: every level is one entry, the classical fraction's
    j = GENERIC_J1
    assert matricial_table(chain_map(j, 10), 10) == classical_table(j, 10)


@pytest.mark.parametrize("name", BUILTIN_OMEGAS)
def test_matricial_diagonal_equals_scalar(name):
    cm = product_type_map(builder(name, 6), GENERIC_J1, GENERIC_J2)
    assert matricial_table(cm, 6) == scalar_table(cm, 6)


def test_matricial_identity_c_is_free_semicircle_pair():
    # the free map of two standard semicircles has T = 0 and C = identity at
    # every level: the joint moments are those of a free semicircle pair
    cm = product_type_map(builder("free", 6), SEMI, SEMI)
    phi = free_state(SEMI, SEMI)
    assert matricial_table(cm, 6) == [(w, phi(w)) for w in words_up_to(2, 6)]


def test_render_branched_cf_boundary_is_bare_term():
    cm = product_type_map(builder("one-branch", 4), GENERIC_J1, GENERIC_J2)
    text = render_branched_cf(cm, 4)
    node_one = next(line for line in text.splitlines() if line.strip().startswith("(1):"))
    # the boundary child (2, 1) contributes only its stay term at node (1):
    # a bare z2 coefficient, no sub-fraction in the letter-2 direction
    assert "*z2 " in node_one
    assert "z2|z2" not in node_one
    assert "z1|z1" in node_one  # the letter-1 branch continues
    assert text.splitlines()[0].startswith("():")


def test_render_branched_cf_signs_each_b_term_once():
    """A node's denominator 1 - B z writes a negative B as "+ |B|", never
    as "- -|B|"; C is nonnegative and keeps its "-"."""
    cm = product_type_map(builder("free", 2), GENERIC_J1, GENERIC_J2)
    text = render_branched_cf(cm, 2)
    assert text.splitlines()[0] == "(): 1 / ( 1 - 1/2*z1 + 1/2*z2 - 1*z1|z1 -> (1) - 3/2*z2|z2 -> (2) )"
    assert "- -" not in text


def _fresh_maps(order):
    """Fresh maps of depth ``order`` (at least 1), the ones the CLI builds:
    the five built-in trees and the two-pair map."""
    depth = max(order, 1)
    maps = [product_type_map(builder(name, depth), GENERIC_J1, GENERIC_J2) for name in BUILTIN_OMEGAS]
    return maps + [cfree_map(GENERIC_J1, GENERIC_J2, GENERIC_J2, GENERIC_J1, depth)]


@pytest.mark.parametrize("order", range(11))
def test_render_branched_cf_reads_what_the_scalar_engine_reads(order):
    """The pretty rendering draws the fraction that scalar_branched_parts
    solves through the same order, so on a fresh map each reads the same B
    and C entries: the rendering reads nothing its table does not."""
    for rendered, solved in zip(_fresh_maps(order), _fresh_maps(order)):
        render_branched_cf(rendered, order)
        scalar_branched_parts(solved, order)
        assert rendered._b.keys() == solved._b.keys()
        assert rendered._c.keys() == solved._c.keys()


def test_render_branched_cf_budget_zero_node_is_one():
    """A node of budget 0 shows neither B terms nor branches."""
    cm = product_type_map(builder("free", 1), GENERIC_J1, GENERIC_J2)
    assert render_branched_cf(cm, 0) == "(): 1 / ( 1 )"
    assert render_branched_cf(cm, 1) == "(): 1 / ( 1 - 1/2*z1 + 1/2*z2 )"
    assert render_branched_cf(cm, 2).splitlines()[1:] == ["  (1): 1 / ( 1 )", "  (2): 1 / ( 1 )"]
