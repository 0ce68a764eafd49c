"""Continued-fraction engines against moments and against each other."""

from fractions import Fraction

import pytest

from conftest import GENERIC_J1, GENERIC_J2, random_pair
from reference_kernels import block_extract, fraction_classical_cf
from ncprod import (
    BUILTIN_OMEGAS,
    JacobiData,
    MatricialData,
    StateEvaluator,
    builder,
    cfree_map,
    classical_cf,
    matricial_cf,
    matricial_from_map,
    moment,
    preset,
    product_type_map,
    render_branched_cf,
    scalar_branched_cf,
)
from ncprod.ncpoly import NCSeries
from ncprod.words import words_up_to
from ncprod.oracle import cfree_state, free_state

F = Fraction

SEMI = preset("semicircle")


def test_classical_semicircle():
    series = classical_cf(SEMI, 6)
    assert series.terms == {(): 1, (1, 1): 1, (1, 1, 1, 1): 2, (1,) * 6: 5}


def test_classical_point_mass_geometric():
    c = F(3)
    series = classical_cf(preset("point-mass", c=c), 3)
    assert series.terms == {(): 1, (1,): 3, (1, 1): 9, (1, 1, 1): 27}


def test_classical_order_zero():
    assert classical_cf(GENERIC_J1, 0) == NCSeries.one(1, 0)


@pytest.mark.parametrize("seed", range(4))
def test_classical_matches_moments(seed):
    j, _ = random_pair(seed)
    series = classical_cf(j, 10)
    for n in range(11):
        assert series.coefficient((1,) * n) == moment(j, n)


def test_classical_finite_support():
    j = preset("bernoulli", p=F(1, 4), a=F(2), b=F(-1))
    series = classical_cf(j, 8)
    for n in range(9):
        assert series.coefficient((1,) * n) == moment(j, n)


@pytest.mark.parametrize(
    "data",
    [GENERIC_J1, SEMI, preset("point-mass", c=F(-2, 3)),
     JacobiData(beta=(F(1, 2), F(-1, 3)), gamma=(F(2, 5),), extend="zero")],
    ids=["generic", "semicircle", "point-mass", "finite-zero"],
)
def test_classical_is_the_scalar_engine_on_a_chain(data):
    """classical_cf runs the scalar engine on the one-letter chain map; it
    must equal the chain's own level-by-level recursion."""
    for order in range(12):
        assert classical_cf(data, order) == fraction_classical_cf(data, order), order


def test_scalar_branched_boolean_semicircle():
    cm = product_type_map(builder("boolean", 6), SEMI, SEMI)
    series = scalar_branched_cf(cm, 4)
    assert series.coefficient((1, 1)) == 1
    assert series.coefficient((1, 2, 1, 2)) == 0
    assert series.coefficient((1, 1, 2, 2)) == 1


def test_scalar_branched_free_semicircle():
    cm = product_type_map(builder("free", 6), SEMI, SEMI)
    assert scalar_branched_cf(cm, 4).coefficient((1, 2, 2, 1)) == 1


def test_scalar_branched_order_zero():
    cm = product_type_map(builder("monotone", 4), GENERIC_J1, GENERIC_J2)
    assert scalar_branched_cf(cm, 0) == NCSeries.one(2, 0)


@pytest.mark.parametrize("name", BUILTIN_OMEGAS)
def test_scalar_branched_equals_state(name):
    j1, j2 = random_pair(11)
    cm = product_type_map(builder(name, 6), j1, j2)
    series = scalar_branched_cf(cm, 6)
    evaluator = StateEvaluator(cm)
    for w in words_up_to(2, 6):
        assert series.coefficient(w) == evaluator.word_moment(w), w


def test_cfree_cf_matches_two_pair_oracle():
    nu1, nu2 = random_pair(23)
    cm = cfree_map(GENERIC_J1, nu1, GENERIC_J2, nu2, 6)
    series = scalar_branched_cf(cm, 6)
    phi = cfree_state(GENERIC_J1, nu1, GENERIC_J2, nu2)
    for w in words_up_to(2, 6):
        assert series.coefficient(w) == phi(w), w


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
    j = GENERIC_J1
    levels = 5
    # d = 1: every level is a 1 x 1 matrix
    t = tuple(([[j.beta_at(k)]],) for k in range(levels + 1))
    c = tuple([[j.gamma_at(k)]] for k in range(1, levels + 1))
    md = MatricialData(d=1, t=t, c=c)
    series = matricial_cf(md, 10)
    classical = classical_cf(j, 10)
    assert series.terms == classical.terms


def _diag(values):
    n = len(values)
    return [[values[r] if r == s else F(0) for s in range(n)] for r in range(n)]


@pytest.mark.parametrize("name", BUILTIN_OMEGAS)
def test_matricial_diagonal_equals_scalar(name):
    cm = product_type_map(builder(name, 6), GENERIC_J1, GENERIC_J2)
    md = matricial_from_map(cm, 3)
    assert matricial_cf(md, 6).terms == scalar_branched_cf(cm, 6).terms


def test_matricial_validation():
    with pytest.raises(ValueError, match="diagonal"):
        MatricialData(d=2, t=(([[F(0)]], [[F(0)]]), (_diag([0, 0]), _diag([0, 0]))), c=([[F(0), F(1)], [F(0), F(0)]],))
    with pytest.raises(ValueError, match="negative"):
        MatricialData(d=2, t=(([[F(0)]], [[F(0)]]), (_diag([0, 0]), _diag([0, 0]))), c=(_diag([F(-1), F(0)]),))


def test_matricial_identity_c_is_free_semicircle_pair():
    # T = 0 everywhere, C = identity at every level: the joint moments are
    # those of a free pair of standard semicircles
    d = 2
    levels = 3
    t = tuple(tuple(_diag([F(0)] * d**k) for _ in range(d)) for k in range(levels + 1))
    c = tuple(_diag([F(1)] * d**k) for k in range(1, levels + 1))
    series = matricial_cf(MatricialData(d=d, t=t, c=c), 6)
    phi = free_state(SEMI, SEMI)
    for w in words_up_to(2, 6):
        assert series.coefficient(w) == phi(w), w


def test_matricial_truncates_to_sound_order():
    cm = product_type_map(builder("free", 6), SEMI, SEMI)
    md = matricial_from_map(cm, 2)
    series = matricial_cf(md, 8)
    assert series.order == 4  # 2 * levels


def test_render_branched_cf_boundary_is_bare_term():
    cm = product_type_map(builder("one-branch", 4), GENERIC_J1, GENERIC_J2)
    text = render_branched_cf(cm, 3)
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
    text = render_branched_cf(cm, 1)
    assert text.splitlines()[0] == "(): 1 / ( 1 - 1/2*z1 + 1/2*z2 - 1*z1|z1 -> (1) - 3/2*z2|z2 -> (2) )"
    assert "- -" not in text
