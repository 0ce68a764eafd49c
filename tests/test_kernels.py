"""Exact kernels against their plain references, and what every result holds.

``StateEvaluator`` and the two continued-fraction engines run on integers
over a common denominator, both engines on dense per-degree lists, and the
matricial one inverts each word's denominator degree by degree
(``_series_inverse``); each must equal the plain ``Fraction`` version in
``reference_kernels`` exactly (``fraction_inverse``, ``fraction_expansion``
and the ``fraction_*_cf`` engines read as value tables, the matricial one
on the whole level matrices ``matricial_from_map`` writes out), and the
scalar engine also the transfer operator.
Arithmetic results skip the constructors' checks, so the invariants those
checks gave are asserted here on every operation.  The
CLI's tables are written by hand, the json as the bytes ``json.dumps``
would give and the csv and pretty text as row-by-row formatting would.
"""

import json
import math
import random
from fractions import Fraction

import pytest
from conftest import GENERIC_J1, GENERIC_J2, map_entries, matricial_table, random_pair, scalar_table
from reference_kernels import (
    fraction_expansion,
    fraction_inverse,
    fraction_matricial_cf,
    fraction_scalar_branched_cf,
    full_order_neumann_inverse,
    matricial_from_map,
    truncate,
    value_table,
)

from ncprod import (
    BUILTIN_OMEGAS,
    JacobiData,
    builder,
    jacobi_from_json,
    parse_rational,
    preset,
    q_gaussian_state,
)
from ncprod.cfrac import _series_inverse, matricial_map_parts, scalar_branched_parts
from ncprod.cli import _emit_table
from ncprod.ncpoly import NCPolynomial, _make
from ncprod.prodstate import DepthExhaustedError, StateEvaluator, cfree_map, explicit_map, product_type_map
from ncprod.words import word_values, words_of_length, words_up_to

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


def random_unit_series(rng: random.Random, d: int, order: int) -> NCPolynomial:
    """Constant term 1, a few random terms of degree 1..3 and one of degree
    1..order, so no term lies beyond the order."""
    if not order:
        return NCPolynomial.one(d)
    terms = {**random_terms(rng, d, min(order, 3), rng.randint(0, 5)),
             **random_terms(rng, d, order, 1)}
    return NCPolynomial(d, {(): 1, **terms})


def assert_clean(p: NCPolynomial) -> None:
    """Only nonzero Fraction coefficients, on valid words."""
    for word, coeff in p.terms.items():
        assert type(coeff) is Fraction and coeff != 0, (word, coeff)
        assert type(word) is tuple and all(1 <= letter <= p.d for letter in word), word


def dense_series(d: int, parts: list) -> NCPolynomial:
    """Dense parts over scale 1 as a series."""
    return _make(d, dict(word_values(d, parts, 1)))


def dense_entry(series: NCPolynomial, order: int) -> list:
    """A series as the matricial engine's dense parts through the order."""
    return [[series.terms.get(w, 0) for w in words_of_length(series.d, m)] for m in range(order + 1)]


def dense_inverse_parts(series: NCPolynomial, order: int) -> list:
    """The matricial engine's series inverse through the order."""
    return _series_inverse(dense_entry(series, order), series.d)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_integer_inverse_equals_fraction_loop(d):
    rng = random.Random(500 + d)
    for order in range(9):
        for _ in range(4):
            s = random_unit_series(rng, d, order)
            t = dense_series(d, dense_inverse_parts(s, order))
            assert t == fraction_inverse(s, order)
            assert_clean(t)
            assert truncate(s * t, order) == NCPolynomial.one(d)


def test_inverse_of_an_int_series_stays_int():
    """An int series, which only _make builds, has a dense inverse of int
    coefficients, since the recursion divides nothing, equal to the
    Fraction inverse."""
    rng = random.Random(550)
    for d in (1, 2):
        for order in range(7):
            terms = {w: c.numerator for w, c in random_unit_series(rng, d, order).terms.items()}
            parts = dense_inverse_parts(_make(d, {**terms, (): 1}), order)
            assert all(type(coeff) is int for part in parts for coeff in part)
            assert dense_series(d, parts) == fraction_inverse(NCPolynomial(d, {**terms, (): 1}), order)


def test_integer_inverse_without_positive_degree_terms():
    one = NCPolynomial.one(2)
    assert dense_series(2, dense_inverse_parts(one, 5)) == one
    # a degree may have no terms at all
    s = NCPolynomial(2, {(): 1, (1, 2, 2): F(-3, 4)})
    assert dense_series(2, dense_inverse_parts(s, 6)) == fraction_inverse(s, 6)


@pytest.mark.parametrize("d", [1, 2])
def test_truncated_neumann_equals_full_order(d):
    """The series inverse solves x = 1 + (1 - s) x degree by degree; it must
    equal every Neumann step taken at the full order."""
    rng = random.Random(600 + d)
    for order in range(7):
        for _ in range(4):
            s = random_unit_series(rng, d, order)
            fast = dense_series(d, dense_inverse_parts(s, order))
            assert fast == full_order_neumann_inverse(s, order), (d, order)


def test_dense_inverse_requires_identity_constant_term():
    for series in ([[2], [0, 0]], [[0], [1, 0]], [[-1]]):
        with pytest.raises(ValueError, match="constant term 1"):
            _series_inverse(series, 2)


def test_arithmetic_results_hold_only_clean_terms():
    rng = random.Random(7)
    for d in (1, 2, 3):
        for _ in range(25):
            p = NCPolynomial(d, random_terms(rng, d, 4, 5))
            q = NCPolynomial(d, random_terms(rng, d, 4, 5))
            results = [p + q, p - q, p * q, q * p, -p, p.involution(),
                       p * 2, 2 * p, p + 3, 3 + p, p - 3, 3 - p,
                       p * F(-2, 3), p * 0, p + (-p), p - p]
            for result in results:
                assert_clean(result)
            assert (p * 0).is_zero() and (p - p).is_zero()


def test_int_scalar_results_are_fractions():
    p = NCPolynomial(2, {(1,): 1, (2, 1): F(1, 2)})
    assert (p * 2).terms == {(1,): F(2), (2, 1): F(1)}
    assert (p + 3).terms == {(): F(3), (1,): F(1), (2, 1): F(1, 2)}


def test_public_constructors_keep_their_checks():
    with pytest.raises(ValueError):
        NCPolynomial(2, {(3,): 1})
    with pytest.raises(ValueError):
        NCPolynomial(2, {(0, 1): 1})
    with pytest.raises(ValueError):
        NCPolynomial(0)
    with pytest.raises(ValueError):
        NCPolynomial.monomial((1, 2, 3), 2)


def test_float_coefficients_are_rejected():
    for build in (lambda: NCPolynomial(2, {(1,): 0.1}),
                  lambda: NCPolynomial(2, {(): 1.0}),
                  lambda: NCPolynomial.monomial((1,), 2, 0.5),
                  lambda: JacobiData(beta=(0.1,), gamma=()),
                  lambda: JacobiData(beta=(), gamma=(F(1), 0.5)),
                  lambda: preset("custom", beta=(0.25,), gamma=(1,)),
                  lambda: preset("point-mass", c=0.5),
                  lambda: parse_rational(0.5),
                  lambda: jacobi_from_json({"beta": [0.1], "gamma": ["1"]}),
                  lambda: explicit_map(1, 1, {(1, ()): 0.5}, {}),
                  lambda: q_gaussian_state(0.5)):
        with pytest.raises(ValueError, match="float"):
            build()
    # exact inputs are still read as before
    assert NCPolynomial(2, {(1,): "1/10"}).coefficient((1,)) == F(1, 10)
    assert JacobiData(beta=(F(1, 10), 2), gamma=("3/4",)).beta == (F(1, 10), F(2))


def coprime_explicit_map(seed: int, d: int, depth: int):
    """Random data whose common denominator needs every factor: B over 7 or
    11 with either sign, C over 13, about a quarter of the C entries zero."""
    rng = random.Random(seed)
    words = words_up_to(d, depth)
    b = {(i, u): F(rng.choice((-1, 1)) * rng.randint(1, 4), rng.choice((7, 11)))
         for u in words for i in range(1, d + 1)}
    c = {u: F(rng.choice((0, 1, 2, 3)), 13) for u in words if u}
    cm = explicit_map(d, depth, b, c)
    b_entries, c_entries = map_entries(cm)
    entries = [*b_entries.values(), *c_entries.values()]
    assert math.lcm(*(value.denominator for value in entries)) == 7 * 11 * 13 == cm.scale
    assert any(value < 0 for value in b_entries.values())
    assert 0 < len(c_entries) < len(c)
    return cm


KERNEL_MAPS = {
    **{f"explicit-d{d}-seed{seed}": (lambda d=d, depth=depth, seed=seed:
                                     coprime_explicit_map(700 + seed, d, depth))
       for d, depth in ((1, 8), (2, 5), (3, 3)) for seed in range(3)},
    "c-free": lambda: cfree_map(GENERIC_J1, random_pair(7)[0], GENERIC_J2, random_pair(8)[1], 6),
    **{name: (lambda name=name: product_type_map(builder(name, 6), GENERIC_J1, GENERIC_J2))
       for name in BUILTIN_OMEGAS},
}


@pytest.mark.parametrize("name", sorted(KERNEL_MAPS))
def test_integer_word_moments_equal_fraction_transfer_operator(name):
    """word_moment and the integer expansions it pairs run on the integer map
    over one common denominator; both must equal the full-length Fraction
    transfer operator on every word through depth + 1: [x_w]_u is the
    integer [y_w]_u times D^|u| / D^|w|."""
    cm = KERNEL_MAPS[name]()
    evaluator = StateEvaluator(cm)
    for w in words_up_to(cm.d, cm.depth + 1):
        reference = fraction_expansion(cm, w)
        assert evaluator.word_moment(w) == reference.get((), 0), (name, w)
        integer = evaluator._integer_expansion(w)
        assert all(type(coeff) is int for coeff in integer.values())
        scaled = {u: F(coeff * cm.scale ** len(u), cm.scale ** len(w)) for u, coeff in integer.items()}
        assert scaled == reference, (name, w)


@pytest.mark.parametrize("name", sorted(KERNEL_MAPS))
def test_integer_scalar_cf_equals_fraction_engine(name):
    """scalar_branched_parts runs on the map's integer view; its table must
    equal the same recursion on Fraction series at every order up to a
    bound: every order the map reaches for one letter, fewer for two and
    three."""
    cm = KERNEL_MAPS[name]()
    top = {1: 2 * cm.depth + 1, 2: 9, 3: 6}[cm.d]
    for order in range(top + 1):
        table = scalar_table(cm, order)
        assert table == value_table(fraction_scalar_branched_cf(cm, order), order), (name, order)
        assert all(type(value) is Fraction for _, value in table)


@pytest.mark.parametrize("name,order", [("free", 13), ("one-branch", 12)])
def test_dense_scalar_numerators_equal_transfer_operator(name, order):
    """The dense graded engine and the transfer operator are independent
    routes to D^|w| phi(w); on the benchmark's largest continued-fraction
    cases they agree on every word."""
    cm = product_type_map(builder(name, order), GENERIC_J1, GENERIC_J2)
    numerators = word_values(cm.d, scalar_branched_parts(cm, order), 1)
    evaluator = StateEvaluator(cm)
    for w, numerator in numerators:
        assert numerator == evaluator.word_numerator(w), (name, w)


def sparse_explicit_map(seed: int):
    """Random data on d = 1, 2 or 3 letters with about a third of the B and
    C entries zero: B signed over 5, 7 or 9, C over 4 or 11."""
    rng = random.Random(seed)
    d = 1 + seed % 3
    depth = {1: 8, 2: 4, 3: 2}[d]
    words = words_up_to(d, depth)
    b = {(i, u): 0 if rng.random() < 1 / 3 else F(rng.choice((-1, 1)) * rng.randint(1, 6), rng.choice((5, 7, 9)))
         for u in words for i in range(1, d + 1)}
    c = {u: 0 if rng.random() < 1 / 3 else F(rng.randint(1, 5), rng.choice((4, 11))) for u in words if u}
    return explicit_map(d, depth, b, c)


@pytest.mark.parametrize("seed", range(20))
def test_dense_scalar_numerators_equal_fraction_engine(seed):
    """Every order the map reaches, 2 depth + 1: the integer numerators are
    the Fraction recursion's coefficients times D^|w|, with sparse branches
    and both the contiguous and the strided slice updates in play."""
    cm = sparse_explicit_map(900 + seed)
    order = 2 * cm.depth + 1
    parts = scalar_branched_parts(cm, order)
    reference = value_table(fraction_scalar_branched_cf(cm, order), order)
    assert [len(part) for part in parts] == [cm.d**m for m in range(order + 1)]
    assert all(type(value) is int for part in parts for value in part)
    assert list(word_values(cm.d, parts, 1)) == [(w, value * cm.scale ** len(w)) for w, value in reference]


@pytest.mark.parametrize("d", [1, 2])
def test_integer_matricial_cf_equals_fraction_engine(d):
    """matricial_map_parts runs on the map's integer view; on random data of
    d letters whose common denominator needs every factor, with signed B
    and some zero C, its table must equal the Fraction series-matrix
    recursion's on the level matrices of the map: through 2 depth, the
    highest order whose levels the map holds, for one letter, through 7 for
    two."""
    for seed in range(3):
        cm = KERNEL_MAPS[f"explicit-d{d}-seed{seed}"]()
        for order in range({1: 2 * cm.depth, 2: 7}[d] + 1):
            reference = fraction_matricial_cf(matricial_from_map(cm, (order + 1) // 2), order)
            assert matricial_table(cm, order) == value_table(reference, order), (d, seed, order)


MATRICIAL_MAPS = {
    "c-free": lambda: cfree_map(GENERIC_J1, random_pair(7)[0], GENERIC_J2, random_pair(8)[1], 10),
    **{name: (lambda name=name: product_type_map(builder(name, 10), GENERIC_J1, GENERIC_J2))
       for name in BUILTIN_OMEGAS},
}


@pytest.mark.parametrize("name", ["free", "boolean", "one-branch"])
def test_matricial_parts_of_product_maps_equal_both_references(name):
    """On a product-type map the dense matricial engine must give, at every
    order through 10, the Fraction series-matrix recursion's coefficients and
    the scalar engine's numerators, each times D^|w|; the recursion runs on
    five levels at every order, so levels an order does not read must not
    change its table."""
    cm = MATRICIAL_MAPS[name]()
    md = matricial_from_map(cm, 5)
    for order in range(11):
        parts = matricial_map_parts(cm, order)
        assert [len(part) for part in parts] == [2**m for m in range(order + 1)]
        assert parts == scalar_branched_parts(cm, order), (name, order)
        reference = value_table(fraction_matricial_cf(md, order), order)
        assert list(word_values(2, parts, cm.scale)) == reference, (name, order)


@pytest.mark.parametrize("name", sorted(MATRICIAL_MAPS))
def test_map_fed_matricial_parts_equal_matricial_data_route(name):
    """The matricial engine reads the diagonal T' and C' straight from the
    map's integer view and keeps one series per word; at every order
    through 10 its parts must be the coefficients of the Fraction
    series-matrix recursion on the whole level matrices matricial_from_map
    writes out, on the (order + 1) // 2 levels an order reads, times D^|w|."""
    cm = MATRICIAL_MAPS[name]()
    for order in range(11):
        parts = matricial_map_parts(cm, order)
        assert [len(part) for part in parts] == [2**m for m in range(order + 1)]
        reference = value_table(fraction_matricial_cf(matricial_from_map(cm, (order + 1) // 2), order), order)
        assert list(word_values(2, parts, cm.scale)) == reference, (name, order)
    # a map of depth 10 serves through order 21; order 22 reads C at depth 11
    with pytest.raises(DepthExhaustedError, match="C query at depth 11 exceeds map depth 10"):
        matricial_map_parts(cm, 22)


def graded_tables():
    """(d, parts, scale) tables: d = 1, 2, 3, orders 0 to 4, ints over 1 and
    420, with zero, negative, unreduced and big values; then one numerator
    in two degrees, which prints differently over 420 and 420^2, and a
    degree whose values are all equal."""
    rng = random.Random(1100)
    big = 3**90 * 7**11
    for d in (1, 2, 3):
        for order in range(5):
            for scale in (1, 420):
                parts = [
                    [rng.choice((0, 1, -1, 420**m, -(2 * 420**m), rng.randint(-999, 999),
                                 rng.choice((1, -1)) * big)) for _ in range(d**m)]
                    for m in range(order + 1)
                ]
                yield d, parts, scale
    yield 2, [[6], [6, 35], [6, 6, 35, 420]], 420
    yield 3, [[1], [-7] * 3, [-7] * 9], 420


def table_rows(d: int, parts, scale: int):
    """(word, value text) row by row: str(Fraction(n, scale^m))."""
    for m, part in enumerate(parts):
        for w, n in zip(words_of_length(d, m), part):
            yield w, str(F(n, scale**m))


def test_json_rows_are_the_bytes_of_json_dumps(capsys):
    for d, parts, scale in graded_tables():
        _emit_table(parts, d, "json", scale)
        payload = [{"word": list(w), "value": v} for w, v in table_rows(d, parts, scale)]
        assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n", (d, parts, scale)


def test_table_of_more_than_nine_letters_is_refused(capsys):
    """Each degree's rows share one key-to-value text only while every
    letter prints as one digit; a tenth letter is refused, not misaligned."""
    with pytest.raises(ValueError, match="at most 9 letters"):
        _emit_table([[1], [1] * 10], 10, "pretty", 1)
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("fmt", ["csv", "pretty"])
def test_table_rows_are_the_row_by_row_format(capsys, fmt):
    """csv is a header and one "key,value" line per word; pretty pads every
    key (() for the empty word) to the longest key's length plus 2."""
    for d, parts, scale in graded_tables():
        _emit_table(parts, d, fmt, scale)
        rows = [(".".join(map(str, w)), v) for w, v in table_rows(d, parts, scale)]
        if fmt == "csv":
            lines = ["word,value"] + [f"{key},{v}" for key, v in rows]
        else:
            width = max(len(key) for key, _ in rows)
            lines = [f"{key or '()':<{width + 2}} {v}" for key, v in rows]
        assert capsys.readouterr().out == "\n".join(lines) + "\n", (d, parts, scale)
