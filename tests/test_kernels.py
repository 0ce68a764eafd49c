"""Exact kernels against their plain references, and what every result holds.

``NCSeries.inverse``, ``StateEvaluator`` and the two continued-fraction
engines run on integers over a common denominator, both engines on dense
per-degree lists, and the matricial one inverts each level's matrix degree
by degree; each must equal the plain ``Fraction`` version in
``reference_kernels`` exactly, and the scalar engine also the transfer
operator.  Arithmetic results skip the constructors' checks, so the
invariants those checks gave are asserted here on every operation.  The
CLI's tables are written by hand, the json as the bytes ``json.dumps``
would give and the csv and pretty text as row-by-row formatting would.
"""

import json
import math
import random
from fractions import Fraction

import pytest
from conftest import GENERIC_J1, GENERIC_J2, map_entries, random_pair
from reference_kernels import (
    fraction_expansion,
    fraction_inverse,
    fraction_matricial_cf,
    fraction_scalar_branched_cf,
    full_order_neumann_inverse,
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
from ncprod.cfrac import (
    MatricialData,
    _dense_inverse,
    _series,
    matricial_cf,
    matricial_from_map,
    matricial_map_parts,
    matricial_parts,
    scalar_branched_cf,
    scalar_branched_parts,
)
from ncprod.cli import _emit_table
from ncprod.ncpoly import NCPolynomial, NCSeries, _make
from ncprod.prodstate import StateEvaluator, cfree_map, explicit_map, product_type_map
from ncprod.words import words_of_length, words_up_to

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


def test_inverse_of_an_int_series_stays_int():
    """The engines' int series come from _make; their inverse keeps int
    coefficients and equals the Fraction inverse."""
    rng = random.Random(550)
    for d in (1, 2):
        for order in range(7):
            terms = {w: c.numerator for w, c in random_unit_series(rng, d, order).terms.items()}
            t = _make(d, order, {**terms, (): 1}).inverse()
            assert all(type(coeff) is int for coeff in t.terms.values())
            assert t == fraction_inverse(NCSeries(d, order, {**terms, (): 1}))


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


def dense_entry(series: NCSeries) -> list:
    """A series as the matricial engine's dense parts, None for a zero degree."""
    parts = [[series.terms.get(w, 0) for w in words_of_length(series.d, m)]
             for m in range(series.order + 1)]
    return [part if any(part) else None for part in parts]


@pytest.mark.parametrize("n", [1, 2, 4])
def test_truncated_neumann_equals_full_order(n):
    """The dense inverse solves X = 1 + (1 - M) X degree by degree; it must
    equal every Neumann step taken at the full order."""
    rng = random.Random(600 + n)
    for d in (1, 2):
        for order in range(7):
            mat = random_series_matrix(rng, n, d, order)
            dense = {(r, s): dense_entry(mat[r][s]) for r in range(n) for s in range(n)
                     if mat[r][s].terms}
            fast = _dense_inverse(dense, n, d, order)
            slow = full_order_neumann_inverse(mat, order)
            for r in range(n):
                for s in range(n):
                    entry = _series(d, fast.get((r, s), [None] * (order + 1)))
                    assert entry == slow[r][s], (d, order, r, s)
                    assert entry.order == order


def test_dense_inverse_requires_identity_constant_term():
    one, two = [[1], None], [[2], None]
    for matrix in ({(0, 0): one}, {(0, 0): two, (1, 1): one}, {(0, 0): one, (0, 1): one, (1, 1): one}):
        with pytest.raises(ValueError, match="identity constant term"):
            _dense_inverse(matrix, 2, 2, 1)


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
                  lambda: parse_rational(0.5),
                  lambda: jacobi_from_json({"beta": [0.1], "gamma": ["1"]}),
                  lambda: explicit_map(1, 1, {(1, ()): 0.5}, {}),
                  lambda: q_gaussian_state(0.5),
                  lambda: MatricialData(d=1, t=((((0.5,),),),), c=())):
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
    """word_moment and expansion run on the integer map over one common
    denominator; both must equal the full-length Fraction transfer operator
    on every word through depth + 1."""
    cm = KERNEL_MAPS[name]()
    evaluator = StateEvaluator(cm)
    for w in words_up_to(cm.d, cm.depth + 1):
        reference = fraction_expansion(cm, w)
        assert evaluator.word_moment(w) == reference.get((), 0), (name, w)
        expansion = evaluator.expansion(w)
        assert expansion == reference, (name, w)
        assert all(type(coeff) is Fraction for coeff in expansion.values())


@pytest.mark.parametrize("name", sorted(KERNEL_MAPS))
def test_integer_scalar_cf_equals_fraction_engine(name):
    """scalar_branched_cf runs on the map's integer view; it must equal the
    same recursion on Fraction series at every order up to a bound: every
    order the map reaches for one letter, fewer for two and three."""
    cm = KERNEL_MAPS[name]()
    top = {1: 2 * cm.depth + 1, 2: 9, 3: 6}[cm.d]
    for order in range(top + 1):
        series = scalar_branched_cf(cm, order)
        assert series == fraction_scalar_branched_cf(cm, order), (name, order)
        assert series.order == order
        assert_clean(series)


@pytest.mark.parametrize("name,order", [("free", 13), ("one-branch", 12)])
def test_dense_scalar_numerators_equal_transfer_operator(name, order):
    """The dense graded engine and the transfer operator are independent
    routes to D^|w| phi(w); on the benchmark's largest continued-fraction
    cases they agree on every word."""
    cm = product_type_map(builder(name, order), GENERIC_J1, GENERIC_J2)
    terms = _series(cm.d, scalar_branched_parts(cm, order)).terms
    evaluator = StateEvaluator(cm)
    for w in words_up_to(2, order):
        assert terms.get(w, 0) == evaluator.word_numerator(w), (name, w)


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
    series = _series(cm.d, scalar_branched_parts(cm, order))
    reference = fraction_scalar_branched_cf(cm, order)
    assert (series.d, series.order) == (cm.d, order)
    assert all(type(value) is int for value in series.terms.values())
    assert series.terms == {w: value * cm.scale ** len(w) for w, value in reference.terms.items()}


def random_matricial_data(rng: random.Random, d: int, levels: int) -> MatricialData:
    """T entries over 7 or 11 with either sign, off the diagonal too, about
    a third of them zero; diagonal C over 13, about a quarter zero."""
    def t_entry():
        if rng.random() < 1 / 3:
            return F(0)
        return F(rng.choice((-1, 1)) * rng.randint(1, 4), rng.choice((7, 11)))

    t, c = [], []
    for k in range(levels + 1):
        n = d**k
        t.append([[[t_entry() for _ in range(n)] for _ in range(n)] for _ in range(d)])
        if k:
            c.append([[F(rng.choice((0, 1, 2, 3)), 13) if r == s else F(0) for s in range(n)]
                      for r in range(n)])
    return MatricialData(d=d, t=t, c=c)


@pytest.mark.parametrize("d", [1, 2])
def test_integer_matricial_cf_equals_fraction_engine(d):
    """matricial_cf takes its common denominator from the data, whose T need
    not be diagonal; it must equal the Fraction series-matrix recursion."""
    rng = random.Random(800 + d)
    for levels in range(1, 4 if d == 1 else 3):
        for _ in range(3):
            md = random_matricial_data(rng, d, levels)
            if d > 1:
                assert any(value and r != s for level in md.t for m in level
                           for r, row in enumerate(m) for s, value in enumerate(row))
            for order in range(2 * levels + 2):
                series = matricial_cf(md, order)
                assert series == fraction_matricial_cf(md, order), (d, levels, order)
                assert_clean(series)


@pytest.mark.parametrize("name", ["free", "boolean", "one-branch"])
def test_matricial_parts_of_product_maps_equal_both_references(name):
    """On a product-type map the dense matricial engine must give, at every
    order through 10, the Fraction series-matrix recursion's coefficients and
    the scalar engine's numerators, each times D^|w|."""
    cm = product_type_map(builder(name, 10), GENERIC_J1, GENERIC_J2)
    md = matricial_from_map(cm, 5)
    for order in range(11):
        parts, scale = matricial_parts(md, order)
        assert scale == cm.scale
        assert [len(part) for part in parts] == [2**m for m in range(order + 1)]
        numerators = _series(2, parts)
        assert numerators == _series(2, scalar_branched_parts(cm, order)), (name, order)
        assert _series(2, parts, scale) == fraction_matricial_cf(md, order), (name, order)


@pytest.mark.parametrize("name", BUILTIN_OMEGAS)
def test_map_fed_matricial_parts_equal_matricial_data_route(name):
    """The CLI's matricial route reads the diagonal T' and C' straight from
    the map's integer view; through the same level loop it must give the
    series of the Fraction matrices matricial_from_map builds, at every
    order through 10."""
    cm = product_type_map(builder(name, 10), GENERIC_J1, GENERIC_J2)
    md = matricial_from_map(cm, 5)
    for order in range(11):
        parts, scale = matricial_map_parts(cm, 5, order)
        assert scale == cm.scale
        assert _series(2, parts, scale) == _series(2, *matricial_parts(md, order)), (name, order)
    with pytest.raises(ValueError):
        matricial_map_parts(cm, 11, 4)


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
