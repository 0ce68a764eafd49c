"""Continued-fraction engines for moment generating functions.

Three engines, all producing truncated non-commutative power series whose
coefficient at a word w is the state applied to the monomial x_w:

* ``classical_cf``: the one-variable chain 1 / (1 - beta_0 z - gamma_1 z^2 /
  (1 - beta_1 z - ...)), which is the scalar engine on the one-letter chain
  map (:func:`chain_map`).
* ``scalar_branched_cf``: the branched version over a coefficient map; the
  node at word u contributes denominator 1 - sum_i B(i, u) z_i -
  sum_j C(j, u) z_j F_(j,u) z_j, with F_u the inverse of that denominator
  and the full series being F at the root.
* ``matricial_cf``: the block version where level k carries d^k x d^k
  coefficient matrices; the numerator of each sub-fraction is the matrix
  sandwich sum_{j,l} z_j block_{j,l}(C^(k+1) D^{-1}) z_l with block
  extraction in the new-letter-leftmost tensor ordering.

Evaluation is bottom-up over the depth-truncated tree with the identity at
the frontier.  Each level down costs at least total degree 2 per branch, so
a tree explored while the order budget stays nonnegative yields exact
coefficients up to the requested order.

Both engines run over one common denominator.  Substituting z_i -> D z_i,
with D an integer that clears every coefficient's denominator, turns each
node's denominator into 1 - sum_i (D B) z_i - sum_j (D^2 C) z_j F'_(j,u) z_j,
with integer coefficients only, so every series in the recursion has
integer coefficients and the coefficient of F at a word w is that of F' at
w over D^|w|: one division per output word.  The scalar engine reads D B and
D^2 C from the map's integer view, which reads only the entries the
recursion reaches, and :func:`scalar_branched_parts` hands out its F'
undivided.  The matricial engine takes D from its own data
(:func:`matricial_parts`), or runs one level loop on a map's integer view
(:func:`matricial_map_parts`), whose diagonal T' and C' it reads entry by
entry without building a matrix.

Both keep every series dense and graded: one list of ints per degree m,
holding the d^m words of length m at their base-d values (leftmost letter
most significant), which is ``words_up_to`` order.  A product of two such
series, the sandwich z_j F z_l and a truncation are slice updates of those
lists (:func:`_add_outer`), so the recursions build no word tuple per
coefficient and no dict until the root's coefficients become one series;
:func:`scalar_branched_parts` and :func:`matricial_parts` hand out the
lists themselves.  The scalar engine never forms a node's denominator:
F'_u = 1 + r F'_u is solved degree by degree.  The matricial engine keeps
each level's denominator as a sparse matrix of dense entries and inverts
it column by column, degree by degree (:func:`_dense_inverse`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from .jacobi import JacobiData
from .prodstate import CoefficientMap, explicit_map
from .words import (
    EMPTY_WORD,
    FrozenRecord,
    Word,
    _add_outer,
    clear_denominator,
    common_denominator,
    parse_rational,
    words_of_length,
)

if TYPE_CHECKING:
    from .ncpoly import NCSeries

# a sparse matrix of dense series: (row, column) -> parts by degree, None for a zero degree
DenseMatrix = dict[tuple[int, int], list]


def _series(d: int, parts: Sequence[Sequence | None], scale: int | None = None) -> NCSeries:
    """Dense parts as one series of order len(parts) - 1: entry x of parts[m]
    is the coefficient of the x-th word of length m, over scale^m when a
    scale is given (a Fraction), as it is otherwise; None is a zero degree."""
    from .ncpoly import _make

    terms = {}
    for m, part in enumerate(parts):
        if part:
            power = None if scale is None else scale**m
            for w, g in zip(words_of_length(d, m), part):
                if g:
                    terms[w] = g if power is None else Fraction(g, power)
    return _make(d, len(parts) - 1, terms)


def chain_map(data: JacobiData, order: int) -> CoefficientMap:
    """The one-letter chain map B(1, 1^k) = beta_k, C(1^k) = gamma_k,
    through the depth order // 2 that the order reaches."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    level = order // 2
    return explicit_map(
        1,
        level,
        {(1, (1,) * k): data.beta_at(k) for k in range(level + 1)},
        {(1,) * k: data.gamma_at(k) for k in range(1, level + 1)},
    )


def classical_cf(data: JacobiData, order: int) -> NCSeries:
    """One-variable moment generating function as a truncated series in z:
    the scalar engine on the chain map (:func:`chain_map`)."""
    return scalar_branched_cf(chain_map(data, order), order)


def scalar_branched_cf(cm: CoefficientMap, order: int) -> NCSeries:
    """Branched continued fraction of a diagonal coefficient map.

    Branches follow the nonzero C entries, so for a product-type map the
    recursion runs exactly over the interior of its tree; boundary nodes keep
    only their B terms.  It runs on the map's integer view (see the module
    docstring) and divides once per output word.
    """
    return _series(cm.d, scalar_branched_parts(cm, order), cm.scale)


def scalar_branched_parts(cm: CoefficientMap, order: int) -> list[list[int]]:
    """The integer series F' of :func:`scalar_branched_cf` by degree, before
    its one division per word: parts[m] lists the d^m words of length m in
    graded-lex order, and the entry of w is D^|w| times the state at x_w,
    with D the map's scale, the same integer as
    :meth:`~ncprod.prodstate.StateEvaluator.word_numerator` gives."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    d = cm.d
    scaled = cm.integer
    size = [d**m for m in range(order + 1)]

    def node(u: Word, budget: int) -> list[list[int]]:
        """F'_u by degree: parts[m] lists the coefficients of the d^m words
        of length m, m = 0..budget, in graded-lex order (a word's index is
        its base-d value, leftmost letter most significant).  F'_u = t
        solves t = 1 + r t with r = sum_i B'(i, u) z_i + sum_i C'(iu) z_i
        F'_(iu) z_i, one degree at a time; the words of length m that start
        with letter i form block i of parts[m]."""
        b = [scaled.b(i, u) for i in range(1, d + 1)] if budget >= 1 else [0] * d
        # C'(iu) F'_(iu) by degree, or None where C'(iu) is 0
        branches: list[list[list[int]] | None] = [None] * d
        if budget >= 2:
            for i in range(1, d + 1):
                child = (i,) + u
                cval = scaled.c(child)
                if cval:
                    branches[i - 1] = [[cval * g for g in part] for part in node(child, budget - 2)]
        parts = [[1]]
        for m in range(1, budget + 1):
            prev = parts[m - 1]
            level: list[int] = []
            for i in range(1, d + 1):
                bval = b[i - 1]
                block = [bval * y for y in prev] if bval else [0] * size[m - 1]
                cg = branches[i - 1]
                # z_i G[k] z_i T_(m-2-k) puts the word i a i w at index
                # idx(a) d^(m-1-k) + (i-1) d^(m-2-k) + idx(w) of block i
                for k in range(m - 1 if cg else 0):
                    inner = size[m - 2 - k]
                    _add_outer(block, cg[k], parts[m - 2 - k], inner * d, (i - 1) * inner)
                level += block
            parts.append(level)
        return parts

    return node(EMPTY_WORD, order)


def _as_matrix(rows: Iterable[Iterable[Fraction]]) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(parse_rational(x) for x in row) for row in rows)


class MatricialData(FrozenRecord):
    """Level-indexed recursion matrices: T_i at levels 0..K, C at levels 1..K.

    Level k matrices are d^k x d^k; every C must be diagonal with nonnegative
    entries.  Basis vectors at level k are words of length k ordered with the
    first (leftmost, most recently added) letter most significant.
    Instances compare by identity.
    """

    __slots__ = ("d", "t", "c")
    d: int
    t: tuple[tuple[tuple[tuple[Fraction, ...], ...], ...], ...]
    c: tuple[tuple[tuple[Fraction, ...], ...], ...]

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self,
        d: int,
        t: Iterable[Iterable[Iterable[Iterable[Fraction]]]],
        c: Iterable[Iterable[Iterable[Fraction]]],
    ):
        t = tuple(tuple(_as_matrix(m) for m in level) for level in t)
        c = tuple(_as_matrix(m) for m in c)
        if len(c) != len(t) - 1:
            raise ValueError("need one C matrix per level 1..K and T matrices at 0..K")
        for k, level in enumerate(t):
            size = d**k
            if len(level) != d:
                raise ValueError(f"level {k} needs one T matrix per letter")
            for m in level:
                _check_square(m, size, f"T at level {k}")
        for k, m in enumerate(c, start=1):
            size = d**k
            _check_square(m, size, f"C at level {k}")
            for r, row in enumerate(m):
                for s, value in enumerate(row):
                    if r != s and value:
                        raise ValueError(f"C at level {k} must be diagonal")
                    if r == s and value < 0:
                        raise ValueError(f"C at level {k} has negative entry {value}")
        super().__init__(d, t, c)

    @property
    def levels(self) -> int:
        return len(self.t) - 1


def _check_square(m: Sequence[Sequence[Fraction]], size: int, what: str) -> None:
    if len(m) != size or any(len(row) != size for row in m):
        raise ValueError(f"{what} must be {size}x{size}")


def matricial_from_map(cm: CoefficientMap, levels: int) -> MatricialData:
    """Diagonal matricial data induced by a coefficient map."""
    if levels > cm.depth:
        raise ValueError(f"levels {levels} exceed map depth {cm.depth}")
    d = cm.d
    t = []
    c = []
    for k in range(levels + 1):
        words = words_of_length(d, k)
        size = len(words)
        level_t = []
        for i in range(1, d + 1):
            m = [[Fraction(0)] * size for _ in range(size)]
            for idx, u in enumerate(words):
                m[idx][idx] = cm.b(i, u)
            level_t.append(m)
        t.append(tuple(level_t))
        if k >= 1:
            mc = [[Fraction(0)] * size for _ in range(size)]
            for idx, u in enumerate(words):
                mc[idx][idx] = cm.c(u)
            c.append(mc)
    return MatricialData(d=d, t=tuple(t), c=tuple(c))


def _dense_inverse(matrix: DenseMatrix, n: int, d: int, order: int) -> DenseMatrix:
    """The inverse of an n x n matrix of dense series with identity constant
    term, through ``order``.

    An entry is its parts by degree (parts[m] the d^m coefficients of the
    words of length m, None for a zero degree); an absent entry is 0.  Each
    column x of X solves X = 1 + (1 - matrix) X degree by degree, the fixed
    point of the Neumann iteration: x_r[m] = -sum_(t, p >= 1) matrix_rt[p]
    (x) x_t[m - p], each product a slice update.
    """
    for r in range(n):
        for s in range(n):
            parts = matrix.get((r, s))
            constant = parts[0][0] if parts and parts[0] else 0
            if constant != (r == s):
                raise ValueError("matrix inverse requires identity constant term")
    rows: list[list[tuple[int, list]]] = [[] for _ in range(n)]
    for (r, t), parts in matrix.items():
        if any(parts[1 : order + 1]):
            rows[r].append((t, parts))
    inverse: DenseMatrix = {}
    for s in range(n):
        column: dict[int, list] = {s: [[1]] + [None] * order}
        for m in range(1, order + 1):
            for r, row in enumerate(rows):
                acc = None
                for t, parts in row:
                    x = column.get(t)
                    if x is None:
                        continue
                    for p in range(1, min(m, len(parts) - 1) + 1):
                        if parts[p] and x[m - p]:
                            if acc is None:
                                acc = [0] * d**m
                            _add_outer(acc, parts[p], x[m - p], d ** (m - p))
                if acc is not None:
                    column.setdefault(r, [None] * (order + 1))[m] = [-v for v in acc]
        inverse.update(((r, s), x) for r, x in column.items())
    return inverse


def matricial_parts(md: MatricialData, order: int) -> tuple[list[list[int]], int]:
    """The dense integer series of :func:`matricial_cf` before its one
    division per word, with its scale D, the data's common denominator:
    parts[m] lists D^m times the coefficients of the d^m words of length m,
    m = 0..min(order, 2K), in graded-lex order (see :func:`_matricial_levels`).
    """
    matrices = [m for level in md.t for m in level] + list(md.c)
    scale = common_denominator(value for m in matrices for row in m for value in row)

    def t_entries(k: int) -> Iterator[tuple[int, int, int, int]]:
        for i, t_matrix in enumerate(md.t[k]):
            for r, row in enumerate(t_matrix):
                for s, value in enumerate(row):
                    if value:
                        yield i, r, s, clear_denominator(value, scale)

    def c_entry(k: int, r: int) -> int:
        return clear_denominator(md.c[k - 1][r][r], scale * scale)

    return _matricial_levels(md.d, md.levels, order, t_entries, c_entry), scale


def matricial_map_parts(cm: CoefficientMap, levels: int, order: int) -> tuple[list[list[int]], int]:
    """:func:`matricial_parts` of ``matricial_from_map(cm, levels)``, with
    the map's scale D, read straight from the map's integer view: level k's
    T'_i and C' are diagonal, with B'(i, u) and C'(u) at the row of the word
    u of length k, and only the entries the recursion reaches are read."""
    if levels > cm.depth:
        raise ValueError(f"levels {levels} exceed map depth {cm.depth}")
    d = cm.d
    scaled = cm.integer
    words = [words_of_length(d, k) for k in range(levels + 1)]

    def t_entries(k: int) -> Iterator[tuple[int, int, int, int]]:
        for r, u in enumerate(words[k]):
            for i in range(d):
                value = scaled.b(i + 1, u)
                if value:
                    yield i, r, r, value

    def c_entry(k: int, r: int) -> int:
        return scaled.c(words[k][r])

    return _matricial_levels(d, levels, order, t_entries, c_entry), cm.scale


def _matricial_levels(
    d: int,
    top: int,
    order: int,
    t_entries: Callable[[int], Iterable[tuple[int, int, int, int]]],
    c_entry: Callable[[int, int], int],
) -> list[list[int]]:
    """The matricial continued fraction's integer parts through min(order,
    2 top), from level top up to level 0: ``t_entries(k)`` lists level k's
    nonzero T' entries as (i, r, s, T'_(i+1)[r][s]) and ``c_entry(k, r)``
    is C'[r][r] at level k >= 1.

    Level k's denominator 1 - sum_i T'_i z_i - sum_(j,l) z_j block_(j,l)(C'
    F_(k+1)) z_l is a sparse dict of dense entries: T'_i adds to the degree-1
    part at letter i, and a sandwich places C'_RR F_(k+1)[R][S] at every
    second slot of degree m + 2, from (j - 1) d^(m+1) + (l - 1).
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    effective = min(order, 2 * top)
    f: DenseMatrix | None = None
    for k in range(top, -1, -1):
        budget = max(effective - 2 * k, 0)
        n = d**k
        denom: DenseMatrix = {(r, r): [[1]] + [None] * budget for r in range(n)}

        def entry(r: int, s: int, m: int) -> list[int]:
            parts = denom.setdefault((r, s), [None] * (budget + 1))
            if parts[m] is None:
                parts[m] = [0] * d**m
            return parts[m]

        if budget >= 1:
            for i, r, s, value in t_entries(k):
                entry(r, s, 1)[i] = -value
        if budget >= 2 and f is not None:
            for (big_r, big_s), x in f.items():
                cval = c_entry(k + 1, big_r)
                if not cval:
                    continue
                factor = [-cval]
                j, r = divmod(big_r, n)
                l, s = divmod(big_s, n)
                for m, part in enumerate(x[: budget - 1]):
                    if part:
                        _add_outer(entry(r, s, m + 2), part, factor, d, j * d ** (m + 1) + l)
        f = _dense_inverse(denom, n, d, budget)
    assert f is not None
    return [part or [0] * d**m for m, part in enumerate(f[(0, 0)])]


def matricial_cf(md: MatricialData, order: int) -> NCSeries:
    """Moment generating series from level-matrix data, evaluated bottom-up.

    Coefficients are sound only up to order 2 * K for data with levels 0..K,
    so the returned series is truncated there.  Like the scalar engine it
    runs on integers: T' = D T and C' = D^2 C with D the data's own
    common denominator (T need not be diagonal), one division per output
    word; see :func:`matricial_parts`.
    """
    parts, scale = matricial_parts(md, order)
    return _series(md.d, parts, scale)


def render_branched_cf(cm: CoefficientMap, depth: int) -> str:
    """Indented text rendering of the branched fraction down to a depth.

    Each line shows one node's denominator; a trailing "-> [word]" marks a
    sub-fraction continued on the indented lines below.
    """
    lines: list[str] = []

    def label(u: Word) -> str:
        return "(" + ",".join(str(letter) for letter in u) + ")"

    def walk(u: Word, indent: int) -> None:
        parts = ["1"]
        for i in range(1, cm.d + 1):
            bval = cm.b(i, u)
            if bval:
                parts.append(f"{'-' if bval > 0 else '+'} {abs(bval)}*z{i}")
        children = []
        if len(u) < depth:
            for j in range(1, cm.d + 1):
                child = (j,) + u
                cval = cm.c(child)
                if cval:
                    children.append((j, child, cval))
        for j, child, cval in children:
            parts.append(f"- {cval}*z{j}|z{j} -> {label(child)}")
        lines.append("  " * indent + f"{label(u)}: 1 / ( " + " ".join(parts) + " )")
        for _, child, _ in children:
            walk(child, indent + 1)

    walk(EMPTY_WORD, 0)
    return "\n".join(lines)
