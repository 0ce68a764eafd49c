"""Continued-fraction engines for moment generating functions.

Three engines, all producing truncated non-commutative power series whose
coefficient at a word w is the state applied to the monomial x_w:

* ``classical_cf``: the one-variable chain 1 / (1 - beta_0 z - gamma_1 z^2 /
  (1 - beta_1 z - ...)), which is the scalar engine on a one-letter map.
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
recursion reaches, and :func:`scalar_branched_numerators` hands out its F'
undivided; the matricial engine takes D from its own data.

The scalar engine keeps each node's F'_u dense and graded: one list of ints
per degree m, holding the d^m words of length m at their base-d values
(leftmost letter most significant), which is ``words_up_to`` order.  A
node's denominator is never formed; F'_u = 1 + r F'_u is solved degree by
degree, and each product of a branch's series with a lower degree of F'_u
is a few slice updates of one of those lists, so the recursion builds no
word tuple per coefficient and no dict until the root's coefficients become
one series.
The matricial engine runs on :class:`~ncprod.ncpoly.NCSeries` matrices.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .jacobi import JacobiData
from .ncpoly import (
    EMPTY_WORD,
    FrozenRecord,
    NCSeries,
    Word,
    _make,
    clear_denominator,
    common_denominator,
    exact_fraction,
    words_of_length,
    words_up_to,
)
from .prodstate import CoefficientMap, explicit_map

Matrix = list[list[Fraction]]
SeriesMatrix = list[list[NCSeries]]


def classical_cf(data: JacobiData, order: int) -> NCSeries:
    """One-variable moment generating function as a truncated series in z:
    the scalar engine on the one-letter chain map B(1, 1^k) = beta_k,
    C(1^k) = gamma_k, through the depth order // 2 that the order reaches."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    level = order // 2
    chain = explicit_map(
        1,
        level,
        {(1, (1,) * k): data.beta_at(k) for k in range(level + 1)},
        {(1,) * k: data.gamma_at(k) for k in range(1, level + 1)},
    )
    return scalar_branched_cf(chain, order)


def _over_powers(series: NCSeries, scale: int) -> NCSeries:
    """The series with each integer coefficient g at a word w replaced by
    the Fraction g / scale^|w|."""
    powers = [scale**n for n in range(series.order + 1)]
    return _make(
        series.d,
        series.order,
        {w: Fraction(g, powers[len(w)]) for w, g in series.terms.items()},
    )


def scalar_branched_cf(cm: CoefficientMap, order: int) -> NCSeries:
    """Branched continued fraction of a diagonal coefficient map.

    Branches follow the nonzero C entries, so for a product-type map the
    recursion runs exactly over the interior of its tree; boundary nodes keep
    only their B terms.  It runs on the map's integer view (see the module
    docstring) and divides once per output word.
    """
    return _over_powers(scalar_branched_numerators(cm, order), cm.scale)


def scalar_branched_numerators(cm: CoefficientMap, order: int) -> NCSeries:
    """The integer series F' of :func:`scalar_branched_cf`, before its one
    division per word: its coefficient at w is D^|w| times the state at x_w,
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
                # idx(a) d^(m-1-k) + (i-1) d^(m-2-k) + idx(w) of block i: loop
                # over the shorter of G[k] and T_(m-2-k) and take the other as
                # one slice, contiguous for T, strided for G
                for k in range(m - 1 if cg else 0):
                    gk, tail = cg[k], parts[m - 2 - k]
                    inner = size[m - 2 - k]
                    stride = inner * d
                    offset = (i - 1) * inner
                    if size[k] <= inner:
                        for a, g in enumerate(gk):
                            if g:
                                lo = a * stride + offset
                                hi = lo + inner
                                block[lo:hi] = [x + g * y for x, y in zip(block[lo:hi], tail)]
                    else:
                        for w, t in enumerate(tail):
                            if t:
                                start = offset + w
                                block[start::stride] = [
                                    x + t * g for x, g in zip(block[start::stride], gk)
                                ]
                level += block
            parts.append(level)
        return parts

    flat = [x for part in node(EMPTY_WORD, order) for x in part]
    return _make(d, order, dict(zip(words_up_to(d, order), flat)))


def _as_matrix(rows: Iterable[Iterable[Fraction]]) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(exact_fraction(x) for x in row) for row in rows)


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


def block_extract(matrix: Sequence[Sequence], i: int, j: int, d: int) -> list[list]:
    """Block (i, j) of a d^k x d^k matrix viewed as d x d blocks.

    Rows whose index word starts with letter i, columns starting with letter
    j; for a 2 x 2 matrix this is just the (i, j) entry as a 1 x 1 matrix.
    """
    n = len(matrix)
    if n % d != 0 or any(len(row) != n for row in matrix):
        raise ValueError(f"matrix is not square of size divisible by {d}")
    m = n // d
    if not (1 <= i <= d and 1 <= j <= d):
        raise ValueError(f"block indices must lie in 1..{d}")
    return [list(row[(j - 1) * m : j * m]) for row in matrix[(i - 1) * m : i * m]]


def _smat_identity(n: int, d: int, order: int, one: Fraction | int = Fraction(1)) -> SeriesMatrix:
    """The n x n identity; ``one`` is int 1 for a matrix of integer series."""
    return [
        [_make(d, order, {EMPTY_WORD: one} if r == s else {}) for s in range(n)]
        for r in range(n)
    ]


def _smat_mul(a: SeriesMatrix, b: SeriesMatrix) -> SeriesMatrix:
    n = len(a)
    out = []
    for r in range(n):
        row = []
        for s in range(n):
            acc = None
            for t in range(n):
                if not a[r][t].terms or not b[t][s].terms:
                    continue
                term = a[r][t] * b[t][s]
                acc = term if acc is None else acc + term
            if acc is None:
                acc = NCSeries.zero(a[0][0].d, a[0][0].order)
            row.append(acc)
        out.append(row)
    return out


def _smat_inverse(mat: SeriesMatrix, order: int) -> SeriesMatrix:
    """Inverse of a series matrix with identity constant term.

    Neumann iteration x_(k+1) = 1 + u*x_k from x_0 = 1, with u = 1 - mat.  As
    u has no constant term, x_k is exact through degree k, and so is
    x_(k+1) through degree k + 1 when u multiplies only the part of x_k of
    degree <= k, as a series of order k + 1: step k works at order k + 1.
    """
    n = len(mat)
    d = mat[0][0].d
    for r in range(n):
        for s in range(n):
            expected = Fraction(1) if r == s else Fraction(0)
            if mat[r][s].constant_term() != expected:
                raise ValueError("matrix inverse requires identity constant term")
    # the unit of the entries' own type, so an integer matrix stays integer
    identity = _smat_identity(n, d, order, mat[0][0].constant_term())
    u = [[identity[r][s] - mat[r][s] for s in range(n)] for r in range(n)]
    x = identity
    for k in range(order):
        # x holds only degrees <= k (x_0 = 1, then x_k has order k)
        ux = _smat_mul(u, [[entry.truncate(k + 1) for entry in row] for row in x])
        x = [[identity[r][s] + ux[r][s] for s in range(n)] for r in range(n)]
    return x


def matricial_cf(md: MatricialData, order: int) -> NCSeries:
    """Moment generating series from level-matrix data, evaluated bottom-up.

    Coefficients are sound only up to order 2 * K for data with levels 0..K,
    so the returned series is truncated there.  Like the scalar engine it
    runs on integers: T' = D T and C' = D^2 C with D the data's own
    common denominator (T need not be diagonal), one division per output
    word.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    d = md.d
    top = md.levels
    effective = min(order, 2 * top)
    matrices = [m for level in md.t for m in level] + list(md.c)
    scale = common_denominator(value for m in matrices for row in m for value in row)
    f: SeriesMatrix | None = None
    for k in range(top, -1, -1):
        budget = max(effective - 2 * k, 0)
        n = d**k
        denom = _smat_identity(n, d, budget, 1)
        for i in range(1, d + 1):
            t_matrix = md.t[k][i - 1]
            for r in range(n):
                for s in range(n):
                    value = t_matrix[r][s]
                    if value and budget >= 1:
                        term = _make(d, budget, {(i,): clear_denominator(value, scale)})
                        denom[r][s] = denom[r][s] - term
        if k < top and budget >= 2 and f is not None:
            c_matrix = md.c[k]  # C at level k + 1 (c is indexed from level 1)
            scaled = [
                [clear_denominator(c_matrix[r][r], scale * scale) * f[r][s].truncate(budget - 2)
                 for s in range(d * n)]
                for r in range(d * n)
            ]
            for j in range(1, d + 1):
                for l in range(1, d + 1):
                    block = block_extract(scaled, j, l, d)
                    for r in range(n):
                        for s in range(n):
                            if block[r][s].terms:
                                denom[r][s] = denom[r][s] - block[r][s].sandwich(j, l).truncate(budget)
        f = _smat_inverse(denom, budget)
    assert f is not None
    return _over_powers(f[0][0], scale)


def render_branched_cf(cm: CoefficientMap, depth: int, var: str = "z") -> str:
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
                parts.append(f"{'-' if bval > 0 else '+'} {abs(bval)}*{var}{i}")
        children = []
        if len(u) < depth:
            for j in range(1, cm.d + 1):
                child = (j,) + u
                cval = cm.c(child)
                if cval:
                    children.append((j, child, cval))
        for j, child, cval in children:
            parts.append(f"- {cval}*{var}{j}|{var}{j} -> {label(child)}")
        lines.append("  " * indent + f"{label(u)}: 1 / ( " + " ".join(parts) + " )")
        for _, child, _ in children:
            walk(child, indent + 1)

    walk(EMPTY_WORD, 0)
    return "\n".join(lines)
