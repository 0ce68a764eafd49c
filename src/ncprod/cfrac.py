"""Continued-fraction engines for moment generating functions.

Each engine hands out what :func:`~ncprod.prodstate.moment_parts` hands
out: the dense integer parts over D^|w| of the state's value on every word
through the order, in graded-lex order, zeros included, read as the
coefficients of a generating function in z_1..z_d, which
:func:`~ncprod.words.word_values` divides once per word.  The engines:

* :func:`scalar_branched_parts`: the branched fraction over a coefficient
  map; the node at word u contributes denominator 1 - sum_i B(i, u) z_i -
  sum_j C(j, u) z_j F_(j,u) z_j, with F_u the inverse of that denominator
  and the generating function being F at the root.  On the one-letter
  chain map of :func:`chain_map` it is the classical one-variable fraction
  1 / (1 - beta_0 z - gamma_1 z^2 / (1 - beta_1 z - ...)).
* :func:`matricial_map_parts`: the block version where level k carries
  d^k x d^k coefficient matrices; the numerator of each sub-fraction is
  the matrix sandwich sum_{j,l} z_j block_{j,l}(C^(k+1) F_(k+1)) z_l with
  block extraction in the new-letter-leftmost tensor ordering.  A map's
  matrices are diagonal, and so is every level's F, so the engine keeps
  one series per word of each level.

Evaluation is bottom-up over the depth-truncated tree with the identity at
the frontier.  Each level down costs at least total degree 2 per branch, so
a tree explored while the order budget stays nonnegative yields exact
coefficients up to the requested order.

Both recursions run over one common denominator.  Substituting z_i -> D z_i,
with D an integer that clears every coefficient's denominator, turns each
node's denominator into 1 - sum_i (D B) z_i - sum_j (D^2 C) z_j F'_(j,u) z_j,
with integer coefficients only, so every F' in the recursion has integer
coefficients and the coefficient of F at a word w is that of F' at w over
D^|w|: one division per output word.  The scalar engine reads D B and
D^2 C from the map's integer view, which reads only the entries the
recursion reaches, and :func:`scalar_branched_parts` hands out its F'
undivided.  The matricial engine runs its level loop on the same integer
view, whose diagonal T' and C' it reads entry by entry without building a
matrix.

Both keep every F' dense and graded: one list of ints per degree m, holding
the d^m words of length m at their base-d values (leftmost letter most
significant), which is ``words_up_to`` order.  A product of two of them,
the sandwich z_j F z_l and a truncation are slice updates of those lists
(:func:`_add_outer`), so the recursions build no word tuple per
coefficient, and every engine hands out the lists themselves.  The scalar
engine never forms a node's denominator: F'_u = 1 + r F'_u is solved
degree by degree.
The matricial engine forms each word's denominator, one dense series,
and inverts it degree by degree (:func:`_series_inverse`).
"""

from __future__ import annotations

from .jacobi import JacobiData
from .prodstate import CoefficientMap, explicit_map
from .words import EMPTY_WORD, Word, _add_outer, words_of_length


def chain_map(data: JacobiData, order: int) -> CoefficientMap:
    """The one-letter chain map B(1, 1^k) = beta_k, C(1^k) = gamma_k of depth
    order // 2: m_n reads beta_k for k <= (n - 1) // 2, gamma_k for k <= n // 2."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    level = order // 2
    return explicit_map(
        1,
        level,
        {(1, (1,) * k): data.beta_at(k) for k in range((order + 1) // 2)},
        {(1,) * k: data.gamma_at(k) for k in range(1, level + 1)},
    )


def scalar_branched_parts(cm: CoefficientMap, order: int) -> list[list[int]]:
    """The integer F' of the branched continued fraction of a diagonal
    coefficient map by degree: parts[m] lists the d^m words of length m in
    graded-lex order, and the entry of w is D^|w| times the state at x_w,
    with D the map's scale, the same table as
    :func:`~ncprod.prodstate.moment_parts` gives.

    Branches follow the nonzero C entries, so for a product-type map the
    recursion runs exactly over the interior of its tree; boundary nodes keep
    only their B terms.  It runs on the map's integer view (see the module
    docstring).
    """
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


def matricial_map_parts(cm: CoefficientMap, order: int) -> list[list[int]]:
    """The integer parts over D^m, D the map's scale, of the matricial
    continued fraction of the data a map induces: level k's T_i and C are
    d^k x d^k, diagonal, with B(i, u) and C(u) at the row of the word u of
    length k (leftmost letter most significant).

    Every level's F is diagonal too, so the engine keeps one series per
    word: the sandwich sum_(j,l) z_j block_(j,l)(C F_(k+1)) z_l of a
    diagonal F_(k+1) writes only the entry (r, r), since block (j, l) meets
    the diagonal only for j = l and then only at (r, r), and the inverse of
    a diagonal denominator is diagonal.  So level k's entry at u is the
    inverse of 1 - sum_i B'(i, u) z_i - sum_j C'(ju) z_j F'_(k+1)[ju] z_j,
    from level (order + 1) // 2, the fewest levels exact through the order,
    up to level 0.  T' and C' are read from the map's integer view, only the
    entries the levels reach; a map of depth N serves every order through
    2N + 1."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    d = cm.d
    scaled = cm.integer
    # F' of level k + 1 by word index; at the deepest level every entry is 1
    below: list[list[list[int]]] = []
    for k in range((order + 1) // 2, -1, -1):
        budget = max(order - 2 * k, 0)
        n = d**k
        level = []
        for r, u in enumerate(words_of_length(d, k)):
            denom = [[1]] + [[0] * d**m for m in range(1, budget + 1)]
            if budget >= 1:
                denom[1] = [-scaled.b(i, u) for i in range(1, d + 1)]
            if budget >= 2:
                for j in range(d):
                    cval = scaled.c((j + 1,) + u)
                    if cval:
                        # z_(j+1) w z_(j+1) for w of length m sits at
                        # j d^(m+1) + idx(w) d + j of degree m + 2
                        for m, part in enumerate(below[j * n + r]):
                            _add_outer(denom[m + 2], part, (-cval,), d, j * d ** (m + 1) + j)
            level.append(_series_inverse(denom, d))
        below = level
    return below[0]


def _series_inverse(series: list[list[int]], d: int) -> list[list[int]]:
    """The inverse of a series with constant term 1 through the series' own
    order, both as parts by degree (parts[m] the d^m coefficients of the
    words of length m).  It solves x = 1 + (1 - series) x degree by degree,
    the fixed point of the Neumann iteration: x[m] = -sum_(p >= 1)
    series[p] (x) x[m - p], each product a slice update."""
    if series[0] != [1]:
        raise ValueError("series inverse requires constant term 1")
    terms = [(p, part) for p, part in enumerate(series) if p and any(part)]
    x = [[1]]
    for m in range(1, len(series)):
        acc = [0] * d**m
        for p, part in terms:
            if p > m:
                break
            _add_outer(acc, part, x[m - p], d ** (m - p))
        x.append([-v for v in acc])
    return x


def render_branched_cf(cm: CoefficientMap, order: int) -> str:
    """Indented text rendering of the branched fraction that
    :func:`scalar_branched_parts` solves through the order, so it reads the
    map's entries that the engine reads and no others: the node at u has
    budget order - 2|u|, shows its B terms from budget 1 and its C branches
    from budget 2, and a node of budget 0 is ``1 / ( 1 )``.

    Each line shows one node's denominator; a trailing "-> [word]" marks a
    sub-fraction continued on the indented lines below.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    lines: list[str] = []

    def label(u: Word) -> str:
        return "(" + ",".join(str(letter) for letter in u) + ")"

    def walk(u: Word, budget: int) -> None:
        parts = ["1"]
        if budget >= 1:
            for i in range(1, cm.d + 1):
                bval = cm.b(i, u)
                if bval:
                    parts.append(f"{'-' if bval > 0 else '+'} {abs(bval)}*z{i}")
        children = []
        if budget >= 2:
            for j in range(1, cm.d + 1):
                child = (j,) + u
                cval = cm.c(child)
                if cval:
                    parts.append(f"- {cval}*z{j}|z{j} -> {label(child)}")
                    children.append(child)
        lines.append("  " * len(u) + f"{label(u)}: 1 / ( " + " ".join(parts) + " )")
        for child in children:
            walk(child, budget - 2)

    walk(EMPTY_WORD, order)
    return "\n".join(lines)
