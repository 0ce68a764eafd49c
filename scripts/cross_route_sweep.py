#!/usr/bin/env python3
"""Cross-route sweep over every small valid tree.

For every tree of ``enumerate_valid_trees(3)`` (64 trees, map depth 2,
order 5) and ``enumerate_valid_trees(4)`` (12,544 trees, map depth 3,
order 7), at 2 * depth + 1, the highest order a map of that depth serves,
builds the product-type map of fixed generic marginals, with a fixed nu
pair for the inner runs, and checks that the four routes to the numerators
D^|w| phi(w) agree on every word: the transfer-operator table
(``moment_parts``), the scalar and the matricial continued fractions
(``scalar_branched_parts``, ``matricial_map_parts``) and the word-by-word
evaluator (``StateEvaluator.word_numerator``).  At these orders every tree
gives its own table, so a route that misread one tree's entries would show;
each sweep prints how many distinct tables it saw.  Then, at order 10, it
checks the direct definitions against the same table, each oracle built at
its map's scale: the free, Boolean, monotone and anti-monotone oracles
(``free_state``, ``boolean_state``, ``monotone_state``,
``antimonotone_state``) on the map of the mu pair on their built-in tree,
and the c-free oracle (``cfree_state``) on the two-pair map
(``cfree_map``).  Exits 1 at the first disagreement, naming the tree or
the oracle, the route and the word.

Run from the repository root: ``PYTHONPATH=src python3 scripts/cross_route_sweep.py``.
"""

import hashlib
import sys
import time
from fractions import Fraction as F

from ncprod import (
    CoefficientMap,
    JacobiData,
    OmegaTree,
    StateEvaluator,
    antimonotone_state,
    boolean_state,
    builder,
    cfree_map,
    cfree_state,
    enumerate_valid_trees,
    free_state,
    monotone_state,
    product_type_map,
)
from ncprod.cfrac import matricial_map_parts, scalar_branched_parts
from ncprod.prodstate import moment_parts
from ncprod.words import graded_lex_key, words_of_length

# every beta and gamma nonzero and distinct across the four marginals, so a
# route that read a wrong coefficient would change some numerator
MU = (
    JacobiData(beta=(F(1, 2), F(-1, 3), F(1, 4), F(2, 7)), gamma=(F(1), F(2, 3), F(3, 5))),
    JacobiData(beta=(F(-1, 2), F(2, 5), F(1, 3), F(-3, 4)), gamma=(F(3, 2), F(1, 2), F(5, 7))),
)
NU = (
    JacobiData(beta=(F(1, 3), F(-2, 7), F(3, 2)), gamma=(F(4, 5), F(7, 3))),
    JacobiData(beta=(F(-3, 5), F(1, 6), F(2, 9)), gamma=(F(5, 4), F(2, 11))),
)

# (the words' maximal length in the enumeration, the order checked: 2 * depth + 1)
SWEEPS = ((3, 5), (4, 7))
# the order of the direct-definition checks
ORACLE_ORDER = 10
# the oracles of one (mu1, mu2) pair, each under the built-in tree whose
# product-type state it defines directly
TREE_ORACLES = {
    "free": free_state,
    "boolean": boolean_state,
    "monotone": monotone_state,
    "antimonotone": antimonotone_state,
}


def disagreement(cm: CoefficientMap, table: list[list[int]], order: int) -> str | None:
    """The first route whose numerators differ from the map's table, or None."""
    evaluator = StateEvaluator(cm)
    routes = {
        "scalar_branched_parts": scalar_branched_parts(cm, order),
        "matricial_map_parts": matricial_map_parts(cm, order),
        "word_numerator": [
            [evaluator.word_numerator(w) for w in words_of_length(cm.d, n)] for n in range(order + 1)
        ],
    }
    for route, parts in routes.items():
        for n, (expected, got) in enumerate(zip(table, parts)):
            for w, a, b in zip(words_of_length(cm.d, n), expected, got):
                if a != b:
                    return f"{route} at word {list(w)}: {b}, moment_parts {a}"
        if len(parts) != len(table):
            return f"{route}: {len(parts)} degrees, moment_parts {len(table)}"
    return None


def oracle_disagreement(order: int) -> str | None:
    """The first direct-definition oracle whose numerators differ from the
    transfer-operator table's, or None: the free, Boolean, monotone and
    anti-monotone oracles on the map of their built-in tree, the c-free
    oracle on the two-pair map."""
    checks = {}
    for name, factory in TREE_ORACLES.items():
        cm = product_type_map(builder(name, order), *MU)
        checks[f"{name}_state"] = (cm, factory(*MU, scale=cm.scale))
    two_pair = cfree_map(MU[0], NU[0], MU[1], NU[1], order)
    checks["cfree_state"] = (two_pair, cfree_state(MU[0], NU[0], MU[1], NU[1], scale=two_pair.scale))
    for route, (cm, phi) in checks.items():
        for n, expected in enumerate(moment_parts(cm, order)):
            for w, a in zip(words_of_length(cm.d, n), expected):
                b = phi(w)
                if a != b:
                    return f"{route} at word {list(w)}: {b}, moment_parts {a}"
    return None


def sweep(max_len: int, order: int) -> tuple[int, int, str | None]:
    """Over every valid tree with words to ``max_len``, at the order: the
    number of trees, the number of distinct tables among them, and the first
    disagreement, naming its tree, or None."""
    trees = enumerate_valid_trees(max_len)
    # a digest of each tree's table: every map has the scale of MU and NU
    tables = set()
    for members in trees:
        cm = product_type_map(OmegaTree(max_len - 1, members), *MU, NU)
        table = moment_parts(cm, order)
        tables.add(hashlib.sha256(repr(table).encode()).digest())
        found = disagreement(cm, table, order)
        if found is not None:
            words = " ".join(map(str, (list(w) for w in sorted(members, key=graded_lex_key))))
            return len(trees), len(tables), f"on the tree {words} at order {order}: {found}"
    return len(trees), len(tables), None


def main() -> int:
    for max_len, order in SWEEPS:
        start = time.perf_counter()
        trees, distinct, found = sweep(max_len, order)
        if found is not None:
            print(f"disagreement {found}")
            return 1
        elapsed = time.perf_counter() - start
        print(
            f"words to length {max_len}: {trees} trees, {distinct} distinct tables, "
            f"agree through order {order} ({elapsed:.2f} s)"
        )
    start = time.perf_counter()
    found = oracle_disagreement(ORACLE_ORDER)
    if found is not None:
        print(f"disagreement of an oracle at order {ORACLE_ORDER}: {found}")
        return 1
    elapsed = time.perf_counter() - start
    print(
        "oracles: free_state, boolean_state, monotone_state, antimonotone_state and cfree_state "
        f"agree through order {ORACLE_ORDER} ({elapsed:.2f} s)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
