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
(``cfree_map``).  Last it checks the depth contract: m_n reads beta_k only
for k <= (n - 1) // 2 and gamma_k only for k <= n // 2, so marginals with
k = 1, 2, 3 stored betas and gammas under ``"extend": "error"`` must be
served at order 2k by every route, with the numerators of the same data
under ``"repeat"``, and refused at order 2k + 1 with a ``JacobiRangeError``
naming beta_k.  The routes are ``moment_parts``, ``scalar_branched_parts``,
``matricial_map_parts`` and ``word_numerator`` on the word 1^n, on the
maps of the four built-in pair trees and the two-pair map, and each
oracle on its own map.  Every route reads the same map rules, so last it
checks three relations the state must satisfy on ``moment_parts``, over
both enumerations at their orders with the nu pair: reversal, phi(w) =
phi(rev w); letter swap, the numerators of (sigma Omega, mu2, mu1, nu2,
nu1) at sigma w equal those of (Omega, mu1, mu2, nu1, nu2) at w over the
same scale, sigma exchanging the letters 1 and 2; and reflection and
dilation, the state of (-x1, a x2) with a = 2/3, which is the state of
mu1 and nu1 reflected (beta -> -beta) and mu2 and nu2 dilated (beta -> a
beta, gamma -> a^2 gamma) on the same tree, is (-1)^(#1 in w) a^(#2 in w)
phi(w), checked in integers across the two maps' scales.  Exits 1 at the
first disagreement or violation, naming the tree or the oracle, the route
or the relation, and the word.

Run from the repository root: ``PYTHONPATH=src python3 scripts/cross_route_sweep.py``.
"""

import hashlib
import sys
import time
from fractions import Fraction as F
from functools import partial

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
from ncprod.jacobi import JacobiRangeError
from ncprod.prodstate import moment_parts
from ncprod.words import Word, graded_lex_key, words_of_length, words_up_to

# every beta and gamma nonzero and distinct across the four marginals, so a
# route that read a wrong coefficient would change some numerator
MU = (
    JacobiData(beta=(F(1, 2), F(-1, 3), F(1, 4), F(2, 7)), gamma=(F(1), F(2, 3), F(3, 5))),
    JacobiData(beta=(F(-1, 2), F(2, 5), F(1, 3), F(-3, 4)), gamma=(F(3, 2), F(4, 7), F(5, 7))),
)
NU = (
    JacobiData(beta=(F(1, 5), F(-2, 7), F(5, 2)), gamma=(F(4, 5), F(7, 3))),
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
# the numbers k of stored betas and gammas in the depth-contract checks
CONTRACT_PREFIXES = (1, 2, 3)


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


def contract_routes(mu: tuple, nu: tuple, order: int):
    """(route, call) for every map route on the map of each built-in pair
    tree and on the two-pair map, and for each oracle on its own map at the
    map's scale, all through the order."""
    maps = {name: product_type_map(builder(name, order), *mu) for name in TREE_ORACLES}
    maps["two-pair"] = cfree_map(mu[0], nu[0], mu[1], nu[1], order)
    words = words_up_to(2, order)
    for name, cm in maps.items():
        yield f"moment_parts on {name}", partial(moment_parts, cm, order)
        yield f"scalar_branched_parts on {name}", partial(scalar_branched_parts, cm, order)
        yield f"matricial_map_parts on {name}", partial(matricial_map_parts, cm, order)
        yield f"word_numerator of 1^{order} on {name}", partial(StateEvaluator(cm).word_numerator, (1,) * order)
        if name in TREE_ORACLES:
            route, phi = f"{name}_state", TREE_ORACLES[name](*mu, scale=cm.scale)
        else:
            route, phi = "cfree_state", cfree_state(mu[0], nu[0], mu[1], nu[1], scale=cm.scale)
        yield route, lambda phi=phi: list(map(phi, words))


def contract_violation(k: int) -> tuple[int, str | None]:
    """On k stored betas and gammas of each marginal under "error": the
    number of routes, and the first that does not serve order 2k with the
    numerators of the same data under "repeat", or does not refuse order
    2k + 1 naming beta_k, or None."""
    def marginals(policy: str) -> tuple[tuple, tuple]:
        """The mu pair cut to k coefficients, and as the nu pair the same two swapped."""
        mu = tuple(JacobiData(m.beta[:k], m.gamma[:k], extend=policy) for m in MU)
        return mu, mu[::-1]

    served = zip(contract_routes(*marginals("error"), 2 * k), contract_routes(*marginals("repeat"), 2 * k))
    count = 0
    for (route, call), (_, reference) in served:
        count += 1
        try:
            if call() != reference():
                return count, f"{route} at order {2 * k}: other numerators than under \"repeat\""
        except ValueError as error:
            return count, f"{route} at order {2 * k}: refused ({error})"
    for route, call in contract_routes(*marginals("error"), 2 * k + 1):
        try:
            call()
        except JacobiRangeError as error:
            if str(error).startswith(f"beta_{k} beyond stored prefix"):
                continue
            return count, f"{route} at order {2 * k + 1}: refused naming another coefficient ({error})"
        return count, f"{route} at order {2 * k + 1}: served, though it reads beta_{k}"
    return count, None


def tree_label(members: frozenset[Word]) -> str:
    return " ".join(map(str, (list(w) for w in sorted(members, key=graded_lex_key))))


def swap_letters(word: Word) -> Word:
    return tuple(3 - letter for letter in word)


# the dilation of the second letter in the reflection and dilation relation
DILATION = F(2, 3)


def reflect_dilate(pair: tuple[JacobiData, JacobiData]) -> tuple[JacobiData, JacobiData]:
    """The laws of -x1 and a x2, a = DILATION, from those of x1 and x2."""
    first, second = pair
    return (
        JacobiData([-b for b in first.beta], first.gamma, first.extend),
        JacobiData([DILATION * b for b in second.beta], [DILATION**2 * g for g in second.gamma],
                   second.extend),
    )


def relation_violation(max_len: int, order: int) -> tuple[int, str | None]:
    """Over every valid tree with words to ``max_len``, at the order, with
    the nu pair: the number of trees, and the first word at which
    ``moment_parts`` breaks reversal, letter swap or reflection and
    dilation, naming its tree, or None."""
    trees = enumerate_valid_trees(max_len)
    indices = [{w: k for k, w in enumerate(words_of_length(2, n))} for n in range(order + 1)]
    # the factor (-1)^(#1 in w) a^(#2 in w) of each word, by degree
    factors = [
        [(-1) ** (n - w.count(2)) * DILATION ** w.count(2) for w in index] for n, index in enumerate(indices)
    ]
    moved_mu, moved_nu = reflect_dilate(MU), reflect_dilate(NU)
    for members in trees:
        tree = OmegaTree(max_len - 1, members)
        cm = product_type_map(tree, *MU, NU)
        swapped = product_type_map(
            OmegaTree(max_len - 1, frozenset(map(swap_letters, members))), *MU[::-1], NU[::-1]
        )
        moved = product_type_map(tree, *moved_mu, moved_nu)
        label = tree_label(members)
        if swapped.scale != cm.scale:
            return len(trees), f"letter swap on the tree {label}: scale {swapped.scale}, not {cm.scale}"
        table, swapped_table = moment_parts(cm, order), moment_parts(swapped, order)
        moved_table = moment_parts(moved, order)
        for n, (index, part, swapped_part, moved_part) in enumerate(
            zip(indices, table, swapped_table, moved_table)
        ):
            scale, moved_scale = cm.scale**n, moved.scale**n
            for (w, k), factor in zip(index.items(), factors[n]):
                if part[index[w[::-1]]] != part[k]:
                    relation = "reversal"
                elif swapped_part[index[swap_letters(w)]] != part[k]:
                    relation = "letter swap"
                elif moved_part[k] * scale * factor.denominator != factor.numerator * part[k] * moved_scale:
                    relation = "reflection and dilation"
                else:
                    continue
                return len(trees), f"{relation} on the tree {label} at order {order}, word {list(w)}"
    return len(trees), None


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
            return len(trees), len(tables), f"on the tree {tree_label(members)} at order {order}: {found}"
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
    start = time.perf_counter()
    for k in CONTRACT_PREFIXES:
        routes, found = contract_violation(k)
        if found is not None:
            print(f"depth contract broken with {k} stored betas and gammas: {found}")
            return 1
    elapsed = time.perf_counter() - start
    print(
        f'depth contract: with k = {", ".join(map(str, CONTRACT_PREFIXES))} stored betas and gammas under '
        f'"error", each of {routes} routes serves order 2k and refuses 2k + 1 naming beta_k ({elapsed:.2f} s)'
    )
    start = time.perf_counter()
    counts = []
    for max_len, order in SWEEPS:
        trees, found = relation_violation(max_len, order)
        if found is not None:
            print(f"relation broken by moment_parts: {found}")
            return 1
        counts.append(f"{trees} trees through order {order}")
    elapsed = time.perf_counter() - start
    print(
        "relations: reversal, letter swap and reflection and dilation hold on moment_parts "
        f"with the nu pair for {' and '.join(counts)} ({elapsed:.2f} s)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
