#!/usr/bin/env python3
"""Exhaustive associativity search over small valid trees.

Enumerates every valid tree stored to words of length three (postfix-closed,
pure runs present, sibling-closed), tests the iterated-product construction
against its mirror at depth three, and reports the failures.
"""

from ncprod.words import graded_lex_key
from ncprod.omega import (
    OmegaTree,
    _omega_squared_mirror,
    enumerate_valid_trees,
    is_associative,
    omega_squared,
)


def main() -> None:
    trees = enumerate_valid_trees(3)
    failures = []
    for members in sorted(trees, key=lambda s: (len(s), sorted(s, key=graded_lex_key))):
        tree = OmegaTree(2, members)
        if not is_associative(tree, 3):
            direct = omega_squared(tree, 3)
            mirror = _omega_squared_mirror(tree, 3)
            witness = sorted(direct ^ mirror, key=graded_lex_key)[0]
            failures.append((members, witness))
    print(f"valid trees stored to length 3: {len(trees)}")
    print(f"associative: {len(trees) - len(failures)}, not associative: {len(failures)}")
    if failures:
        members, witness = failures[0]
        print("\nsmallest non-associative tree:")
        for w in sorted(members, key=graded_lex_key):
            print(f"  {list(w)}")
        print(f"witness word (in one construction only): {list(witness)}")


if __name__ == "__main__":
    main()
