#!/usr/bin/env python3
"""Gallery of the built-in product states with semicircle marginals.

For each built-in tree: its boundary, the first few joint moments, and the
indented branched-continued-fraction display.
"""

from ncprod import (
    BUILTIN_OMEGAS,
    StateEvaluator,
    builder,
    preset,
    product_type_map,
    render_branched_cf,
)
from ncprod.words import format_rational, words_up_to


def main() -> None:
    semicircle = preset("semicircle")
    for name in BUILTIN_OMEGAS:
        tree = builder(name, 6)
        cm = product_type_map(tree, semicircle, semicircle)
        evaluator = StateEvaluator(cm)
        print("=" * 64)
        print(f"{name}  (boundary: {sorted(tree.boundary()) or 'empty'})")
        print("-" * 64)
        nonzero = [
            (w, evaluator.word_moment(w))
            for w in words_up_to(2, 4)
            if evaluator.word_moment(w)
        ]
        for w, value in nonzero:
            label = ".".join(map(str, w)) or "()"
            print(f"  phi[{label:<9}] = {format_rational(value)}")
        print()
        print(render_branched_cf(cm, 3))
        print()


if __name__ == "__main__":
    main()
