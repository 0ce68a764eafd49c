#!/usr/bin/env python3
"""Gallery of the built-in product states with semicircle marginals.

For each built-in tree: its boundary, the first few joint moments, and the
indented branched-continued-fraction display through the same order as the
moments it lists.
"""

from ncprod import (
    BUILTIN_OMEGAS,
    builder,
    moment_table,
    preset,
    product_type_map,
    render_branched_cf,
)
from ncprod.words import format_rational


def main() -> None:
    semicircle = preset("semicircle")
    for name in BUILTIN_OMEGAS:
        tree = builder(name, 6)
        cm = product_type_map(tree, semicircle, semicircle)
        print("=" * 64)
        print(f"{name}  (boundary: {sorted(tree.boundary()) or 'empty'})")
        print("-" * 64)
        for w, value in moment_table(cm, 4):
            if not value:
                continue
            label = ".".join(map(str, w)) or "()"
            print(f"  phi[{label:<9}] = {format_rational(value)}")
        print()
        print(render_branched_cf(cm, 4))
        print()


if __name__ == "__main__":
    main()
