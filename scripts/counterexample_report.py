#!/usr/bin/env python3
"""Sweep the deformation parameter and report which states fail to have
monic orthogonal polynomials.

For each q: the inner product of the two degree-two orthogonalized mixed
monomials (zero iff the family is orthogonal there), the orthogonalized
x1*x2*x1, and whether it factors into one-variable monic polynomials.
The tensor state with semicircle marginals is reported alongside.
"""

from fractions import Fraction

from ncprod import (
    NCPolynomial,
    functional_inner,
    gram_schmidt_mops,
    preset,
    q_gaussian_state,
    tensor_state,
)


def factor_into_one_variable_triple(
    p: NCPolynomial,
) -> tuple[Fraction, Fraction, Fraction] | None:
    """Constants (a, b, c) with p = (x1 + a)(x2 + b)(x1 + c), if they exist.

    The only monic one-variable factor shape whose leading word is (1, 2, 1);
    the candidate constants are read off the degree-two coefficients and then
    verified exactly.
    """
    a = p.coefficient((2, 1))
    b = p.coefficient((1, 1))
    c = p.coefficient((1, 2))
    x1 = NCPolynomial.variable(1, p.d)
    x2 = NCPolynomial.variable(2, p.d)
    candidate = (x1 + a) * (x2 + b) * (x1 + c)
    return (a, b, c) if candidate == p else None


def main() -> None:
    print(f"{'q':>6}  {'<Q_12,Q_21>':>12}  {'MOPS':>5}  {'Q_121':<28} factors?")
    print("-" * 72)
    for q in (Fraction(0), Fraction(1, 2), Fraction(-1, 3), Fraction(9, 10), Fraction(2, 5)):
        phi = q_gaussian_state(q)
        result = gram_schmidt_mops(phi, 3)
        inner = functional_inner(phi, result.polynomials[(1, 2)], result.polynomials[(2, 1)])
        q121 = result.polynomials[(1, 2, 1)]
        factors = factor_into_one_variable_triple(q121)
        print(
            f"{str(q):>6}  {str(inner):>12}  {'yes' if result.is_mops else 'no':>5}  "
            f"{q121.to_str():<28} {'yes' if factors is not None else 'no'}"
        )
    print()
    semicircle = preset("semicircle")
    tensor = gram_schmidt_mops(tensor_state(semicircle, semicircle), 2)
    print(
        f"tensor (semicircle marginals): MOPS {'yes' if tensor.is_mops else 'no'}"
        + (f", witness {tensor.witness} with value {tensor.witness_value}" if tensor.witness else "")
    )


if __name__ == "__main__":
    main()
