"""The per-pair product of two Polynomials: the reference for Polynomial.__mul__.

Each pair of terms is multiplied in its coefficients' own arithmetic
(int, Fraction or GaussianRational), the products are added up per
monomial, and the constructor puts each sum in normalize's one form.
This is the textbook loop; it shares no code with the product in
multipoly, which clears the denominators of each operand once and works
over the Gaussian integers.
"""

from operator import add

from prymcert.multipoly import Polynomial


def reference_product(left, right):
    """left * right, term pair by term pair."""
    out = {}
    for m1, c1 in left.items():
        for m2, c2 in right.items():
            mono = tuple(map(add, m1, m2))
            prior = out.get(mono)
            out[mono] = c1 * c2 if prior is None else prior + c1 * c2
    return Polynomial(left.registry, out)  # each sum normalized, zeros dropped
