"""Substitution into a Polynomial: the test tool behind the σ/τ action,
the rotation matrix, the det M slices and the diagonal-restriction oracle.

substitute(poly, bindings) is the ring homomorphism that sends each bound
variable to its image polynomial and carries every other variable of poly
by name into the images' registry.  It expands term by term with
Polynomial arithmetic, the textbook route, and shares no code with the
exponent maps of weil_model (rotate, restrict_to_diagonal).
"""

from prymcert.multipoly import Polynomial


def substitute(poly, bindings):
    """poly with each variable named in bindings replaced by its image.

    The images share one registry, the result's; an unbound variable of
    poly that occurs must exist there (UnknownVariable otherwise).
    """
    target = next(iter(bindings.values())).registry
    result = Polynomial.zero(target)
    for mono, coeff in poly.terms():
        term = Polynomial.constant(target, coeff)
        for name, e in zip(poly.registry.names, mono):
            if e:
                image = bindings[name] if name in bindings else Polynomial.variable(target, name)
                term = term * image ** e
        result = result + term
    return result
