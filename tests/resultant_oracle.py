"""The resultant route to freeness: the test oracle for fixed_point_free_check.

fixed_point_free_check decides freeness from det M at the triple, by the
theorem that prymcert verify freeness checks.  The route it replaced is
kept here as an independent oracle: the triple's three equations,
restricted to the diagonal as 3x3 integer grids, are certified to share
no zero on P^1 x P^1 when the t-resultants of the pairs (1,2) and (1,3)
have no common projective root (weil_model._misses_common_zero, which
verify_diagonal still uses).  CertifiedEmpty from the oracle is a proof
that the curve misses the diagonal; Inconclusive proves nothing.
"""

from prymcert import weil_model as wm
from prymcert.exactnum import primitive

INCONCLUSIVE = "Inconclusive"


def diagonal_equations(triple):
    """The three equations a_k - (linear in a1..a3) of a triple, restricted
    to the diagonal, as 3x3 integer grids (form_grid).

    Each equation is cleared of denominators (exactnum.primitive of 1, u1,
    u2, u3, which scales by the lcm of the three denominators), so it is
    an integer combination of diagonal_grids(); a nonzero scalar does not
    move the zero set.
    """
    grids = wm.diagonal_grids()
    equations = []
    for target, row in zip(("a4", "a5", "a6"), (triple.a, triple.b, triple.c)):
        scale, u1, u2, u3 = primitive((1,) + row)[0]
        equations.append([
            [scale * a - u1 * b - u2 * c - u3 * d for a, b, c, d in zip(*rows)]
            for rows in zip(grids[target], grids["a1"], grids["a2"], grids["a3"])])
    return equations


def resultant_verdict(triple):
    """CertifiedEmpty when the resultants of the pairs (1,2) and (1,3) of
    the restricted equations certify that they share no zero, else
    Inconclusive (a zero restriction or resultant, or a shared root,
    including at infinity)."""
    certified = wm._misses_common_zero(diagonal_equations(triple), ((0, 1), (0, 2)))
    return wm.CERTIFIED_EMPTY if certified else INCONCLUSIVE
