"""The Sylvester resultant over Polynomial: the test oracle for t_resultant.

weil_model.t_resultant takes the t-resultant of two (2,2)-forms by the
Bezout formula on 3x3 integer grids.  The reference here is the textbook
route the freeness checks took before: the Sylvester matrix of two
polynomials in one variable at declared degrees, with Polynomial
entries, and its determinant by first-row Laplace expansion with no
memoization.
"""

from prymcert import weil_model as wm
from prymcert.multipoly import Polynomial


def coefficients_in(poly, name, degree):
    """Dense coefficients [c_0, ..., c_degree] of poly in one variable."""
    k = poly.registry.index(name)
    buckets = [{} for _ in range(degree + 1)]
    for mono, coeff in poly.terms():
        if mono[k] > degree:
            raise ValueError(f"{poly} has degree above {degree} in {name}")
        buckets[mono[k]][mono[:k] + (0,) + mono[k + 1:]] = coeff
    return [Polynomial(poly.registry, b) for b in buckets]


def naive_det(rows):
    """First-row Laplace expansion with no memoization."""
    if len(rows) == 1:
        return rows[0][0]
    total = Polynomial.zero(rows[0][0].registry)
    for j, entry in enumerate(rows[0]):
        minor = naive_det([r[:j] + r[j + 1:] for r in rows[1:]])
        total = total - entry * minor if j % 2 else total + entry * minor
    return total


def sylvester_rows(f, g, name, deg_f, deg_g):
    """deg_g rows of f's coefficients, then deg_f rows of g's, descending powers."""
    zero = Polynomial.zero(f.registry)
    fc = coefficients_in(f, name, deg_f)[::-1]
    gc = coefficients_in(g, name, deg_g)[::-1]
    return ([[zero] * k + fc + [zero] * (deg_g - 1 - k) for k in range(deg_g)]
            + [[zero] * k + gc + [zero] * (deg_f - 1 - k) for k in range(deg_f)])


def sylvester_resultant(f, g, name, deg_f, deg_g):
    """Determinant of the Sylvester matrix of f and g at declared degrees."""
    return naive_det(sylvester_rows(f, g, name, deg_f, deg_g))


def grid_form(grid):
    """The (2,2)-form in s, t of a grid (grid[k][j] is the coefficient of s^j t^k)."""
    return Polynomial(wm.diagonal_registry(),
                      {(j, k): c for k, row in enumerate(grid) for j, c in enumerate(row)})


def reference_t_resultant(f, g):
    """The t-resultant of two grids at declared degree 2, as nine coefficients in s."""
    r = sylvester_resultant(grid_form(f), grid_form(g), "t", 2, 2)
    return [r.coefficient((j, 0)) for j in range(9)]
