"""The det M criterion for a free rotation, checked once.

Theorem.  For a rational triple, the curve that the triple cuts out meets
the diagonal x = s, y = t over C exactly when det M vanishes at the
triple.  So weil_model.fixed_point_free_check decides freeness from the
triple's det M, and check_freeness (prymcert verify freeness) recomputes
every fact the proof below rests on, raising CheckFailed at the first
one that fails.

The curve meets the diagonal at p = (s, t) when, for each row k of the
triple, a_(k+3)(p) = u1*a1(p) + u2*a2(p) + u3*a3(p), with alpha_j the
restriction of a_j (weil_model.diagonal_grids) as a (2,2)-form in s, t.

  * Chart identities.  Homogenize det M per row, to its degree in that
    row, with a coordinate u0 for a_(k+3).  In chart i (alpha_i != 0)
    every row meeting the diagonal at p is proportional to (u0, u) =
    (alpha_i, f*alpha_i at the two other slots j, alpha_(k+3) - sum
    f_j*alpha_j at slot i), two free coordinates f per row (chart_rows).
    Substituted into the homogenized det M, this is the zero polynomial
    in s, t and the six free coordinates, for i = 1, 2, 3.
  * Jacobian rank.  The affine chart map of chart 3, (s, t, u1, u2, v1,
    v2, w1, w2) -> the triple, has Jacobian rank 8 at RANK_POINT.
  * Irreducibility.  det M restricted to LINE, P + lambda*Q, keeps the
    total degree of det M and is irreducible modulo PRIME (Rabin's test;
    PRIME does not divide its leading coefficient).

Meets => det M = 0.  At p with alpha_i(p) != 0 the triple's rows are the
chart rows times 1/alpha_i(p), so det M vanishes there by chart i.  No
curve meets the diagonal where a1, a2, a3 all vanish, because a4, a5, a6
do not vanish there too (weil_model.verify_diagonal).  Points at
infinity are covered: an identity in s and t survives homogenization.

det M = 0 => meets.  The chart-3 map is defined on the open set alpha_3
!= 0 of affine 8-space, which is irreducible, so the closure of its
image is geometrically irreducible; its dimension is the generic rank
of the Jacobian (characteristic 0), which the rank at RANK_POINT shows
to be 8.  So the closure is V(h) for one absolutely irreducible h, and h
can be taken over Q, because the map is defined over Q and V(h) is
Galois-stable.  det M vanishes on the image by the chart identity, so h
divides det M.  A factorization of det M over Q restricts to LINE as one
into factors of the same degrees, because the restriction keeps the
full degree, and its reduction modulo PRIME, which keeps the degree, is
irreducible; so det M is irreducible over Q and V(det M) = V(h).  The
image lies in the set of meeting triples (each chart row meets the
diagonal by construction), and that set is closed: it is the projection
of a closed set along the complete P^1 x P^1.  So it contains V(det M).
(Shafarevich, Basic Algebraic Geometry 1, ch. I; Rabin, Probabilistic
algorithms in finite fields, SIAM J. Comput. 1980.)

Only the verify freeness subcommand imports this module.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import isqrt

from . import CheckFailed
from .linalg import ScalarMatrix, kernel_basis
from .multipoly import Polynomial, VariableRegistry
from .weil_model import (
    COEFF_VARS,
    diagonal_grids,
    elimination_determinant,
    verify_diagonal,
)

PARAMETERS = ("s", "t", "u1", "u2", "v1", "v2", "w1", "w2")

ROW_TARGETS = ("a4", "a5", "a6")

# the point of the chart-3 map where its Jacobian has rank 8, in PARAMETERS order
RANK_POINT = (Fraction(3, 7), Fraction(-5, 3), 2, -1, 4, 7, -3, 5)

# the line P + lambda*Q in COEFF_VARS order, and a prime modulo which the
# restriction of det M to it is irreducible
LINE = ((-3, 4, -4, -1, -4, 2, 2, 2, 5), (1, -2, -4, 2, -5, 1, 1, 4, -5))
PRIME = 19


def _chart_registry() -> VariableRegistry:
    return VariableRegistry(PARAMETERS)


def chart_rows(chart: int) -> "list[list[Polynomial]]":
    """The homogeneous rows (u0, u1, u2, u3) of chart 1, 2 or 3, one per
    row of the triple, as polynomials in PARAMETERS.

    Row k meets the diagonal at (s, t) by construction: u1*alpha_1 +
    u2*alpha_2 + u3*alpha_3 = u0*alpha_(k+3).
    """
    reg = _chart_registry()
    alpha = {name: Polynomial(reg, {(j, k) + (0,) * 6: c
                                    for k, row in enumerate(grid) for j, c in enumerate(row)})
             for name, grid in diagonal_grids().items()}
    basis = [alpha["a1"], alpha["a2"], alpha["a3"]]
    free = Polynomial.variables(reg, *PARAMETERS[2:])
    slot = chart - 1
    rows = []
    for k, target in enumerate(ROW_TARGETS):
        others = [j for j in range(3) if j != slot]
        pair = dict(zip(others, free[2 * k:2 * k + 2]))
        u = [pair[j] * basis[slot] if j != slot else
             alpha[target] - sum((pair[m] * basis[m] for m in others),
                                 Polynomial.zero(reg))
             for j in range(3)]
        rows.append([basis[slot]] + u)
    return rows


def chart_identity(det: Polynomial, chart: int) -> Polynomial:
    """The homogenized det (per row, to its degree in that row) at the rows
    of a chart; the zero polynomial when the chart identity holds.

    Summed row by row over the terms grouped by their exponents in the
    first and then the second row, so each product of row powers is
    formed once.
    """
    rows = chart_rows(chart)
    tops = [max(sum(m[3 * k:3 * k + 3]) for m, _ in det.items()) for k in range(3)]
    tree: dict = {}
    for mono, c in det.items():
        tree.setdefault(mono[0:3], {}).setdefault(mono[3:6], {})[mono[6:9]] = c
    powers: dict = {}

    def row_monomial(k: int, exps: "tuple[int, int, int]") -> Polynomial:
        if (k, exps) not in powers:
            u0, *u = rows[k]
            value = u0 ** (tops[k] - sum(exps))
            for factor, e in zip(u, exps):
                value = value * factor ** e
            powers[k, exps] = value
        return powers[k, exps]

    zero = Polynomial.zero(_chart_registry())
    total = zero
    for ea, by_b in tree.items():
        inner = zero
        for eb, by_c in by_b.items():
            leaf = sum((c * row_monomial(2, ec) for ec, c in by_c.items()), zero)
            inner = inner + row_monomial(1, eb) * leaf
        total = total + row_monomial(0, ea) * inner
    return total


def _derivative(poly: Polynomial, k: int) -> Polynomial:
    """The partial derivative in registry variable k."""
    return Polynomial(poly.registry, {m[:k] + (m[k] - 1,) + m[k + 1:]: c * m[k]
                                      for m, c in poly.items() if m[k]})


def jacobian_rank(chart: int, point: "tuple") -> int:
    """Rank of the Jacobian of the affine chart map at a point of PARAMETERS.

    The map sends a point to the triple whose row k is (u1, u2, u3) / u0
    of chart_rows; each entry of the 9 x 8 Jacobian is a quotient rule
    evaluated exactly at the point.  CheckFailed where u0 vanishes.
    """
    at = dict(zip(PARAMETERS, point))
    entries = []
    for u0, *u in chart_rows(chart):
        d = u0.evaluate(at)
        if not d:
            raise CheckFailed(f"the recorded point is off chart a{chart}")
        for n in u:
            value = n.evaluate(at)
            entries.append([(_derivative(n, k).evaluate(at) * d
                             - value * _derivative(u0, k).evaluate(at)) / Fraction(d) ** 2
                            for k in range(len(PARAMETERS))])
    return len(PARAMETERS) - len(kernel_basis(ScalarMatrix(entries)))


def line_restriction(det: Polynomial, line: "tuple") -> "list[int]":
    """Coefficients (lowest first, no trailing zeros) of det at P +
    lambda*Q, from its values at lambda = 0..deg det by Newton
    interpolation over Q.

    CheckFailed when a coefficient is not an integer, which no integer
    polynomial at an integer line can give.
    """
    start, direction = line
    nodes = range(det.total_degree() + 1)
    values = [Fraction(det.evaluate({name: p + x * q for name, p, q
                                     in zip(COEFF_VARS, start, direction)})) for x in nodes]
    for level in range(1, len(values)):  # divided differences, in place
        for j in range(len(values) - 1, level - 1, -1):
            values[j] = (values[j] - values[j - 1]) / level
    coeffs = [values[-1]]
    for node in reversed(nodes[:-1]):  # Horner on the Newton form
        coeffs = [values[node] - node * coeffs[0]] + [
            low - node * high for low, high in zip(coeffs, coeffs[1:] + [0])]
    if any(c.denominator != 1 for c in coeffs):
        raise CheckFailed("det M on the recorded line has a non-integer coefficient")
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return [int(c) for c in coeffs]


def _reduce(a: "list[int]", p: int) -> "list[int]":
    """A coefficient list modulo p, without trailing zeros."""
    a = [c % p for c in a]
    while a and not a[-1]:
        a.pop()
    return a


def _mod(a: "list[int]", f: "list[int]", p: int) -> "list[int]":
    """a modulo a monic f over F_p."""
    a = _reduce(a, p)
    n = len(f) - 1
    while len(a) > n:
        top = a.pop()
        if top:
            for k in range(n):
                a[len(a) - n + k] = (a[len(a) - n + k] - top * f[k]) % p
    return _reduce(a, p)


def _mul_mod(a: "list[int]", b: "list[int]", f: "list[int]", p: int) -> "list[int]":
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _mod(out, f, p)


def _frobenius(h: "list[int]", f: "list[int]", p: int) -> "list[int]":
    """h^p modulo a monic f over F_p, by square and multiply."""
    result, base, e = [1], h, p
    while e:
        if e & 1:
            result = _mul_mod(result, base, f, p)
        base = _mul_mod(base, base, f, p)
        e >>= 1
    return result


def _gcd(a: "list[int]", b: "list[int]", p: int) -> "list[int]":
    """A gcd over F_p (not made monic)."""
    a, b = _reduce(a, p), _reduce(b, p)
    while b:
        inverse = pow(b[-1], -1, p)
        a, b = b, _mod(a, [c * inverse % p for c in b], p)
    return a


def _prime_factors(n: int) -> "list[int]":
    return [q for q in range(2, n + 1) if n % q == 0 and _is_prime(q)]


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))


def irreducible_mod(f: "list[int]", p: int) -> bool:
    """Rabin's test: f of degree n >= 1, with p prime not dividing its
    leading coefficient, is irreducible over F_p exactly when f divides
    x^(p^n) - x and x^(p^(n/q)) - x is coprime to f for each prime q | n."""
    inverse = pow(f[-1], -1, p)
    monic = [c * inverse % p for c in f]
    n = len(f) - 1
    x = _mod([0, 1], monic, p)
    powers = [x]  # powers[k] = x^(p^k) mod f
    for _ in range(n):
        powers.append(_frobenius(powers[-1], monic, p))
    if powers[n] != x:
        return False
    return all(len(_gcd(monic, [c - d for c, d in zip_longest(powers[n // q], x, fillvalue=0)],
                        p)) == 1
               for q in _prime_factors(n))


def check_freeness() -> "dict[str, object]":
    """Recompute every fact the theorem rests on; CheckFailed at the first
    that fails, the chart identities (the costly part) last.  Returns what
    was checked, for the verify subcommand."""
    verify_diagonal()  # a1..a6 share no zero on the diagonal
    det = elimination_determinant()
    restriction = line_restriction(det, LINE)
    degree = len(restriction) - 1
    if degree != det.total_degree():
        raise CheckFailed(f"det M on the recorded line has degree {degree}, "
                          f"expected its total degree {det.total_degree()}")
    if not _is_prime(PRIME) or restriction[-1] % PRIME == 0:
        raise CheckFailed(f"{PRIME} is not a prime that keeps the degree of det M "
                          f"on the recorded line")
    if not irreducible_mod(restriction, PRIME):
        raise CheckFailed(f"det M on the recorded line is reducible modulo {PRIME}")
    rank = jacobian_rank(3, RANK_POINT)
    if rank != len(PARAMETERS):
        raise CheckFailed(f"Jacobian of the chart-a3 map has rank {rank} at the "
                          f"recorded point, expected {len(PARAMETERS)}")
    for chart in (1, 2, 3):
        residual = chart_identity(det, chart)
        if residual:
            raise CheckFailed(f"chart identity a{chart}: nonzero residual with "
                              f"{residual.term_count()} terms")
    return {"chart_identities": [f"a{chart}" for chart in (1, 2, 3)],
            "jacobian_rank": rank,
            "line": [list(LINE[0]), list(LINE[1])],
            "line_degree": degree,
            "prime": PRIME}
