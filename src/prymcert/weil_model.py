"""The multilinear-form algebra on (P^1)^4 under the order-4 variable rotation.

Everything here works in the affine chart (s, t, x, y).  The space V of
multilinear forms (each variable of degree at most 1) is 16-dimensional;
the rotation sigma acts on it with eigenvalues 1, -1, i, -i and named
eigenvectors a1..a6, b1..b4, c1..c3, d1..d3.  This module certifies, in
exact arithmetic:

  * the eigenspace decomposition of the rotation sigma on V: sigma
    permutes the 16 multilinear monomials by rotating their exponent
    tuples (rotate), each eigenspace has one orbit-sum basis vector per
    sigma-orbit whose size k has lambda^k = 1, and the named generators
    are matched to it in one pass over their terms, without elimination
    (the test suite also checks the dihedral relations sigma^4 = tau^2 =
    1, tau*sigma*tau = sigma^-1 with the involution tau swapping s and x,
    but no verdict rests on them);
  * the 17 product identities: the unique cubic relation among a1..a6,
    the seven expressions of b-products over invariant quadratics, and
    the nine expressions of c*d-products;
  * the restriction of a1..a6 to the diagonal x=s, y=t (proportionality
    factors, and base-point-freeness of the restricted system by the
    common-zero routine described below);
  * the elimination of a4, a5, a6 by linear expressions in a1..a3 with
    coefficients A1..A3, B1..B3, C1..C3, producing the 6x6 matrix that
    expresses the c*d combinations over the invariant quadratics and the
    7x6 relation matrix of the b-products;
  * the determinant certificate (det at the origin is 1, symbolic det is
    nonzero), its evaluation at rational coefficient triples, and the
    cross-check of an evaluated value against Gauss-Jordan elimination
    of the evaluated 6x6 over Q;
  * the degree computation in the Chow ring Z[h1..h4]/(h_i^2), a
    permanent, giving curve genus 13;
  * emptiness of the intersection with the diagonal for a given triple
    (the same common-zero routine on the restricted equations), which
    makes the rotation act freely on the curve.

The per-triple checks work on dense data.  An evaluated matrix is built
by multipoly.evaluate_all, whose one power table per variable serves
all entries.  The diagonal checks store each restricted (2,2)-form as a
3x3 integer grid (form_grid).  One routine, _misses_common_zero, decides
both of them: it takes the t-resultants of given pairs of grids by the
Bezout formula for two binary quadratics on coefficient lists in Z[s]
(t_resultant) and certifies that the forms share no zero on P^1 x P^1
when the resultants have no common projective root.
verify_diagonal passes all 15 pairs of the restricted a1..a6, and
fixed_point_free_check the pairs (1,2) and (1,3) of a triple's three
equations.  No Sylvester matrix and no Polynomial is built per triple.

The action convention is pinned by tests: sigma acts on polynomials by
the substitution s->t, t->x, x->y, y->s, the unique convention for which
c1 = s - i*t - x + i*y is multiplied by +i.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import gcd, prod
from typing import Iterable, Mapping, Sequence

from . import CheckFailed
from .exactnum import (
    Coefficient,
    Frozen,
    GaussianRational,
    IMAG_UNIT,
    Rational,
    primitive,
    quotient,
)
from .linalg import (
    PolyMatrix,
    ScalarMatrix,
    det_expansion,
    det_rref,
    kernel_basis,
    rank,
)
from .multipoly import Monomial, Polynomial, VariableRegistry, evaluate_all

CHART_VARS = ("s", "t", "x", "y")

COEFF_VARS = ("A1", "A2", "A3", "B1", "B2", "B3", "C1", "C2", "C3")

INVARIANT_NAMES = ("a1", "a2", "a3", "a4", "a5", "a6")

CERTIFIED_EMPTY = "CertifiedEmpty"
INCONCLUSIVE = "Inconclusive"


class EigenbasisMismatch(CheckFailed):
    """A computed eigenspace does not match the span of the named generators."""


class BasePointFound(CheckFailed):
    """The restricted linear system could not be certified base-point free."""


class NonzeroRemainder(CheckFailed):
    """Elimination left a component outside the quadratic basis (engine fault)."""


class KernelNotUnique(ValueError):
    """The relation matrix kernel is not 1-dimensional at this triple."""

    def __init__(self, dimension: int):
        super().__init__(f"relation-matrix kernel has dimension {dimension}, expected 1")
        self.dimension = dimension


def chart_registry() -> VariableRegistry:
    return VariableRegistry(CHART_VARS)


def rotate(mono: Monomial) -> Monomial:
    """The image of a chart monomial under sigma, as an exponent tuple.

    The pullback s->t, t->x, x->y, y->s (see module docstring) moves the
    exponent of s to t, of t to x, of x to y and of y to s.
    """
    return mono[-1:] + mono[:-1]


# ---------------------------------------------------------------------------
# the eigenbasis
# ---------------------------------------------------------------------------

def _build_generators(reg: VariableRegistry) -> "dict[str, Polynomial]":
    s, t, x, y = Polynomial.variables(reg, "s", "t", "x", "y")
    i = IMAG_UNIT
    one = Polynomial.constant(reg, 1)
    return {
        "a1": s + t + x + y,
        "a2": s * t + t * x + x * y + y * s,
        "a3": t * x * y + s * x * y + s * t * y + s * t * x,
        "a4": s * x + t * y,
        "a5": s * t * x * y,
        "a6": one,
        "b1": s - t + x - y,
        "b2": s * t - t * x + x * y - y * s,
        "b3": t * x * y - s * x * y + s * t * y - s * t * x,
        "b4": s * x - t * y,
        "c1": s - i * t - x + i * y,
        "c2": s * t - i * (t * x) - x * y + i * (y * s),
        "c3": t * x * y - i * (s * x * y) - s * t * y + i * (s * t * x),
        "d1": s + i * t - x - i * y,
        "d2": s * t + i * (t * x) - x * y - i * (y * s),
        "d3": t * x * y + i * (s * x * y) - s * t * y - i * (s * t * x),
    }


@lru_cache(maxsize=1)
def generators() -> "dict[str, Polynomial]":
    """The named eigenvectors as polynomials in the chart registry."""
    return _build_generators(chart_registry())


# eigenvalue label -> (eigenvalue, the named generators of its eigenspace)
_EIGENSPACES = {
    "+1": (1, ("a1", "a2", "a3", "a4", "a5", "a6")),
    "-1": (-1, ("b1", "b2", "b3", "b4")),
    "+i": (IMAG_UNIT, ("c1", "c2", "c3")),
    "-i": (-IMAG_UNIT, ("d1", "d2", "d3")),
}

EIGENVALUE_LABELS = tuple(_EIGENSPACES)


def multilinear_monomials(reg: VariableRegistry) -> "list[Monomial]":
    """The 16 exponent tuples with every entry 0 or 1, in graded-lex order."""
    width = len(reg)
    monos = []
    for bits in range(1 << width):
        monos.append(tuple((bits >> k) & 1 for k in range(width)))
    monos.sort(key=lambda m: (sum(m), m), reverse=True)
    return monos


def sigma_orbits(monos: Sequence[Monomial]) -> "list[tuple[Monomial, ...]]":
    """The orbits of sigma (rotate) on a sigma-stable list of monomials.

    Each orbit is listed as m, sigma(m), sigma^2(m), ... from its first
    monomial in the order of monos.
    """
    orbits = []
    seen: set[Monomial] = set()
    for mono in monos:
        if mono in seen:
            continue
        orbit = [mono]
        image = rotate(mono)
        while image != mono:
            orbit.append(image)
            image = rotate(image)
        seen.update(orbit)
        orbits.append(tuple(orbit))
    return orbits


def eigen_decomposition() -> "tuple[int, int, int, int]":
    """Match the named generators to the eigenspaces of the rotation.

    sigma permutes the 16 multilinear monomials (rotate).  For each orbit
    (m, sigma(m), ..., sigma^(k-1)(m)) whose size k has alpha^k = 1, the
    orbit sum sum_j alpha^(-j) sigma^j(m) is an alpha-eigenvector (the
    projection formula for a cyclic group).  Sums over disjoint orbits
    are independent, and every orbit of size k (k divides 4) serves
    exactly k of the eigenvalues 1, -1, i, -i, so the four eigenspaces
    get 16 orbit sums between them, and those for alpha span the whole
    alpha-eigenspace.  The sum for m has coefficient 1 at m and 0 at
    every other representative orbit[0], so the coordinates of an
    eigenvector in this basis are its coefficients at the
    representatives, and the dimension is their number.

    Each named generator g must satisfy sigma(g) = alpha*g as a
    polynomial identity, and the square matrix of the generators'
    coordinates at the representatives must have a nonzero determinant,
    so they are a basis of that eigenspace.  EigenbasisMismatch is raised
    on any discrepancy.  Returns the dimensions in the order of
    EIGENVALUE_LABELS.
    """
    reg = chart_registry()
    orbits = sigma_orbits(multilinear_monomials(reg))
    gens = generators()
    dims = []
    for label, (alpha, names) in _EIGENSPACES.items():
        representatives = [orbit[0] for orbit in orbits if alpha ** len(orbit) == 1]
        if len(representatives) != len(names):
            raise EigenbasisMismatch(
                f"eigenspace {label}: dimension {len(representatives)}, "
                f"expected {len(names)}")
        for name in names:
            rotated = Polynomial(reg, {rotate(m): c for m, c in gens[name].terms()})
            if rotated != alpha * gens[name]:
                raise EigenbasisMismatch(f"named generator {name} is not a {label}-eigenvector")
        coordinates = ScalarMatrix.from_rows(
            [[gens[name].coefficient(m) for m in representatives] for name in names])
        if not det_expansion(coordinates):
            raise EigenbasisMismatch(f"named generators for {label} are dependent")
        dims.append(len(representatives))
    return tuple(dims)


# ---------------------------------------------------------------------------
# the identity suite
# ---------------------------------------------------------------------------

def _relation_tables(a: Mapping[str, Polynomial]):
    """Right sides of the product identities over the invariant generators.

    Returns (b_rows, cd_rows): ordered (label, rhs) pairs expressing the
    seven b-products and the six invariant-valued c*d combinations.
    """
    a1, a2, a3, a4, a5, a6 = (a[n] for n in INVARIANT_NAMES)
    b_rows = (
        ("b1^2", a1 ** 2 - 4 * (a2 * a6)),
        ("b2^2", a2 ** 2 - 4 * (a1 * a3 - a2 * a4) + 16 * (a5 * a6)),
        ("b3^2", a3 ** 2 - 4 * (a2 * a5)),
        ("b1*b3", a1 * a3 - 2 * (a2 * a4)),
        ("b1*b4", a1 * a4 - 2 * (a3 * a6)),
        ("b3*b4", -(a3 * a4) + 2 * (a1 * a5)),
        ("b4^2", a4 ** 2 - 4 * (a5 * a6)),
    )
    cd_rows = (
        ("c1*d1", a1 ** 2 - 2 * (a2 * a6) - 4 * (a4 * a6)),
        ("c2*d2", a2 ** 2 - 2 * (a1 * a3) + 2 * (a2 * a4)),
        ("c3*d3", a3 ** 2 - 2 * (a2 * a5) - 4 * (a4 * a5)),
        ("c1*d2-i*c2*d1", a1 * a2 - 4 * (a3 * a6)),
        ("c1*d3+c3*d1", -(a1 * a3) + a2 * a4 + 8 * (a5 * a6)),
        ("c2*d3+i*c3*d2", -(a2 * a3) + 4 * (a1 * a5)),
    )
    return b_rows, cd_rows


def cubic_relation(a: Mapping[str, Polynomial]) -> Polynomial:
    """The unique cubic relation among the six invariant generators."""
    a1, a2, a3, a4, a5, a6 = (a[n] for n in INVARIANT_NAMES)
    return (a1 ** 2 * a5 - a1 * a3 * a4 + a2 * a4 ** 2
            - 4 * (a2 * a5 * a6) + a3 ** 2 * a6)


IDENTITY_NAMES = (
    "cubic",
    "b1^2", "b2^2", "b3^2", "b1*b3", "b1*b4", "b3*b4", "b4^2",
    "c1*d1", "c3*d3", "c2*d2",
    "c1*d3+c3*d1", "c1*d3-c3*d1",
    "c1*d2-i*c2*d1", "c1*d2+i*c2*d1",
    "c2*d3+i*c3*d2", "c2*d3-i*c3*d2",
)


def _self_or_pair_product(g: Mapping[str, Polynomial], label: str) -> Polynomial:
    """Product named by a label like 'b1^2' or 'b1*b3'."""
    if "^" in label:
        base = g[label.split("^")[0]]
        return base * base
    left, right = label.split("*")
    return g[left] * g[right]


@lru_cache(maxsize=1)
def identity_residuals() -> "dict[str, Polynomial]":
    """Residual (lhs - rhs) of all 17 identities, after substituting the
    chart definitions of the generators; every residual must be zero."""
    g = generators()
    i = IMAG_UNIT
    half = Fraction(1, 2)
    b_rows, cd_rows = _relation_tables(g)
    rhs = dict(b_rows)
    rhs.update(dict(cd_rows))
    residuals: dict[str, Polynomial] = {"cubic": cubic_relation(g)}
    for name, rhs_poly in b_rows:
        residuals[name] = _self_or_pair_product(g, name) - rhs_poly
    c1, c2, c3 = g["c1"], g["c2"], g["c3"]
    d1, d2, d3 = g["d1"], g["d2"], g["d3"]
    b1, b2, b3, b4 = g["b1"], g["b2"], g["b3"], g["b4"]
    residuals["c1*d1"] = c1 * d1 - rhs["c1*d1"]
    residuals["c3*d3"] = c3 * d3 - rhs["c3*d3"]
    residuals["c2*d2"] = c2 * d2 - rhs["c2*d2"]
    residuals["c1*d3+c3*d1"] = half * (c1 * d3 + c3 * d1) - rhs["c1*d3+c3*d1"]
    residuals["c1*d3-c3*d1"] = (i / 2) * (c1 * d3 - c3 * d1) - b2 * b4
    residuals["c1*d2-i*c2*d1"] = (
        (1 / (1 - i)) * (c1 * d2 - i * (c2 * d1)) - rhs["c1*d2-i*c2*d1"])
    residuals["c1*d2+i*c2*d1"] = (1 / (1 + i)) * (c1 * d2 + i * (c2 * d1)) - b1 * b2
    residuals["c2*d3+i*c3*d2"] = (
        (1 / (1 + i)) * (c2 * d3 + i * (c3 * d2)) - rhs["c2*d3+i*c3*d2"])
    residuals["c2*d3-i*c3*d2"] = (-i / (1 + i)) * (c2 * d3 - i * (c3 * d2)) - b2 * b3
    assert tuple(residuals) == IDENTITY_NAMES
    return residuals


def check_identities() -> "tuple[str, ...]":
    """IDENTITY_NAMES once every residual is zero, else CheckFailed naming each nonzero one."""
    failed = [name for name, residual in identity_residuals().items() if residual]
    if failed:
        raise CheckFailed(f"nonzero residual in {', '.join(failed)}")
    return IDENTITY_NAMES


B_IDENTITY_NAMES = IDENTITY_NAMES[1:8]
CD_IDENTITY_NAMES = IDENTITY_NAMES[8:]


# ---------------------------------------------------------------------------
# diagonal restriction
# ---------------------------------------------------------------------------

DIAGONAL_VARS = ("s", "t")


def diagonal_registry() -> VariableRegistry:
    return VariableRegistry(DIAGONAL_VARS)


def restrict_to_diagonal(poly: Polynomial) -> Polynomial:
    """Restrict a chart polynomial to the diagonal x = s, y = t."""
    reg = diagonal_registry()
    s, t = Polynomial.variables(reg, "s", "t")
    return poly.substitute({"x": s, "y": t})


@lru_cache(maxsize=1)
def diagonal_generators() -> "dict[str, Polynomial]":
    """The invariant generators a1..a6 restricted to the diagonal, computed once."""
    gens = generators()
    return {name: restrict_to_diagonal(gens[name]) for name in INVARIANT_NAMES}


def form_grid(form: Polynomial) -> "list[list[int]]":
    """A (2,2)-form in s, t with integer coefficients as a 3x3 grid.

    grid[k][j] is the coefficient of s^j t^k, so grid[k] is the dense
    coefficient list in s of t^k.  ValueError for anything else.
    """
    if form.registry != diagonal_registry():
        raise ValueError(f"{form} is not a form in {DIAGONAL_VARS}")
    grid = [[0] * 3 for _ in range(3)]
    for (j, k), coeff in form.items():
        if j > 2 or k > 2 or type(coeff) is not int:
            raise ValueError(f"{form} is not a (2,2)-form over Z")
        grid[k][j] = coeff
    return grid


@lru_cache(maxsize=1)
def diagonal_grids() -> "dict[str, list[list[int]]]":
    """The restricted generators a1..a6 as 3x3 integer grids, computed once."""
    return {name: form_grid(form) for name, form in diagonal_generators().items()}


def _diagonal_reference(reg: VariableRegistry) -> "dict[str, Polynomial]":
    """Affine reference forms of the restricted generators (defined up to scale)."""
    s, t = Polynomial.variables(reg, "s", "t")
    return {
        "a1": s + t,
        "a2": s * t,
        "a3": s ** 2 * t + s * t ** 2,
        "a4": s ** 2 + t ** 2,
        "a5": s ** 2 * t ** 2,
        "a6": Polynomial.constant(reg, 1),
    }


def diagonal_restriction_factors() -> "tuple[int | Fraction, ...]":
    """Exact proportionality factor of each restricted invariant generator."""
    reference = _diagonal_reference(diagonal_registry())
    factors = []
    for name, restricted in diagonal_generators().items():
        ref = reference[name]
        if not restricted:
            raise CheckFailed(f"{name!r} restricts to zero on the diagonal")
        (_, lead_r) = restricted.leading()
        (_, lead_q) = ref.leading()
        factor = quotient(lead_r, lead_q)
        if isinstance(factor, GaussianRational):
            raise CheckFailed(f"{name!r} on the diagonal is not a rational multiple "
                              f"of its reference form")
        if restricted - factor * ref:
            raise CheckFailed(f"identity '{name}|diag' has nonzero residual "
                              f"{restricted - factor * ref}")
        factors.append(factor)
    return tuple(factors)


def _poly_degree(coeffs: "list[Coefficient]") -> int:
    for k in range(len(coeffs) - 1, -1, -1):
        if coeffs[k]:
            return k
    return -1


def _univariate_gcd(a: "list[Coefficient]",
                    b: "list[Coefficient]") -> "list[Coefficient]":
    """Monic gcd of dense univariate coefficient lists over Q.

    Runs over Z as a primitive remainder sequence: both inputs are
    cleared of denominators and content, and every pseudo-remainder is
    made primitive again.  The monic gcd over Q is unique, so the result
    is the one Euclid's algorithm over Q gives.
    """
    a = primitive(a[: _poly_degree(a) + 1])[0]
    b = primitive(b[: _poly_degree(b) + 1])[0]
    while b:
        a, b = b, primitive(_pseudo_mod(a, b))[0]
    if not a:
        return []
    lead = a[-1]
    return [quotient(c, lead) for c in a]


def _pseudo_mod(a: "list[int]", b: "list[int]") -> "list[int]":
    """Remainder of c * a modulo b for some nonzero integer c, over Z (b nonzero)."""
    r = list(a)
    db = len(b) - 1
    lead = b[-1]
    while len(r) - 1 >= db and r:
        top = r.pop()
        if not top:
            continue
        g = gcd(top, lead)
        scale, q = lead // g, top // g
        shift = len(r) - db
        r = [c * scale for c in r]
        for k in range(db):
            r[shift + k] -= q * b[k]
    while r and not r[-1]:
        r.pop()
    return r


def _cross(p: "list[int]", q: "list[int]", r: "list[int]", u: "list[int]") -> "list[int]":
    """p*q - r*u for dense integer coefficient lists, p, r and q, u of equal lengths."""
    out = [0] * (len(p) + len(q) - 1)
    for sign, left, right in ((1, p, q), (-1, r, u)):
        for i, a in enumerate(left):
            if a:
                for j, b in enumerate(right):
                    out[i + j] += sign * a * b
    return out


def t_resultant(f: "list[list[int]]", g: "list[list[int]]") -> "list[int]":
    """Resultant in t of two (2,2)-forms given as grids (form_grid).

    With f = a2 t^2 + a1 t + a0 and g = b2 t^2 + b1 t + b0, the a_k and b_k
    in Z[s] of degree <= 2, this is the Bezout form of the Sylvester
    determinant of two binary quadratics,
    (a2 b0 - a0 b2)^2 - (a2 b1 - a1 b2)(a1 b0 - a0 b1),
    returned as the dense coefficient list in s of a binary form of
    declared degree 8 (nine entries).  It vanishes at s exactly when the
    two forms share a root t on P^1 there, t = infinity included.
    """
    (a0, a1, a2), (b0, b1, b2) = f, g
    c20 = _cross(a2, b0, a0, b2)
    return _cross(c20, c20, _cross(a2, b1, a1, b2), _cross(a1, b0, a0, b1))


def _misses_common_zero(forms: "Sequence[list[list[int]]]",
                        pairs: "Iterable[tuple[int, int]]") -> bool:
    """True when the listed pairs of (2,2)-forms (grids) certify that the
    forms have no common zero on P^1 x P^1.

    A common zero (s, t) makes the t-resultant of every pair vanish at s.
    So the forms share no zero when the resultants, binary forms of degree
    8 in s, have no common projective root: some resultant keeps degree 8
    (no root at infinity), and the gcd of the resultants as polynomials in
    s is constant.  An identically zero resultant vanishes everywhere and
    so constrains nothing (_univariate_gcd(f, 0) is f).  An empty set of
    resultants certifies nothing, and neither does a single nonzero one (a
    binary form of degree 8 always has a projective root).
    """
    resultants = [t_resultant(forms[i], forms[j]) for i, j in pairs]
    if all(_poly_degree(r) < 8 for r in resultants):
        return False  # a common root at infinity
    common = None
    for r in resultants:
        common = r if common is None else _univariate_gcd(common, r)
        if _poly_degree(common) == 0:
            return True
    return False


def verify_diagonal() -> "tuple[int | Fraction, ...]":
    """Proportionality factors (restricted a_k = factor * reference form),
    once the restricted system is certified base-point-free.

    The six restricted generators (diagonal_grids) have no common zero on
    P^1 x P^1 when the t-resultants of all 15 pairs certify it
    (_misses_common_zero, the routine fixed_point_free_check also uses).
    BasePointFound is raised when emptiness cannot be certified.
    """
    factors = diagonal_restriction_factors()
    grids = list(diagonal_grids().values())
    if not _misses_common_zero(grids, combinations(range(len(grids)), 2)):
        raise BasePointFound("the pairwise resultants do not exclude a common zero")
    return factors


# ---------------------------------------------------------------------------
# elimination
# ---------------------------------------------------------------------------

# Numerators and denominators of triple entries have at most this many
# digits.  At such triples the numerators and denominators of det M and
# of the vanishing quadric have about 2700 and 3000 digits, below the
# 4300 that int-to-str conversion allows.
ENTRY_DIGITS = 100


class CoefficientTriple(Frozen):
    """Rational coefficients (A1..A3, B1..B3, C1..C3) of the elimination."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a: "tuple[Fraction, Fraction, Fraction]",
                 b: "tuple[Fraction, Fraction, Fraction]",
                 c: "tuple[Fraction, Fraction, Fraction]"):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @classmethod
    def from_rationals(cls, values: Iterable[Fraction | int]) -> "CoefficientTriple":
        vals = tuple(Fraction(v) for v in values)
        if len(vals) != 9:
            raise ValueError(f"need 9 rationals, got {len(vals)}")
        bound = 10 ** ENTRY_DIGITS
        for k, v in enumerate(vals, 1):
            if abs(v.numerator) >= bound or v.denominator >= bound:
                raise ValueError(f"entry {k} of the triple has more than {ENTRY_DIGITS} "
                                 f"digits in its numerator or denominator")
        return cls(vals[0:3], vals[3:6], vals[6:9])

    @classmethod
    def origin(cls) -> "CoefficientTriple":
        return cls.from_rationals([0] * 9)

    def values(self) -> "tuple[Fraction, ...]":
        return self.a + self.b + self.c

    def as_point(self) -> "dict[str, Fraction]":
        return dict(zip(COEFF_VARS, self.values()))


ALPHA_LABELS = ("a1^2", "a2^2", "a3^2", "a1*a2", "a1*a3", "a2*a3")

GAMMA_LABELS = ("c1*d1", "c2*d2", "c3*d3",
                "c1*d2-i*c2*d1", "c1*d3+c3*d1", "c2*d3+i*c3*d2")

B_PRODUCT_LABELS = ("b1^2", "b2^2", "b3^2", "b1*b3", "b1*b4", "b3*b4", "b4^2")


class EliminationResult:
    """Everything produced by eliminating a4, a5, a6.

    matrix is 6x6 over Q[A1..C3] with rows indexed by GAMMA_LABELS and
    columns by ALPHA_LABELS; quadric_matrix is the 7x6 relation matrix of
    the b-products (rows B_PRODUCT_LABELS).
    """

    __slots__ = ("matrix", "quadric_matrix")

    def __init__(self, matrix: PolyMatrix, quadric_matrix: PolyMatrix):
        self.matrix = matrix
        self.quadric_matrix = quadric_matrix


def coefficient_registry() -> VariableRegistry:
    return VariableRegistry(COEFF_VARS)


@lru_cache(maxsize=1)
def eliminate() -> EliminationResult:
    """Substitute the elimination expressions and assemble all matrices.

    Works symbolically: a1..a6 are formal variables, a4, a5, a6 are
    replaced by A/B/C-linear combinations of a1..a3, and every product
    row must land exactly in the span of the six quadratic monomials
    (NonzeroRemainder otherwise, which would be an engine fault).  The
    working registry lists a1..a6 before A1..C3, so a substituted term's
    first six exponents pick its quadratic monomial and the other nine
    are its monomial in coefficient_registry().
    """
    big = VariableRegistry(INVARIANT_NAMES + COEFF_VARS)
    a = {n: Polynomial.variable(big, n) for n in INVARIANT_NAMES}
    coeff = {n: Polynomial.variable(big, n) for n in COEFF_VARS}
    bindings = {
        "a4": coeff["A1"] * a["a1"] + coeff["A2"] * a["a2"] + coeff["A3"] * a["a3"],
        "a5": coeff["B1"] * a["a1"] + coeff["B2"] * a["a2"] + coeff["B3"] * a["a3"],
        "a6": coeff["C1"] * a["a1"] + coeff["C2"] * a["a2"] + coeff["C3"] * a["a3"],
    }
    alpha_basis = (
        big.monomial(a1=2), big.monomial(a2=2), big.monomial(a3=2),
        big.monomial(a1=1, a2=1), big.monomial(a1=1, a3=1), big.monomial(a2=1, a3=1),
    )
    alpha_slot = {mono[:6]: k for k, mono in enumerate(alpha_basis)}
    small = coefficient_registry()

    def eliminated_row(label: str, rhs: Polynomial) -> "list[Polynomial]":
        row: list[dict[Monomial, Coefficient]] = [{} for _ in ALPHA_LABELS]
        remainder = {}
        for mono, c in rhs.substitute(bindings).items():
            slot = alpha_slot.get(mono[:6])
            if slot is None:
                remainder[mono] = c
            else:
                row[slot][mono[6:]] = c
        if remainder:
            raise NonzeroRemainder(f"{label}: remainder {Polynomial(big, remainder)}")
        return [Polynomial(small, terms) for terms in row]

    b_rows, cd_rows = _relation_tables(a)
    matrix_rows = [eliminated_row(label, rhs) for label, rhs in cd_rows]
    quadric_rows = [eliminated_row(label, rhs) for label, rhs in b_rows]
    return EliminationResult(
        matrix=PolyMatrix.from_rows(matrix_rows),
        quadric_matrix=PolyMatrix.from_rows(quadric_rows),
    )


@lru_cache(maxsize=1)
def elimination_determinant() -> Polynomial:
    """The symbolic determinant of the 6x6 elimination matrix.

    Computed by memoized cofactor expansion.  The independent check is
    cross_check_determinant, which shares no code with the expansion: it
    evaluates the 6x6 at a triple and eliminates it over Q, and every
    recorded value of det M passes through it.
    """
    return det_expansion(eliminate().matrix)


def _evaluate_matrix(pm: PolyMatrix, point: Mapping[str, object]) -> ScalarMatrix:
    """The matrix evaluated at a point, all entries sharing one power table."""
    values = evaluate_all([e for row in pm.entries for e in row], point)
    return ScalarMatrix.from_rows(values[i:i + pm.cols]
                                  for i in range(0, len(values), pm.cols))


def determinant_at(triple: CoefficientTriple) -> Rational:
    """Exact value of the elimination determinant at a rational triple."""
    return Fraction(elimination_determinant().evaluate(triple.as_point()))


def quadric_relation_kernel_dim(triple: CoefficientTriple) -> int:
    """Dimension of the left kernel of the 7x6 relation matrix at a triple."""
    scalar = _evaluate_matrix(eliminate().quadric_matrix, triple.as_point())
    return scalar.rows - rank(scalar)


def vanishing_quadric(triple: CoefficientTriple) -> "tuple[Coefficient, ...]":
    """The unique linear relation among the seven b-product rows at a triple.

    Returns the 7-vector v with sum(v_k * row_k) = 0; KernelNotUnique
    (with the observed dimension) signals a degenerate triple, such as
    the origin where the kernel is 3-dimensional.
    """
    scalar = _evaluate_matrix(eliminate().quadric_matrix, triple.as_point())
    vectors = kernel_basis(scalar.transpose())
    if len(vectors) != 1:
        raise KernelNotUnique(len(vectors))
    return vectors[0]


def cross_check_determinant(triple: CoefficientTriple, value: Rational) -> None:
    """Confirm a value of det M at a triple by an independent route.

    Evaluates the 6x6 elimination matrix at the triple and takes its
    determinant over Q by Gauss-Jordan elimination, which shares no code
    with the cofactor expansion behind elimination_determinant; raises
    CheckFailed when the two disagree.
    """
    scalar = _evaluate_matrix(eliminate().matrix, triple.as_point())
    numeric = det_rref(scalar)
    if numeric != value:
        raise CheckFailed(
            f"det M at {', '.join(map(str, triple.values()))}: "
            f"symbolic value {value}, Gauss-Jordan value {numeric}")


# ---------------------------------------------------------------------------
# fixed points and genus
# ---------------------------------------------------------------------------

def _diagonal_equations(triple: CoefficientTriple) -> "list[list[list[int]]]":
    """The three equations a_k - (linear in a1..a3) of a triple, restricted
    to the diagonal, as 3x3 integer grids (form_grid).

    Each equation is cleared of denominators (exactnum.primitive of 1, u1,
    u2, u3, which scales by the lcm of the three denominators), so it is
    an integer combination of diagonal_grids(); a nonzero scalar does not
    move the zero set.
    """
    grids = diagonal_grids()
    equations = []
    for target, row in zip(("a4", "a5", "a6"), (triple.a, triple.b, triple.c)):
        scale, u1, u2, u3 = primitive((1,) + row)[0]
        equations.append([
            [scale * a - u1 * b - u2 * c - u3 * d for a, b, c, d in zip(*rows)]
            for rows in zip(grids[target], grids["a1"], grids["a2"], grids["a3"])])
    return equations


def fixed_point_free_check(triple: CoefficientTriple) -> str:
    """Certify that the curve cut out by a triple misses the diagonal.

    Restricts the three equations to x = s, y = t as (2,2)-forms on 3x3
    integer grids (_diagonal_equations) and returns CertifiedEmpty when
    the t-resultants of the pairs (1,2) and (1,3) certify that they have
    no common zero (_misses_common_zero, shared with verify_diagonal).
    Returns Inconclusive otherwise: an identically zero restriction or
    resultant, or a shared root, including at infinity.
    """
    forms = _diagonal_equations(triple)
    return CERTIFIED_EMPTY if _misses_common_zero(forms, ((0, 1), (0, 2))) else INCONCLUSIVE


def chow_coefficient(factors: "Sequence[Sequence[int]]") -> int:
    """Coefficient of h1*h2*h3*h4 in a product of divisor classes.

    Works in Z[h1..h4]/(h_k^2); each factor is given by its four
    coefficients on h1..h4.  A term of the expanded product survives
    only when the factors pick distinct h_k, so the coefficient is the
    permanent of the 4x4 coefficient matrix of four factors, and 0 for
    any other number of factors.
    """
    if len(factors) != 4:
        return 0
    return sum(prod(factor[k] for factor, k in zip(factors, order))
               for order in permutations(range(4)))


def genus_check() -> "tuple[int, int]":
    """(chow coefficient, genus): the degree of the canonical class of the
    triple intersection, hence the genus.

    The curve is cut by three classes H = h1+h2+h3+h4 and its canonical
    degree is the top intersection H^4 = 24, so 2g - 2 = 24 and g = 13.
    CheckFailed when H^4 is not 24.
    """
    hyperplane = (1, 1, 1, 1)
    top = chow_coefficient([hyperplane] * 4)
    if top != 24:
        raise CheckFailed(f"top intersection number {top}, expected 24")
    return top, top // 2 + 1
