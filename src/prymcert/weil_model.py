"""The multilinear-form algebra on (P^1)^4 under the order-4 variable rotation.

Everything here works in the affine chart (s, t, x, y).  The space V of
multilinear forms (each variable of degree at most 1) is 16-dimensional;
the rotation sigma acts on it with eigenvalues 1, -1, i, -i, and named
eigenvectors a1..a6 and b1..b4 of 1 and -1.  The pairs p_j, q_j with
sigma p_j = q_j, sigma q_j = -p_j span the rotation planes, so that
c_j = p_j - i*q_j and d_j = p_j + i*q_j are eigenvectors of i and -i.
Every check runs over Z or Q; this module certifies, in exact arithmetic:

  * the eigenspace decomposition of the rotation sigma on V: sigma
    permutes the 16 multilinear monomials by rotating their exponent
    tuples (rotate), the orbit sums and the rotation plane of each orbit
    of size 4 give bases of the eigenspaces of 1 and -1 and of the kernel
    of sigma^2 + 1, and the named generators are matched to them in one
    pass over their terms, without elimination (the test suite also
    checks the dihedral relations sigma^4 = tau^2 = 1, tau*sigma*tau =
    sigma^-1 with the involution tau swapping s and x, but no verdict
    rests on them);
  * the 17 product identities: the unique cubic relation among a1..a6,
    the seven expressions of b-products over invariant quadratics, and
    the nine expressions of c*d-products, each an identity over Z;
  * the restriction of a1..a6 to the diagonal x=s, y=t, an exponent map
    (s^a t^b x^c y^d goes to s^(a+c) t^(b+d)), with the proportionality
    factors and base-point-freeness of the restricted system by the
    common-zero routine described below;
  * the elimination of a4, a5, a6 by linear expressions in a1..a3 with
    coefficients A1..A3, B1..B3, C1..C3, producing the 6x6 matrix that
    expresses the c*d combinations over the invariant quadratics and the
    7x6 relation matrix of the b-products;
  * the determinant certificate (det at the origin is 1, symbolic det is
    nonzero), its value at rational coefficient triples by Gauss-Jordan
    elimination of the evaluated 6x6 over Z, and the check of each such
    value against the symbolic det evaluated there;
  * the degree computation in the Chow ring Z[h1..h4]/(h_i^2), a
    permanent, giving curve genus 13;
  * emptiness of the intersection with the diagonal for a given triple,
    which makes the rotation act freely on the curve: the curve misses
    the diagonal over C exactly when det M is nonzero at the triple, a
    theorem that the freeness module checks once (prymcert verify
    freeness), so fixed_point_free_check reads the triple's det M.

The per-triple checks work on integer data.  One evaluation per triple
(_evaluated) computes each monomial and term of the 6x6 and 7x6 once,
giving L^top times each matrix in ints (the 7x6 as its transpose), L the
lcm of the triple's denominators.  determinant_at and
fixed_point_free_check share one det M value per triple (_determinant),
and quadric_relation_kernel_dim and vanishing_quadric one kernel
(_quadric_kernel).  The diagonal check stores each restricted (2,2)-form
as a 3x3 integer grid (form_grid), and _misses_common_zero certifies
that the restricted a1..a6 share no zero on P^1 x P^1: it takes the
t-resultants of all 15 pairs of grids by the Bezout formula for two
binary quadratics on coefficient lists in Z[s] (t_resultant) and finds
that they have no common projective root.

The action convention is pinned by tests: sigma acts on polynomials by
the substitution s->t, t->x, x->y, y->s, the unique convention for which
sigma p1 = q1, that is, c1 = s - i*t - x + i*y is multiplied by +i.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations, permutations
from math import gcd, lcm, prod
from typing import Iterable, Mapping, Sequence

from . import CheckFailed
from .exactnum import (
    Coefficient,
    Frozen,
    GaussianRational,
    Rational,
    primitive,
    quotient,
)
from .linalg import (
    IntegerMatrix,
    PolyMatrix,
    ScalarMatrix,
    det_expansion,
    det_rref,
    kernel_basis,
)
from .multipoly import Monomial, Polynomial, VariableRegistry

CHART_VARS = ("s", "t", "x", "y")

COEFF_VARS = ("A1", "A2", "A3", "B1", "B2", "B3", "C1", "C2", "C3")

INVARIANT_NAMES = ("a1", "a2", "a3", "a4", "a5", "a6")

CERTIFIED_EMPTY = "CertifiedEmpty"
MEETS_DIAGONAL = "MeetsDiagonal"


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
        "p1": s - x,
        "p2": s * t - x * y,
        "p3": t * x * y - s * t * y,
        "q1": t - y,
        "q2": t * x - y * s,
        "q3": s * x * y - s * t * x,
    }


@lru_cache(maxsize=1)
def generators() -> "dict[str, Polynomial]":
    """The named eigenvectors as polynomials in the chart registry."""
    return _build_generators(chart_registry())


# eigenvalue label -> (eigenvalue, the named generators of its eigenspace)
_EIGENSPACES = {
    "+1": (1, ("a1", "a2", "a3", "a4", "a5", "a6")),
    "-1": (-1, ("b1", "b2", "b3", "b4")),
}

# the rotation planes (p_j, q_j): sigma p_j = q_j and sigma q_j = -p_j
_ROTATION_PAIRS = (("p1", "q1"), ("p2", "q2"), ("p3", "q3"))

EIGENVALUE_LABELS = ("+1", "-1", "+i", "-i")


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

    sigma permutes the 16 multilinear monomials (rotate).  For alpha = 1
    or -1, each orbit (m, sigma(m), ..., sigma^(k-1)(m)) whose size k has
    alpha^k = 1 gives the alpha-eigenvector sum_j alpha^j sigma^j(m) (the
    projection formula for a cyclic group), and each orbit of size 4 also
    gives a rotation plane with basis m - sigma^2(m), sigma(m) - sigma^3(m).
    These 16 vectors are a basis of V, so the orbit sums for alpha span
    the alpha-eigenspace and the planes the kernel of sigma^2 + 1, and a
    vector there has as coordinates its coefficients at orbit[0] (and in
    a plane orbit[1]) of the orbits involved.

    The named generators must satisfy sigma(g) = alpha*g, and sigma(p) = q,
    sigma(q) = -p for each rotation pair, as polynomial identities, and
    their coordinates must have a nonzero determinant (for the planes one
    6x6 integer determinant).  The eigenspaces of i and -i over C are then
    spanned by the c_j = p_j - i*q_j and the d_j = p_j + i*q_j, which
    complex conjugation swaps, so each has half the dimension of the
    planes.  CheckFailed on any discrepancy.  Returns the dimensions in
    the order of EIGENVALUE_LABELS.
    """
    reg = chart_registry()
    orbits = sigma_orbits(multilinear_monomials(reg))
    gens = generators()
    rotated = {name: Polynomial(reg, {rotate(m): c for m, c in g.items()})
               for name, g in gens.items()}

    def independent(names: "Sequence[str]", monos: "Sequence[Monomial]") -> bool:
        return bool(det_expansion(ScalarMatrix.from_rows(
            [[gens[name].coefficient(m) for m in monos] for name in names])))

    dims = []
    for label, (alpha, names) in _EIGENSPACES.items():
        representatives = [orbit[0] for orbit in orbits if alpha ** len(orbit) == 1]
        if len(representatives) != len(names):
            raise CheckFailed(
                f"eigenspace {label}: dimension {len(representatives)}, "
                f"expected {len(names)}")
        for name in names:
            if rotated[name] != alpha * gens[name]:
                raise CheckFailed(f"named generator {name} is not a {label}-eigenvector")
        if not independent(names, representatives):
            raise CheckFailed(f"named generators for {label} are dependent")
        dims.append(len(representatives))
    planes = [orbit[:2] for orbit in orbits if len(orbit) == 4]
    if len(planes) != len(_ROTATION_PAIRS):
        raise CheckFailed(f"{len(planes)} rotation planes, expected {len(_ROTATION_PAIRS)}")
    for p, q in _ROTATION_PAIRS:
        if rotated[p] != gens[q] or rotated[q] != -gens[p]:
            raise CheckFailed(f"sigma does not turn {p} into {q} and {q} into -{p}")
    if not independent(sum(_ROTATION_PAIRS, ()), sum(planes, ())):
        raise CheckFailed("named generators for the rotation planes are dependent")
    return tuple(dims) + (len(planes), len(planes))


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
    chart definitions of the generators; every residual must be zero.

    With P_jk = p_j*p_k + q_j*q_k and Q_jk = p_j*q_k - q_j*p_k, so that
    c_j*d_k = P_jk + i*Q_jk, the complex left side of each c*d identity is
    a constant times an integer combination of P_jk and Q_jk, such as
    (c1*d2 - i*c2*d1)/(1 - i) = P_12 - Q_12, and that combination is checked.
    """
    g = generators()
    b_rows, cd_rows = _relation_tables(g)
    rhs = dict(b_rows)
    rhs.update(dict(cd_rows))
    residuals: dict[str, Polynomial] = {"cubic": cubic_relation(g)}
    for name, rhs_poly in b_rows:
        residuals[name] = _self_or_pair_product(g, name) - rhs_poly
    p1, p2, p3, q1, q2, q3 = (g[n] for n in ("p1", "p2", "p3", "q1", "q2", "q3"))
    b1, b2, b3, b4 = g["b1"], g["b2"], g["b3"], g["b4"]
    P12, Q12 = p1 * p2 + q1 * q2, p1 * q2 - q1 * p2
    P13, Q13 = p1 * p3 + q1 * q3, p1 * q3 - q1 * p3
    P23, Q23 = p2 * p3 + q2 * q3, p2 * q3 - q2 * p3
    residuals["c1*d1"] = p1 * p1 + q1 * q1 - rhs["c1*d1"]
    residuals["c3*d3"] = p3 * p3 + q3 * q3 - rhs["c3*d3"]
    residuals["c2*d2"] = p2 * p2 + q2 * q2 - rhs["c2*d2"]
    residuals["c1*d3+c3*d1"] = P13 - rhs["c1*d3+c3*d1"]
    residuals["c1*d3-c3*d1"] = -Q13 - b2 * b4
    residuals["c1*d2-i*c2*d1"] = P12 - Q12 - rhs["c1*d2-i*c2*d1"]
    residuals["c1*d2+i*c2*d1"] = P12 + Q12 - b1 * b2
    residuals["c2*d3+i*c3*d2"] = P23 + Q23 - rhs["c2*d3+i*c3*d2"]
    residuals["c2*d3-i*c3*d2"] = Q23 - P23 - b2 * b3
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
    """Restrict a chart polynomial to the diagonal x = s, y = t.

    An exponent map: the term s^a t^b x^c y^d goes to s^(a+c) t^(b+d) in
    diagonal_registry(), and terms that meet add their coefficients.
    ValueError for a polynomial that is not in chart_registry().
    """
    if poly.registry != chart_registry():
        raise ValueError(f"{poly} is not a polynomial in {CHART_VARS}")
    terms: dict[Monomial, Coefficient] = {}
    for (a, b, c, d), coeff in poly.items():
        mono = (a + c, b + d)
        terms[mono] = terms.get(mono, 0) + coeff
    return Polynomial(diagonal_registry(), terms)


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
    binary form of degree 8 always has a projective root).  verify_diagonal
    is its one caller.
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
    (_misses_common_zero).  The freeness theorem rests on this: no curve
    meets the diagonal where a1, a2 and a3 all vanish.  CheckFailed is
    raised when emptiness cannot be certified.
    """
    factors = diagonal_restriction_factors()
    grids = list(diagonal_grids().values())
    if not _misses_common_zero(grids, combinations(range(len(grids)), 2)):
        raise CheckFailed("the pairwise resultants do not exclude a common zero")
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
    """Eliminate a4, a5, a6 and assemble all matrices.

    Works symbolically in the registry a1, a2, a3, A1..C3: a4, a5, a6 are
    bound to their A/B/C-linear combinations of a1..a3 before the relation
    tables are built, so every right side is already a polynomial in that
    registry.  A term's first three exponents pick its quadratic monomial
    (its column of ALPHA_LABELS) and the other nine are its monomial in
    coefficient_registry().  A term of any other degree in a1..a3 raises
    CheckFailed naming the remainder, which would be an engine fault.
    """
    work = VariableRegistry(INVARIANT_NAMES[:3] + COEFF_VARS)
    a1, a2, a3, *coeffs = Polynomial.variables(work, *work.names)
    a = {"a1": a1, "a2": a2, "a3": a3}
    for k, name in enumerate(INVARIANT_NAMES[3:]):
        u1, u2, u3 = coeffs[3 * k:3 * k + 3]
        a[name] = u1 * a1 + u2 * a2 + u3 * a3
    alpha_slot = {mono: k for k, mono in enumerate(  # the exponents of ALPHA_LABELS
        ((2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)))}
    small = coefficient_registry()

    def eliminated_row(label: str, rhs: Polynomial) -> "list[Polynomial]":
        row: list[dict[Monomial, Coefficient]] = [{} for _ in ALPHA_LABELS]
        remainder = {}
        for mono, c in rhs.items():
            slot = alpha_slot.get(mono[:3])
            if slot is None:
                remainder[mono] = c
            else:
                row[slot][mono[3:]] = c
        if remainder:
            raise CheckFailed(f"{label}: remainder {Polynomial(work, remainder)}")
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

    Computed by memoized cofactor expansion.  It is the checking route
    for values of det M: cross_check_determinant evaluates it at a triple
    (Polynomial.evaluate) and compares with determinant_at, which
    eliminates the integer rows of the 6x6 over Z and shares no
    determinant or evaluation code with this route.
    """
    return det_expansion(eliminate().matrix)


@lru_cache(maxsize=1)
def _plan(elimination: EliminationResult) -> "tuple[int, tuple, tuple, tuple]":
    """(top, slots, terms, tables) for the 6x6 and the 6x7 transpose of the
    7x6, top the largest total degree, at least 1.  Monomial j is the
    product of the factors slots[s][j], s < top, of (L, m_1..m_9); terms
    holds the (c, j) pairs, and tables each entry's (begin, end) slice of
    terms.  Built on first use, not by eliminate(); keyed on its result."""
    index: "dict[Monomial, int]" = {}
    terms: "list[tuple[Coefficient, int]]" = []

    def entry_slice(entry: Polynomial) -> "tuple[int, int]":
        begin = len(terms)
        terms.extend((c, index.setdefault(mono, len(index))) for mono, c in entry.items())
        return begin, len(terms)

    tables = tuple(tuple(tuple(map(entry_slice, row)) for row in rows) for rows in
                   (elimination.matrix.entries, zip(*elimination.quadric_matrix.entries)))
    top = max([1, *map(sum, index)])
    slots = zip(*[(0,) * (top - sum(mono)) + sum(((k + 1,) * e for k, e in enumerate(mono)), ())
                  for mono in index])
    return top, tuple(slots), tuple(terms), tables


@lru_cache(maxsize=1)
def _evaluated(elimination: EliminationResult, triple: CoefficientTriple
               ) -> "tuple[list[list[int]], list[list[int]], int]":
    """(rows of the planned 6x6, of the 6x7, L^top): L^top times the
    matrices at a triple, in ints.  L is the lcm of the denominators of
    the triple's entries v_k, so each m_k = L * v_k is an integer, and a
    term c * prod v_k^e of total degree deg contributes
    c * L^(top - deg) * prod m_k^e: the homogenizing factor goes by the
    total degree of the term, not by the exponent of each variable.  An
    entry, the sum of its slice of terms, is the difference of two
    running sums.  Neither argument type defines __eq__, so the key is
    the identity of both objects, and the cache holds the last pair
    alive, so no later one reuses its id."""
    top, slots, terms, tables = _plan(elimination)
    values = triple.values()
    scale = lcm(*[v.denominator for v in values])
    factors = [scale] + [v.numerator * (scale // v.denominator) for v in values]
    powers = [factors[k] for k in slots[0]]
    for slot in slots[1:]:
        powers = [p * factors[k] for p, k in zip(powers, slot)]
    sums = list(accumulate([c * powers[k] for c, k in terms], initial=0))
    return (*[[[sums[end] - sums[begin] for begin, end in row] for row in table]
              for table in tables], scale ** top)


@lru_cache(maxsize=1)
def _determinant(elimination: EliminationResult, triple: CoefficientTriple) -> Rational:
    """det M at a triple, shared by determinant_at and
    fixed_point_free_check, keyed like _evaluated."""
    rows, _, factor = _evaluated(elimination, triple)
    return Fraction(det_rref(IntegerMatrix(rows)), factor ** len(rows))


def determinant_at(triple: CoefficientTriple) -> Rational:
    """det M at a rational triple: Gauss-Jordan over Z (det_rref) of the
    integer rows N = L^top * M of the 6x6 elimination matrix (_evaluated),
    so det M = det N / L^(6*top); the symbolic det M is not built."""
    return _determinant(eliminate(), triple)


@lru_cache(maxsize=1)
def _quadric_kernel(elimination: EliminationResult,
                    triple: CoefficientTriple) -> "tuple[tuple[Coefficient, ...], ...]":
    """Basis of the left kernel of the 7x6 relation matrix at a triple
    (kernel_basis of the evaluated 6x7 transpose; a positive scale moves
    no kernel), shared by quadric_relation_kernel_dim and
    vanishing_quadric, keyed like _evaluated."""
    return tuple(kernel_basis(IntegerMatrix(_evaluated(elimination, triple)[1])))


def quadric_relation_kernel_dim(triple: CoefficientTriple) -> int:
    """Dimension of the left kernel of the 7x6 relation matrix at a
    triple, 7 minus its rank: the length of the shared kernel basis."""
    return len(_quadric_kernel(eliminate(), triple))


def vanishing_quadric(triple: CoefficientTriple) -> "tuple[Coefficient, ...]":
    """The unique linear relation among the seven b-product rows at a triple.

    Returns the 7-vector v with sum(v_k * row_k) = 0, read from the kernel
    basis that quadric_relation_kernel_dim also reads; KernelNotUnique
    (with the observed dimension) signals a degenerate triple, such as
    the origin where the kernel is 3-dimensional.
    """
    vectors = _quadric_kernel(eliminate(), triple)
    if len(vectors) != 1:
        raise KernelNotUnique(len(vectors))
    return vectors[0]


def cross_check_determinant(triple: CoefficientTriple, value: Rational) -> None:
    """Confirm a value of det M at a triple by an independent route.

    value comes from determinant_at, the Gauss-Jordan route over Z on the
    planned integer rows.  The check evaluates elimination_determinant(),
    the symbolic det M of the cofactor expansion, at the triple by
    Polynomial.evaluate; the two share no determinant or evaluation code.
    Raises CheckFailed when they disagree, naming each value by its route.
    """
    symbolic = elimination_determinant().evaluate(triple.as_point())
    if symbolic != value:
        raise CheckFailed(
            f"det M at {', '.join(map(str, triple.values()))}: "
            f"symbolic value {symbolic}, Gauss-Jordan value {value}")


# ---------------------------------------------------------------------------
# fixed points and genus
# ---------------------------------------------------------------------------

def fixed_point_free_check(triple: CoefficientTriple) -> str:
    """Whether the curve cut out by a triple misses the diagonal x = s, y = t.

    CertifiedEmpty when det M is nonzero at the triple, MeetsDiagonal when
    it is zero: the curve meets the diagonal over C exactly when det M
    vanishes, by the theorem that freeness.check_freeness proves (the
    three chart identities, the Jacobian rank and the irreducibility of
    det M).  The value is the one determinant_at gives for the same
    triple object (_determinant), so a witness check after determinant_at
    does no second elimination.
    """
    return CERTIFIED_EMPTY if _determinant(eliminate(), triple) else MEETS_DIAGONAL


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
