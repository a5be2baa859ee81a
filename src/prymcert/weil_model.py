"""The multilinear-form algebra on (P^1)^4 under the order-4 variable rotation.

Everything here works in the affine chart (s, t, x, y).  The space V of
multilinear forms (each variable of degree at most 1) is 16-dimensional;
the rotation sigma acts on it with eigenvalues 1, -1, i, -i and named
eigenvectors a1..a6, b1..b4, c1..c3, d1..d3.  This module certifies, in
exact arithmetic:

  * the group relations of the dihedral group generated by the rotation
    sigma and the involution tau, and the eigenspace decomposition;
  * the 17 product identities: the unique cubic relation among a1..a6,
    the seven expressions of b-products over invariant quadratics, and
    the nine expressions of c*d-products;
  * the restriction of a1..a6 to the diagonal x=s, y=t (proportionality
    factors, and base-point-freeness of the restricted system);
  * the elimination of a4, a5, a6 by linear expressions in a1..a3 with
    coefficients A1..A3, B1..B3, C1..C3, producing the 6x6 matrix that
    expresses the c*d combinations over the invariant quadratics, the
    7x6 relation matrix of the b-products, and the full 9x9 matrix;
  * the determinant certificate (det at the origin is 1, symbolic det is
    nonzero, the 9x9 determinant agrees up to sign), its evaluation at
    rational coefficient triples, and the cross-check of an evaluated
    value against Gauss-Jordan elimination of the evaluated 6x6 over Q;
  * the degree computation in the Chow ring Z[h1..h4]/(h_i^2) giving
    curve genus 13;
  * emptiness of the intersection with the diagonal for a given triple
    (resultant analysis of the restricted equations), which makes the
    rotation act freely on the curve.

The action convention is pinned by tests: sigma acts on polynomials by
the substitution s->t, t->x, x->y, y->s, the unique convention for which
c1 = s - i*t - x + i*y is multiplied by +i.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from .exactnum import Coefficient, GaussianRational, IMAG_UNIT, Rational, quotient
from .linalg import (
    PolyMatrix,
    ScalarMatrix,
    det_expansion,
    det_rref,
    kernel_basis,
    rank,
)
from .multipoly import (
    BidegreeForm,
    Monomial,
    Polynomial,
    VariableRegistry,
    sylvester_resultant,
)

CHART_VARS = ("s", "t", "x", "y")

COEFF_VARS = ("A1", "A2", "A3", "B1", "B2", "B3", "C1", "C2", "C3")

INVARIANT_NAMES = ("a1", "a2", "a3", "a4", "a5", "a6")

CERTIFIED_EMPTY = "CertifiedEmpty"
INCONCLUSIVE = "Inconclusive"


class IdentityFailed(AssertionError):
    """A polynomial identity did not reduce to zero."""

    def __init__(self, name: str, residual: Polynomial):
        super().__init__(f"identity {name!r} has nonzero residual {residual}")
        self.name = name
        self.residual = residual


class EigenbasisMismatch(AssertionError):
    """A computed eigenspace does not match the span of the named generators."""


class BasePointFound(AssertionError):
    """The restricted linear system could not be certified base-point free."""


class NonzeroRemainder(AssertionError):
    """Elimination left a component outside the quadratic basis (engine fault)."""


class KernelNotUnique(ValueError):
    """The relation matrix kernel is not 1-dimensional at this triple."""

    def __init__(self, dimension: int):
        super().__init__(f"relation-matrix kernel has dimension {dimension}, expected 1")
        self.dimension = dimension


def chart_registry() -> VariableRegistry:
    return VariableRegistry(CHART_VARS)


# ---------------------------------------------------------------------------
# group elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupElement:
    """A permutation of the chart variables, acting on polynomials by substitution."""

    mapping: "tuple[tuple[str, str], ...]"

    @classmethod
    def from_dict(cls, mapping: Mapping[str, str]) -> "GroupElement":
        complete = {v: mapping.get(v, v) for v in CHART_VARS}
        if sorted(complete.values()) != sorted(CHART_VARS):
            raise ValueError(f"not a permutation of {CHART_VARS}: {mapping}")
        return cls(tuple((v, complete[v]) for v in CHART_VARS))

    def as_dict(self) -> "dict[str, str]":
        return dict(self.mapping)

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        # (g * h) acts like g after h: variables map through h's table first
        mine = self.as_dict()
        theirs = other.as_dict()
        return GroupElement.from_dict({v: mine[theirs[v]] for v in CHART_VARS})

    def inverse(self) -> "GroupElement":
        return GroupElement.from_dict({img: v for v, img in self.mapping})

    def power(self, n: int) -> "GroupElement":
        result = IDENTITY
        base = self if n >= 0 else self.inverse()
        for _ in range(abs(n)):
            result = result * base
        return result


IDENTITY = GroupElement.from_dict({})
# rotation: pullback substitution s->t, t->x, x->y, y->s (see module docstring)
SIGMA = GroupElement.from_dict({"s": "t", "t": "x", "x": "y", "y": "s"})
# involution swapping the first and third factors
TAU = GroupElement.from_dict({"s": "x", "x": "s"})


def apply_group(g: GroupElement, poly: Polynomial) -> Polynomial:
    """Apply a permutation to a polynomial in the chart variables."""
    reg = poly.registry
    bindings = {v: Polynomial.variable(reg, img) for v, img in g.mapping if v != img}
    return poly.substitute(bindings)


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


EIGENVALUE_LABELS = ("+1", "-1", "+i", "-i")

_EIGEN_GROUPS = {
    "+1": ("a1", "a2", "a3", "a4", "a5", "a6"),
    "-1": ("b1", "b2", "b3", "b4"),
    "+i": ("c1", "c2", "c3"),
    "-i": ("d1", "d2", "d3"),
}

_EIGENVALUES = {
    "+1": 1,
    "-1": -1,
    "+i": IMAG_UNIT,
    "-i": -IMAG_UNIT,
}


@dataclass(frozen=True)
class EigenDecomposition:
    """Named eigenbases of the rotation on the 16-dimensional form space."""

    bases: "dict[str, dict[str, Polynomial]]"  # eigenvalue label -> name -> poly

    @property
    def dims(self) -> "tuple[int, int, int, int]":
        return tuple(len(self.bases[label]) for label in EIGENVALUE_LABELS)

    def generator(self, name: str) -> Polynomial:
        for group in self.bases.values():
            if name in group:
                return group[name]
        raise KeyError(name)


def multilinear_monomials(reg: VariableRegistry) -> "list[Monomial]":
    """The 16 exponent tuples with every entry 0 or 1, in graded-lex order."""
    width = len(reg)
    monos = []
    for bits in range(1 << width):
        monos.append(tuple((bits >> k) & 1 for k in range(width)))
    monos.sort(key=lambda m: (sum(m), m), reverse=True)
    return monos


def _coefficient_row(poly: Polynomial, monos: Sequence[Monomial]) -> "list[Coefficient]":
    return [poly.coefficient(m) for m in monos]


def rotation_matrix(g: GroupElement, reg: VariableRegistry,
                    monos: Sequence[Monomial]) -> ScalarMatrix:
    """Matrix of the permutation action on the multilinear monomial basis."""
    index = {m: k for k, m in enumerate(monos)}
    cols = []
    for mono in monos:
        image = apply_group(g, Polynomial(reg, {mono: 1}))
        (img_mono, coeff), = image.terms()
        col = [0] * len(monos)
        col[index[img_mono]] = coeff
        cols.append(col)
    return ScalarMatrix.from_rows(zip(*cols))


def eigen_decomposition() -> EigenDecomposition:
    """Compute the eigenspaces of the rotation and match them to the named basis.

    Each eigenspace is found as the exact kernel of (action - eigenvalue),
    then checked to equal the span of the named generators (rank tests);
    EigenbasisMismatch is raised on any discrepancy.
    """
    reg = chart_registry()
    monos = multilinear_monomials(reg)
    action = rotation_matrix(SIGMA, reg, monos)
    gens = generators()
    bases: dict[str, dict[str, Polynomial]] = {}
    for label in EIGENVALUE_LABELS:
        alpha = _EIGENVALUES[label]
        shifted = ScalarMatrix.from_rows(
            [[action.at(i, j) - (alpha if i == j else 0) for j in range(16)]
             for i in range(16)])
        computed = kernel_basis(shifted)
        named = [_coefficient_row(gens[n], monos) for n in _EIGEN_GROUPS[label]]
        expected_dim = len(_EIGEN_GROUPS[label])
        if len(computed) != expected_dim:
            raise EigenbasisMismatch(
                f"eigenspace {label}: kernel dimension {len(computed)}, "
                f"expected {expected_dim}")
        if rank(ScalarMatrix.from_rows(named)) != expected_dim:
            raise EigenbasisMismatch(f"named generators for {label} are dependent")
        stacked = ScalarMatrix.from_rows(list(computed) + named)
        if rank(stacked) != expected_dim:
            raise EigenbasisMismatch(
                f"eigenspace {label} does not match the span of its named generators")
        bases[label] = {n: gens[n] for n in _EIGEN_GROUPS[label]}
    return EigenDecomposition(bases)


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


def check_identities() -> "dict[str, bool]":
    """Verdict per identity name: True iff the residual is the zero polynomial."""
    return {name: not residual for name, residual in identity_residuals().items()}


def verify_identities() -> None:
    """Raise IdentityFailed on the first identity whose residual is nonzero."""
    for name, residual in identity_residuals().items():
        if residual:
            raise IdentityFailed(name, residual)


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


@dataclass(frozen=True)
class DiagonalReport:
    factors: "tuple[int | Fraction, ...]"    # restricted a_k = factor * reference form
    base_point_free: bool


def diagonal_restriction_factors() -> "tuple[int | Fraction, ...]":
    """Exact proportionality factor of each restricted invariant generator."""
    gens = generators()
    reg = diagonal_registry()
    reference = _diagonal_reference(reg)
    factors = []
    for name in INVARIANT_NAMES:
        restricted = restrict_to_diagonal(gens[name])
        ref = reference[name]
        if not restricted:
            raise IdentityFailed(f"{name}|diag", restricted)
        (_, lead_r) = restricted.leading()
        (_, lead_q) = ref.leading()
        factor = quotient(lead_r, lead_q)
        if isinstance(factor, GaussianRational):
            raise IdentityFailed(f"{name}|diag", restricted)
        if restricted - factor * ref:
            raise IdentityFailed(f"{name}|diag", restricted - factor * ref)
        factors.append(factor)
    return tuple(factors)


def _binary_forms_have_common_root(forms: "list[tuple[list[Coefficient], int]]") -> bool:
    """Common projective root test for scalar binary forms.

    Each entry is (dense ascending coefficients, declared degree).  The
    forms share a projective root iff the gcd of the dehomogenized
    polynomials is nonconstant, or every form has a root at infinity
    (actual degree below the declared one).
    """
    if not forms:
        return True
    if all(_poly_degree(c) < d for c, d in forms):
        return True  # common root at infinity
    gcd = None
    for coeffs, _ in forms:
        gcd = coeffs if gcd is None else _univariate_gcd(gcd, coeffs)
        if _poly_degree(gcd) == 0:
            return False
    return _poly_degree(gcd) != 0


def _poly_degree(coeffs: "list[Coefficient]") -> int:
    for k in range(len(coeffs) - 1, -1, -1):
        if coeffs[k]:
            return k
    return -1


def _univariate_gcd(a: "list[Coefficient]",
                    b: "list[Coefficient]") -> "list[Coefficient]":
    """Monic gcd of dense univariate coefficient lists over Q or Q(i) (Euclid)."""
    a = a[: _poly_degree(a) + 1]
    b = b[: _poly_degree(b) + 1]
    while b:
        a, b = b, _poly_mod(a, b)
    if not a:
        return []
    lead = a[-1]
    return [quotient(c, lead) for c in a]


def _poly_mod(a: "list[Coefficient]",
              b: "list[Coefficient]") -> "list[Coefficient]":
    r = list(a)
    db = len(b) - 1
    lead = b[-1]
    while len(r) - 1 >= db and r:
        if not r[-1]:
            r.pop()
            continue
        q = quotient(r[-1], lead)
        shift = len(r) - 1 - db
        for k in range(db + 1):
            r[shift + k] = r[shift + k] - q * b[k]
        r.pop()
    while r and not r[-1]:
        r.pop()
    return r


def _scalar_coeff_list(poly: Polynomial, name: str, degree: int) -> "list[Coefficient]":
    return [c.constant_value() for c in poly.coefficients_in(name, degree)]


def _pair_resultant_in_t(f: BidegreeForm, g: BidegreeForm) -> Polynomial:
    """Resultant of two bidegree forms with respect to t at declared degrees."""
    return sylvester_resultant(f.poly, g.poly, "t",
                               deg_f=f.degrees[1], deg_g=g.degrees[1])


def verify_diagonal() -> DiagonalReport:
    """Proportionality factors plus base-point-freeness of the restricted system.

    A common projective zero of all six restricted (2,2)-forms would force
    every pairwise t-resultant (a degree-8 binary form in s) to vanish at
    its s-coordinate; the analysis certifies emptiness when the nonzero
    resultants have no common projective root.  BasePointFound is raised
    when emptiness cannot be certified.
    """
    factors = diagonal_restriction_factors()
    gens = generators()
    forms = [BidegreeForm(restrict_to_diagonal(gens[n]), (2, 2))
             for n in INVARIANT_NAMES]
    resultants = []
    for i in range(len(forms)):
        for j in range(i + 1, len(forms)):
            r = _pair_resultant_in_t(forms[i], forms[j])
            if r:
                resultants.append((_scalar_coeff_list(r, "s", 8), 8))
    if not resultants:
        raise BasePointFound("every pairwise resultant vanishes identically")
    if _binary_forms_have_common_root(resultants):
        raise BasePointFound("pairwise resultants share a projective root")
    return DiagonalReport(factors=factors, base_point_free=True)


# ---------------------------------------------------------------------------
# elimination
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoefficientTriple:
    """Rational coefficients (A1..A3, B1..B3, C1..C3) of the elimination."""

    a: "tuple[Fraction, Fraction, Fraction]"
    b: "tuple[Fraction, Fraction, Fraction]"
    c: "tuple[Fraction, Fraction, Fraction]"

    @classmethod
    def from_rationals(cls, values: Iterable[Fraction | int]) -> "CoefficientTriple":
        vals = tuple(Fraction(v) for v in values)
        if len(vals) != 9:
            raise ValueError(f"need 9 rationals, got {len(vals)}")
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

B_BASIS_LABELS = ("b1*b2", "b2*b3", "b2*b4")


@dataclass(frozen=True)
class EliminationResult:
    """Everything produced by eliminating a4, a5, a6.

    matrix is 6x6 over Q[A1..C3] with rows indexed by GAMMA_LABELS and
    columns by ALPHA_LABELS; quadric_matrix is the 7x6 relation matrix of
    the b-products; full_matrix is 9x9 over the basis ALPHA_LABELS +
    B_BASIS_LABELS, whose last three rows are unit vectors.
    """

    alpha_basis: "tuple[Monomial, ...]"
    alpha_labels: "tuple[str, ...]"
    gamma_labels: "tuple[str, ...]"
    matrix: PolyMatrix
    quadric_labels: "tuple[str, ...]"
    quadric_matrix: PolyMatrix
    b_basis_labels: "tuple[str, ...]"
    full_matrix: PolyMatrix


def coefficient_registry() -> VariableRegistry:
    return VariableRegistry(COEFF_VARS)


@lru_cache(maxsize=1)
def eliminate() -> EliminationResult:
    """Substitute the elimination expressions and assemble all matrices.

    Works symbolically: a1..a6 are formal variables, a4, a5, a6 are
    replaced by A/B/C-linear combinations of a1..a3, and every product
    row must land exactly in the span of the six quadratic monomials
    (NonzeroRemainder otherwise, which would be an engine fault).
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
    small = coefficient_registry()

    def eliminated_row(label: str, rhs: Polynomial) -> "list[Polynomial]":
        image = rhs.substitute(bindings)
        coeffs, remainder = image.coefficient_vector(alpha_basis)
        if remainder:
            raise NonzeroRemainder(f"{label}: remainder {remainder}")
        return [c.change_registry(small) for c in coeffs]

    b_rows, cd_rows = _relation_tables(a)
    matrix_rows = [eliminated_row(label, rhs) for label, rhs in cd_rows]
    quadric_rows = [eliminated_row(label, rhs) for label, rhs in b_rows]

    zero = Polynomial.zero(small)
    one = Polynomial.constant(small, 1)
    full_rows = [row + [zero] * 3 for row in matrix_rows]
    for k in range(3):
        full_rows.append([zero] * 6 + [one if j == k else zero for j in range(3)])

    return EliminationResult(
        alpha_basis=alpha_basis,
        alpha_labels=ALPHA_LABELS,
        gamma_labels=GAMMA_LABELS,
        matrix=PolyMatrix.from_rows(matrix_rows),
        quadric_labels=B_PRODUCT_LABELS,
        quadric_matrix=PolyMatrix.from_rows(quadric_rows),
        b_basis_labels=B_BASIS_LABELS,
        full_matrix=PolyMatrix.from_rows(full_rows),
    )


@lru_cache(maxsize=1)
def elimination_determinant() -> Polynomial:
    """The symbolic determinant of the 6x6 elimination matrix.

    Computed by memoized cofactor expansion, then compared with the 9x9
    determinant by the same expansion (the three unit rows make the big
    matrix block triangular, so the determinants must agree up to sign).
    That comparison shares the algorithm; the check that does not is
    cross_check_determinant, which eliminates the evaluated 6x6 over Q.
    """
    result = eliminate()
    det = det_expansion(result.matrix)
    det_full = det_expansion(result.full_matrix)
    if det_full != det and det_full != -det:
        raise AssertionError("9x9 determinant disagrees with the 6x6 determinant")
    return det


def _evaluate_matrix(pm: PolyMatrix, point: Mapping[str, object]) -> ScalarMatrix:
    return ScalarMatrix.from_rows(pm.map(lambda e: e.evaluate(point)))


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
    AssertionError when the two disagree.
    """
    scalar = _evaluate_matrix(eliminate().matrix, triple.as_point())
    numeric = det_rref(scalar)
    if numeric != value:
        raise AssertionError(
            f"det M at {', '.join(map(str, triple.values()))}: "
            f"symbolic value {value}, Gauss-Jordan value {numeric}")


# ---------------------------------------------------------------------------
# fixed points and genus
# ---------------------------------------------------------------------------

def _elimination_equations(triple: CoefficientTriple) -> "list[Polynomial]":
    """The three chart equations a_k - (linear in a1..a3) defined by a triple."""
    gens = generators()
    coeffs = (triple.a, triple.b, triple.c)
    targets = ("a4", "a5", "a6")
    equations = []
    for target, (u1, u2, u3) in zip(targets, coeffs):
        combo = u1 * gens["a1"] + u2 * gens["a2"] + u3 * gens["a3"]
        equations.append(gens[target] - combo)
    return equations


def fixed_point_free_check(triple: CoefficientTriple) -> str:
    """Certify that the curve cut out by a triple misses the diagonal.

    Restricts the three equations to x = s, y = t as bidegree-(2,2)
    forms, takes resultants of the pairs (1,2) and (1,3) with respect to
    the t block (degree-8 binary forms in s), and returns CertifiedEmpty
    when the two resultants have no common projective root, including at
    infinity.  Returns Inconclusive in every degenerate situation (an
    identically zero restriction or resultant, or a shared root).
    """
    restricted = [restrict_to_diagonal(eq) for eq in _elimination_equations(triple)]
    if any(not g for g in restricted):
        return INCONCLUSIVE
    forms = [BidegreeForm(g, (2, 2)) for g in restricted]
    r12 = _pair_resultant_in_t(forms[0], forms[1])
    r13 = _pair_resultant_in_t(forms[0], forms[2])
    if not r12 or not r13:
        return INCONCLUSIVE
    pair = [(_scalar_coeff_list(r12, "s", 8), 8), (_scalar_coeff_list(r13, "s", 8), 8)]
    if _binary_forms_have_common_root(pair):
        return INCONCLUSIVE
    return CERTIFIED_EMPTY


def chow_coefficient(factors: "Sequence[Sequence[int]]") -> int:
    """Coefficient of h1*h2*h3*h4 in a product of divisor classes.

    Works in Z[h1..h4]/(h_k^2); each factor is given by its four
    coefficients on h1..h4.
    """
    reg = VariableRegistry(("h1", "h2", "h3", "h4"))
    h = Polynomial.variables(reg, "h1", "h2", "h3", "h4")
    product = Polynomial.constant(reg, 1)
    for factor in factors:
        linear = Polynomial.zero(reg)
        for coeff, hk in zip(factor, h):
            linear = linear + coeff * hk
        product = product * linear
        # reduce modulo h_k^2: square-free monomials only
        product = Polynomial(reg, {m: c for m, c in product.terms()
                                   if all(e <= 1 for e in m)})
    top = product.coefficient((1, 1, 1, 1))
    if not isinstance(top, int):
        raise ValueError(f"non-integer intersection number {top}")
    return top


@dataclass(frozen=True)
class GenusReport:
    chow_coefficient: int
    genus: int


def genus_check() -> GenusReport:
    """Degree of the canonical class of the triple intersection, hence the genus.

    The curve is cut by three classes H = h1+h2+h3+h4 and its canonical
    degree is the top intersection H^4 = 24, so 2g - 2 = 24 and g = 13.
    """
    hyperplane = (1, 1, 1, 1)
    top = chow_coefficient([hyperplane] * 4)
    if top != 24:
        raise AssertionError(f"top intersection number {top}, expected 24")
    degree = top
    if degree % 2 != 0:
        raise AssertionError("canonical degree must be even")
    genus = degree // 2 + 1
    if genus != 13:
        raise AssertionError(f"genus {genus}, expected 13")
    return GenusReport(chow_coefficient=top, genus=genus)
