"""Sparse multivariate polynomial arithmetic over Q and Q(i).

A polynomial is a map from monomials to nonzero exact coefficients, each
in the one form exactnum.normalize gives: an int, a Fraction with
denominator > 1, or a GaussianRational with a nonzero imaginary part.
So a polynomial in which i does not occur is computed in plain integer
and Fraction arithmetic.

Monomials are exponent tuples indexed by a VariableRegistry, which fixes
the variable order once and for all; two registries are interchangeable
iff they carry the same name tuple.

Term order is graded lexicographic in registry index order (total degree
first, then exponent tuples compared left to right, larger first), so
iteration and the canonical text rendering are byte-stable across runs.

Polynomials are immutable after construction; all operations allocate
fresh results and may be used freely across threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from operator import add, getitem
from typing import Iterable, Iterator, Mapping, Sequence

from .exactnum import Coefficient, GaussianRational, normalize, quotient

Monomial = tuple  # exponent tuple, one non-negative int per registry variable


class RegistryMismatch(ValueError):
    """Operands live in different variable registries."""


class UnknownVariable(ValueError):
    """A variable name is not present in the registry."""


class UnboundVariable(ValueError):
    """Evaluation point does not bind a variable that occurs in the polynomial."""


class DegreeZero(ValueError):
    """Resultant requested with respect to a variable of degree < 1."""


class VariableRegistry:
    """Ordered set of variable names with stable indices."""

    __slots__ = ("names", "_index")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names}")
        if any(not n for n in names):
            raise ValueError("empty variable name")
        self.names = names
        self._index = {name: k for k, name in enumerate(names)}

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownVariable(f"unknown variable {name!r} (registry {self.names})") from None

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VariableRegistry) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"VariableRegistry({', '.join(self.names)})"

    def unit_monomial(self) -> Monomial:
        return (0,) * len(self.names)

    def monomial(self, **exponents: int) -> Monomial:
        """Monomial from keyword exponents, e.g. reg.monomial(s=1, t=2)."""
        exps = [0] * len(self.names)
        for name, e in exponents.items():
            if e < 0:
                raise ValueError(f"negative exponent for {name}")
            exps[self.index(name)] = e
        return tuple(exps)


def _grlex_key(mono: Monomial):
    return (sum(mono), mono)


class Polynomial:
    """Immutable sparse polynomial over Q or Q(i) in a fixed registry."""

    __slots__ = ("registry", "_terms")

    def __init__(self, registry: VariableRegistry,
                 terms: Mapping[Monomial, object] | None = None):
        self.registry = registry
        clean: dict[Monomial, Coefficient] = {}
        if terms:
            width = len(registry)
            for mono, coeff in terms.items():
                if len(mono) != width:
                    raise ValueError(f"monomial {mono} has wrong arity for {registry!r}")
                value = normalize(coeff)
                if value:
                    clean[tuple(mono)] = value
        self._terms = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, registry: VariableRegistry) -> "Polynomial":
        return cls(registry)

    @classmethod
    def constant(cls, registry: VariableRegistry, value: object) -> "Polynomial":
        return cls(registry, {registry.unit_monomial(): value})

    @classmethod
    def variable(cls, registry: VariableRegistry, name: str) -> "Polynomial":
        exps = [0] * len(registry)
        exps[registry.index(name)] = 1
        return cls(registry, {tuple(exps): 1})

    @classmethod
    def variables(cls, registry: VariableRegistry, *names: str) -> "tuple[Polynomial, ...]":
        return tuple(cls.variable(registry, n) for n in names)

    # -- inspection -----------------------------------------------------------

    def terms(self) -> "list[tuple[Monomial, Coefficient]]":
        """Terms in descending graded-lex order (leading term first)."""
        return sorted(self._terms.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True)

    def term_count(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def coefficient(self, mono: Monomial) -> Coefficient:
        return self._terms.get(tuple(mono), 0)

    def constant_value(self) -> Coefficient:
        """The value of a constant polynomial."""
        unit = self.registry.unit_monomial()
        if any(m != unit for m in self._terms):
            raise ValueError(f"{self} is not constant")
        return self._terms.get(unit, 0)

    def leading(self) -> "tuple[Monomial, Coefficient]":
        """Leading (monomial, coefficient) in graded-lex order; zero poly raises."""
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        mono = max(self._terms, key=_grlex_key)
        return mono, self._terms[mono]

    def total_degree(self) -> int:
        """Max total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(sum(m) for m in self._terms)

    def degree_in(self, name: str) -> int:
        """Max exponent of one variable; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        k = self.registry.index(name)
        return max(m[k] for m in self._terms)

    # -- ring operations -------------------------------------------------------

    def _check_registry(self, other: "Polynomial") -> None:
        if self.registry != other.registry:
            raise RegistryMismatch(
                f"registries differ: {self.registry!r} vs {other.registry!r}")

    def _coerce(self, other: object) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            self._check_registry(other)
            return other
        if isinstance(other, (int, Fraction, GaussianRational)):
            return Polynomial.constant(self.registry, other)
        return None

    def __add__(self, other: object) -> "Polynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self._terms)
        for mono, coeff in other._terms.items():
            prior = out.get(mono)
            if prior is None:
                out[mono] = coeff
                continue
            total = normalize(prior + coeff)
            if total:
                out[mono] = total
            else:
                del out[mono]
        result = Polynomial.__new__(Polynomial)
        result.registry = self.registry
        result._terms = out
        return result

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        result = Polynomial.__new__(Polynomial)
        result.registry = self.registry
        result._terms = {m: -c for m, c in self._terms.items()}
        return result

    def __sub__(self, other: object) -> "Polynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: object) -> "Polynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other: object) -> "Polynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out: dict[Monomial, Coefficient] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                mono = tuple(map(add, m1, m2))
                prior = out.get(mono)
                out[mono] = c1 * c2 if prior is None else prior + c1 * c2
        result = Polynomial.__new__(Polynomial)
        result.registry = self.registry
        result._terms = {m: normalize(c) for m, c in out.items() if c}
        return result

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = Polynomial.constant(self.registry, 1)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = Polynomial.constant(self.registry, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.registry == other.registry and self._terms == other._terms

    __hash__ = None  # mutable-dict backed; not usable as a dict key

    # -- substitution and evaluation -----------------------------------------

    def substitute(self, bindings: "Mapping[str, Polynomial]") -> "Polynomial":
        """Ring homomorphism sending bound variables to their image polynomials.

        Images must share one registry (the result registry); unbound
        variables are carried over by name and must exist there.
        """
        if not bindings:
            return self
        images = {}
        target: VariableRegistry | None = None
        for name, image in bindings.items():
            self.registry.index(name)  # bound variables must exist here
            if target is None:
                target = image.registry
            elif image.registry != target:
                raise RegistryMismatch(
                    f"binding images use registries {target!r} and {image.registry!r}")
            images[name] = image
        assert target is not None
        carried: dict[str, Polynomial] = {}
        result = Polynomial.zero(target)
        for mono, coeff in self.terms():
            term = Polynomial.constant(target, coeff)
            for k, e in enumerate(mono):
                if not e:
                    continue
                name = self.registry.names[k]
                if name in images:
                    factor = images[name]
                else:
                    if name not in carried:
                        carried[name] = Polynomial.variable(target, name)
                    factor = carried[name]
                term = term * factor ** e
            result = result + term
        return result

    def evaluate(self, point: "Mapping[str, object]") -> Coefficient:
        """Exact value at a point binding every variable that occurs.

        Rational points are evaluated over a common denominator: each
        bound value is split as n/d with d a positive integer, a term
        c * x^e of a variable of degree top contributes c * n^e * d^(top-e),
        and the sum is divided once by the product of the d^top.  So an
        integer polynomial at a rational point is summed in plain ints,
        and at a Q(i) point in Gaussian rationals with integer parts.
        """
        values: dict[int, Coefficient] = {}
        for name, value in point.items():
            values[self.registry.index(name)] = normalize(value)
        tables: list[list[Coefficient]] = []  # per variable, n^e * d^(top-e)
        denominator = 1
        for k, top in enumerate(map(max, zip(*self._terms))):
            if not top:
                tables.append([1])
                continue
            if k not in values:
                raise UnboundVariable(
                    f"variable {self.registry.names[k]!r} is not bound")
            n, d = _numerator_denominator(values[k])
            table = [1]
            for _ in range(top):
                table.append(table[-1] * n)
            if d != 1:
                table = [v * d ** (top - e) for e, v in enumerate(table)]
                denominator *= d ** top
            tables.append(table)
        total = 0
        for mono, coeff in self._terms.items():
            total = total + prod(map(getitem, tables, mono), start=coeff)
        return quotient(total, denominator)

    def coefficient_vector(
        self, basis: Sequence[Monomial]
    ) -> "tuple[list[Polynomial], Polynomial]":
        """Express the polynomial over basis monomials with polynomial coefficients.

        The carrier variables are those appearing in some basis monomial.  A
        term whose carrier part matches basis[k] contributes its residual
        factor to coefficient k; all other terms land in the remainder, so
        that  self == sum(coeff[k] * basis[k]) + remainder  identically.
        """
        basis = [tuple(m) for m in basis]
        if len(set(basis)) != len(basis):
            raise ValueError("basis monomials must be distinct")
        width = len(self.registry)
        carrier = [False] * width
        for mono in basis:
            if len(mono) != width:
                raise ValueError(f"basis monomial {mono} has wrong arity")
            for k, e in enumerate(mono):
                if e:
                    carrier[k] = True
        position = {mono: k for k, mono in enumerate(basis)}
        coeff_terms: list[dict[Monomial, Coefficient]] = [{} for _ in basis]
        remainder_terms: dict[Monomial, Coefficient] = {}
        for mono, coeff in self._terms.items():
            carrier_part = tuple(e if carrier[k] else 0 for k, e in enumerate(mono))
            rest = tuple(0 if carrier[k] else e for k, e in enumerate(mono))
            slot = position.get(carrier_part)
            if slot is None:
                remainder_terms[mono] = coeff
            else:
                coeff_terms[slot][rest] = coeff
        coeffs = [Polynomial(self.registry, t) for t in coeff_terms]
        return coeffs, Polynomial(self.registry, remainder_terms)

    def coefficients_in(self, name: str, degree: int | None = None) -> "list[Polynomial]":
        """Dense coefficient list [c_0, ..., c_d] with respect to one variable.

        The returned c_k no longer involve the variable.  `degree` may
        declare a higher degree than the actual one (zero padding), as
        needed for resultants of forms with vanishing leading coefficients.
        """
        k = self.registry.index(name)
        actual = self.degree_in(name)
        if degree is None:
            degree = max(actual, 0)
        if degree < actual:
            raise ValueError(f"declared degree {degree} below actual {actual}")
        buckets: list[dict[Monomial, Coefficient]] = [{} for _ in range(degree + 1)]
        for mono, coeff in self._terms.items():
            e = mono[k]
            stripped = mono[:k] + (0,) + mono[k + 1:]
            buckets[e][stripped] = coeff
        return [Polynomial(self.registry, b) for b in buckets]

    def change_registry(self, registry: VariableRegistry) -> "Polynomial":
        """Re-home the polynomial, mapping variables by name."""
        if registry == self.registry:
            return self
        mapping = [registry.index(n) if n in registry else None
                   for n in self.registry.names]
        out: dict[Monomial, Coefficient] = {}
        width = len(registry)
        for mono, coeff in self._terms.items():
            exps = [0] * width
            for k, e in enumerate(mono):
                if not e:
                    continue
                slot = mapping[k]
                if slot is None:
                    raise UnknownVariable(
                        f"variable {self.registry.names[k]!r} absent from {registry!r}")
                exps[slot] = e
            out[tuple(exps)] = coeff
        return Polynomial(registry, out)

    # -- rendering ---------------------------------------------------------------

    def render(self) -> str:
        """Canonical text: terms in graded-lex order, parseable by the cli grammar."""
        if not self._terms:
            return "0"
        parts: list[str] = []
        for index, (mono, coeff) in enumerate(self.terms()):
            parts.append(_render_term(self.registry, mono, coeff, leading=index == 0))
        return " ".join(parts)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Polynomial({self.render()})"


def _numerator_denominator(value: Coefficient) -> "tuple[Coefficient, int]":
    """(n, d) with value = n / d, d a positive int and n an int or a
    Gaussian rational with integer parts."""
    if type(value) is GaussianRational:
        d = lcm(value.re.denominator, value.im.denominator)
        return value * d, d
    return value.numerator, value.denominator


def _render_monomial(registry: VariableRegistry, mono: Monomial) -> str:
    factors = []
    for name, e in zip(registry.names, mono):
        if e == 0:
            continue
        factors.append(name if e == 1 else f"{name}^{e}")
    return "*".join(factors)


def _render_term(registry: VariableRegistry, mono: Monomial,
                 coeff: Coefficient, leading: bool) -> str:
    body = _render_monomial(registry, mono)
    if type(coeff) is not GaussianRational:
        value, unit = coeff, ""
    elif coeff.re != 0:
        # mixed coefficients stay parenthesized: "+ (1/2-3/4*i)*s"
        prefix = f"({coeff.to_text()})"
        piece = f"{prefix}*{body}" if body else prefix
        return piece if leading else f"+ {piece}"
    else:
        value, unit = coeff.im, "i"
    magnitude = abs(value)
    factors = [f for f in (str(magnitude) if magnitude != 1 or not (unit or body) else "",
                           unit, body) if f]
    piece = "*".join(factors)
    if leading:
        return piece if value > 0 else f"-{'1*' if magnitude == 1 and (unit or body) else ''}{piece}"
    return f"+ {piece}" if value > 0 else f"- {piece}"


def sylvester_resultant(f: Polynomial, g: Polynomial, name: str,
                        deg_f: int | None = None,
                        deg_g: int | None = None) -> Polynomial:
    """Determinant of the Sylvester matrix of f and g with respect to one variable.

    With the default degrees this is the classical affine resultant and
    raises DegreeZero when either polynomial is constant in the variable.
    Passing declared degrees computes the resultant of the corresponding
    homogeneous forms (zero-padded coefficient rows), which vanishes
    exactly when the forms share a projective root, including at infinity.
    """
    from .linalg import PolyMatrix, det_expansion

    f._check_registry(g)
    m = f.degree_in(name) if deg_f is None else deg_f
    n = g.degree_in(name) if deg_g is None else deg_g
    if m < 1 or n < 1:
        raise DegreeZero(f"resultant needs positive degree in {name!r} (got {m}, {n})")
    fc = f.coefficients_in(name, m)
    gc = g.coefficients_in(name, n)
    zero = Polynomial.zero(f.registry)
    size = m + n
    rows: list[list[Polynomial]] = []
    for shift in range(n):  # n rows of f coefficients, descending degree
        row = [zero] * size
        for k, c in enumerate(reversed(fc)):
            row[shift + k] = c
        rows.append(row)
    for shift in range(m):  # m rows of g coefficients
        row = [zero] * size
        for k, c in enumerate(reversed(gc)):
            row[shift + k] = c
        rows.append(row)
    return det_expansion(PolyMatrix.from_rows(rows))


class BidegreeForm:
    """A polynomial in a two-variable registry with a declared bidegree.

    Represents the dehomogenization of a bihomogeneous form on P^1 x P^1;
    the declared bidegree fixes the homogenization, so resultant analysis
    can account for roots at infinity.
    """

    __slots__ = ("poly", "degrees")

    def __init__(self, poly: Polynomial, degrees: "tuple[int, int]"):
        if len(poly.registry) != 2:
            raise ValueError("BidegreeForm needs a two-variable registry")
        first, second = poly.registry.names
        if poly.degree_in(first) > degrees[0] or poly.degree_in(second) > degrees[1]:
            raise ValueError(
                f"{poly} exceeds declared bidegree {degrees}")
        self.poly = poly
        self.degrees = (int(degrees[0]), int(degrees[1]))

    def coefficients(self, name: str) -> "list[Polynomial]":
        """Dense coefficients with respect to one variable at the declared degree."""
        first, second = self.poly.registry.names
        if name == first:
            declared = self.degrees[0]
        elif name == second:
            declared = self.degrees[1]
        else:
            raise UnknownVariable(f"{name!r} not in {self.poly.registry!r}")
        return self.poly.coefficients_in(name, declared)

    def __repr__(self) -> str:
        return f"BidegreeForm({self.poly.render()}, {self.degrees})"
