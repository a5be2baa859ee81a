"""Sparse multivariate polynomial arithmetic over Q, and over Q(i) for parsed input.

A polynomial is a map from monomials to nonzero exact coefficients, each
in the one form exactnum.normalize gives: an int, a Fraction with
denominator > 1, or a Gaussian rational with a nonzero imaginary part.
So no Gaussian rational is built for a polynomial in which i does not
occur.  i occurs only in what the cli module's expression grammar
parses, which is built in a GaussianForm by +, -, * and ** and rendered,
never evaluated.

Monomials are exponent tuples indexed by a VariableRegistry, which fixes
the variable order once and for all; two registries are interchangeable
iff they carry the same name tuple.

Term order is graded lexicographic in registry index order (total degree
first, then exponent tuples compared left to right, larger first), so
iteration and the canonical text rendering are byte-stable across runs.

A product of int polynomials is summed in ints; any other product runs
in the GaussianForm of each operand: Gaussian-integer parts over one
scale, the lcm D of all its denominators, so each sum of term pairs is
divided once by D1 * D2 (Geddes, Czapor and Labahn, Algorithms for
Computer Algebra, ch. 2).  The parser keeps every intermediate in that
form and builds a Polynomial once, at the end.

Polynomials are immutable after construction; all operations allocate
fresh results and may be used freely across threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from operator import add, getitem
from typing import Iterable, Mapping

from . import exactnum
from .exactnum import Coefficient, GaussianRational, normalize, quotient

Monomial = tuple  # exponent tuple, one non-negative int per registry variable


class RegistryMismatch(ValueError):
    """Operands live in different variable registries."""


class UnknownVariable(ValueError):
    """A variable name is not present in the registry."""


class UnboundVariable(ValueError):
    """Evaluation point does not bind a variable that occurs in the polynomial."""


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

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VariableRegistry) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"VariableRegistry({', '.join(self.names)})"

    def unit_monomial(self) -> Monomial:
        return (0,) * len(self.names)


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

    def items(self):
        """Terms as (monomial, coefficient) pairs in no particular order; terms() sorts."""
        return self._terms.items()

    def term_count(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def coefficient(self, mono: Monomial) -> Coefficient:
        return self._terms.get(tuple(mono), 0)

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
        left, right = self._terms, other._terms
        if not {*map(type, left.values()), *map(type, right.values())} <= {int}:
            return (GaussianForm.of(self) * GaussianForm.of(other)).polynomial()
        out: dict[Monomial, int] = {}
        for m1, c1 in left.items():
            for m2, c2 in right.items():
                mono = tuple(map(add, m1, m2))
                prior = out.get(mono)
                out[mono] = c1 * c2 if prior is None else prior + c1 * c2
        result = Polynomial.__new__(Polynomial)
        result.registry = self.registry
        result._terms = {m: c for m, c in out.items() if c}
        return result

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        return _power(Polynomial.constant(self.registry, 1), self, exponent)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = Polynomial.constant(self.registry, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.registry == other.registry and self._terms == other._terms

    __hash__ = None  # mutable-dict backed; not usable as a dict key

    # -- evaluation -------------------------------------------------------------

    def evaluate(self, point: "Mapping[str, object]") -> Coefficient:
        """Exact value at a rational point binding every variable that occurs,
        summed over a common denominator: for a value n/d, one table holds
        n^e * d^(top-e) for e = 0..top, top being the variable's largest degree,
        and the sum is divided once by the product of the d^top."""
        registry = self.registry
        values = {registry.index(name): normalize(value) for name, value in point.items()}
        tables: list[list[int]] = []  # per variable, n^e * d^(top-e)
        denominator = 1
        for k, top in enumerate(map(max, zip(registry.unit_monomial(), *self._terms))):
            if not top:
                tables.append([1])
                continue
            if k not in values:
                raise UnboundVariable(f"variable {registry.names[k]!r} is not bound")
            n, d = values[k].numerator, values[k].denominator
            tables.append([n ** e * d ** (top - e) for e in range(top + 1)])
            denominator *= d ** top
        total = 0
        for mono, coeff in self._terms.items():
            total = total + prod(map(getitem, tables, mono), start=coeff)
        return quotient(total, denominator)

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


class GaussianForm:
    """A polynomial over Q(i) as Gaussian integers over one scale: the sum
    of (re + im*i) * mono / scale over terms {mono: (re, im)}, int parts,
    none (0, 0), int scale > 0, and the gcd of the scale and every part 1.
    So the scale is the lcm of the denominators of the coefficients, and
    each polynomial has one form.  The cli grammar lowers into forms, and
    Polynomial.__mul__ multiplies through them.  Not mutated once built.
    """

    __slots__ = ("registry", "terms", "scale")

    def __init__(self, registry: VariableRegistry,
                 sums: "Mapping[Monomial, Iterable[int]]", scale: int = 1):
        """The form of sums / scale: zero terms dropped, then the scale and
        every part divided by their gcd, which stops at the first 1."""
        self.registry = registry
        self.terms = {m: (re, im) for m, (re, im) in sums.items() if re or im}
        self.scale = scale
        common = scale
        for re, im in self.terms.values():
            common = gcd(common, re, im)
            if common == 1:
                return
        self.terms = {m: (re // common, im // common) for m, (re, im) in self.terms.items()}
        self.scale = scale // common

    @classmethod
    def of(cls, poly: Polynomial) -> "GaussianForm":
        """The form of a Polynomial: its terms times the lcm of every
        denominator, real and imaginary parts alike."""
        parts = [(m, c.re, c.im) if type(c) is GaussianRational else (m, c, 0)
                 for m, c in poly.items()]
        scale = lcm(*[p.denominator for _, re, im in parts for p in (re, im)])
        return cls(poly.registry, {m: (re.numerator * (scale // re.denominator),
                                       im.numerator * (scale // im.denominator))
                                   for m, re, im in parts}, scale)

    @classmethod
    def sum(cls, signed: "list[tuple[int, GaussianForm]]") -> "GaussianForm":
        """The sum of sign * form over (sign, form) pairs, sign 1 or -1, in
        one pass over the lcm of their scales: each form is scaled once."""
        scale = lcm(*[form.scale for _, form in signed])
        sums: dict[Monomial, list[int]] = {}  # real and imaginary part
        for sign, form in signed:
            k = sign * (scale // form.scale)
            for mono, (re, im) in form.terms.items():
                prior = sums.get(mono)
                if prior is None:
                    sums[mono] = [k * re, k * im]
                else:
                    prior[0] += k * re
                    prior[1] += k * im
        return cls(signed[0][1].registry, sums, scale)

    def __mul__(self, other: "GaussianForm") -> "GaussianForm":
        sums: dict[Monomial, list[int]] = {}  # real and imaginary part
        right = other.terms.items()
        for m1, (a, b) in self.terms.items():
            for m2, (c, d) in right:
                mono = tuple(map(add, m1, m2))
                prior = sums.get(mono)
                if prior is None:
                    sums[mono] = [a * c - b * d, a * d + b * c]
                else:
                    prior[0] += a * c - b * d
                    prior[1] += a * d + b * c
        return GaussianForm(self.registry, sums, self.scale * other.scale)

    def __pow__(self, exponent: int) -> "GaussianForm":
        return _power(GaussianForm(self.registry, {self.registry.unit_monomial(): (1, 0)}),
                      self, exponent)

    def polynomial(self) -> Polynomial:
        """The Polynomial of the form, each coefficient built once."""
        scale = self.scale
        gaussian = exactnum._gaussian  # read per call, so a patch of exactnum applies
        result = Polynomial.__new__(Polynomial)
        result.registry = self.registry
        result._terms = {m: gaussian(Fraction(re, scale), Fraction(im, scale)) if im
                         else quotient(re, scale) for m, (re, im) in self.terms.items()}
        return result


def _power(result, base, exponent: int):
    """result * base ** exponent by repeated squaring."""
    while exponent:
        if exponent & 1:
            result = result * base
        base = base * base if exponent > 1 else base
        exponent >>= 1
    return result


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
