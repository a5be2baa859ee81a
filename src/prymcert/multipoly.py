"""Sparse multivariate polynomial arithmetic over Q, and over Q(i) for parsed input.

A polynomial is a map from monomials to nonzero exact coefficients, each
in the one form exactnum.normalize gives: an int, a Fraction with
denominator > 1, or a Gaussian rational with a nonzero imaginary part.
So a polynomial in which i does not occur is computed in plain integer
and Fraction arithmetic.  i occurs only in what the cli module's
expression grammar parses, which is built by +, -, * and ** and
rendered, never evaluated.

Monomials are exponent tuples indexed by a VariableRegistry, which fixes
the variable order once and for all; two registries are interchangeable
iff they carry the same name tuple.

Term order is graded lexicographic in registry index order (total degree
first, then exponent tuples compared left to right, larger first), so
iteration and the canonical text rendering are byte-stable across runs.

evaluate_all evaluates many polynomials of one registry at one rational
point with one power table per variable, shared by all of them;
Polynomial.evaluate is its one-polynomial case.

Polynomials are immutable after construction; all operations allocate
fresh results and may be used freely across threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from operator import add, getitem
from typing import Iterable, Mapping, Sequence

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

    # -- evaluation -------------------------------------------------------------

    def evaluate(self, point: "Mapping[str, object]") -> Coefficient:
        """Exact value at a point binding every variable that occurs
        (the one-polynomial case of evaluate_all)."""
        return evaluate_all((self,), point)[0]

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


def evaluate_all(polys: "Sequence[Polynomial]",
                 point: "Mapping[str, object]") -> "list[Coefficient]":
    """Exact values of polynomials of one registry at one point.

    The point must bind every variable that occurs in some polynomial.
    Rational points are evaluated over a common denominator: each bound
    value is split once as n/d with d a positive integer, one table per
    variable holds n^e * d^(top-e) for e = 0..top, top being the largest
    degree of that variable in any of the polynomials, and each sum of
    coefficient times table entries is divided once by the product of the
    d^top.  So integer polynomials at a rational point are summed in plain
    ints.
    """
    if not polys:
        return []
    registry = polys[0].registry
    for poly in polys:
        if poly.registry is not registry:
            polys[0]._check_registry(poly)
    monos = [m for poly in polys for m in poly._terms]
    tops = map(max, registry.unit_monomial(), *monos) if monos else registry.unit_monomial()
    values: dict[int, Coefficient] = {}
    for name, value in point.items():
        values[registry.index(name)] = normalize(value)
    tables: list[list[Coefficient]] = []  # per variable, n^e * d^(top-e)
    denominator = 1
    for k, top in enumerate(tops):
        if not top:
            tables.append([1])
            continue
        if k not in values:
            raise UnboundVariable(f"variable {registry.names[k]!r} is not bound")
        n, d = values[k].numerator, values[k].denominator
        table = [1]
        for _ in range(top):
            table.append(table[-1] * n)
        if d != 1:
            table = [v * d ** (top - e) for e, v in enumerate(table)]
            denominator *= d ** top
        tables.append(table)
    results = []
    for poly in polys:
        total = 0
        for mono, coeff in poly._terms.items():
            total = total + prod(map(getitem, tables, mono), start=coeff)
        results.append(quotient(total, denominator))
    return results


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
