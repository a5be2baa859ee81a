"""Exact arithmetic over Q and Q(i).

Every coefficient in this package is a Gaussian rational: an element of
Q(i) stored as an exact pair of `fractions.Fraction` values.  Fraction
already guarantees the canonical form we rely on everywhere else (fully
reduced, positive denominator, arbitrary precision), so two equal values
always have an identical representation and polynomial equality reduces
to coefficient comparison.  No floating point is used anywhere.

Textual form: a rational renders as ``p`` or ``p/q``; a Gaussian rational
renders as e.g. ``1/2-3/4*i``.  The rendering is decimal-free and is
accepted back by the expression grammar of the cli module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

Rational = Fraction

_Coercible = "GaussianRational | Fraction | int"


def rational_from_text(text: str) -> Fraction:
    """Parse 'p' or 'p/q' into a Fraction (no decimals, no zero denominator)."""
    text = text.strip()
    if "." in text or "e" in text.lower():
        raise ValueError(f"not a decimal-free rational: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {text!r}") from None


def rational_to_text(value: Fraction) -> str:
    """Render as 'p' or 'p/q' (denominator omitted when 1)."""
    return str(value)


@dataclass(frozen=True)
class GaussianRational:
    """An element re + im*i of Q(i), the field of Gaussian rationals."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        if not isinstance(self.re, Fraction):
            object.__setattr__(self, "re", Fraction(self.re))
        if not isinstance(self.im, Fraction):
            object.__setattr__(self, "im", Fraction(self.im))

    # -- construction ----------------------------------------------------

    @classmethod
    def from_rational(cls, value: Fraction | int) -> "GaussianRational":
        return cls(Fraction(value), Fraction(0))

    # -- predicates -------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    @property
    def is_rational(self) -> bool:
        return self.im == 0

    def rational_part(self) -> Fraction:
        """The value as a Fraction; raises if the imaginary part is nonzero."""
        if self.im != 0:
            raise ValueError(f"{self} is not rational")
        return self.re

    # -- ring operations --------------------------------------------------

    def __add__(self, other: object) -> "GaussianRational":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other: object) -> "GaussianRational":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other: object) -> "GaussianRational":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other: object) -> "GaussianRational":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        """Multiplicative inverse; conjugate over the norm re^2 + im^2."""
        norm = self.re * self.re + self.im * self.im
        if norm == 0:
            raise ZeroDivisionError("inverse of zero in Q(i)")
        return GaussianRational(self.re / norm, -self.im / norm)

    def __truediv__(self, other: object) -> "GaussianRational":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other: object) -> "GaussianRational":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def divide_exact(self, other: "GaussianRational") -> "GaussianRational":
        """Division (always exact in a field); mirrors Polynomial.divide_exact."""
        return self / other

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __pow__(self, exponent: int) -> "GaussianRational":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = ONE
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- rendering ----------------------------------------------------------

    def to_text(self) -> str:
        """Canonical decimal-free rendering, parseable by the cli grammar."""
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return _imag_text(self.im, leading=True)
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{_imag_text(abs(self.im), leading=False)}"

    def __str__(self) -> str:
        return self.to_text()


def _imag_text(im: Fraction, leading: bool) -> str:
    if im == 1:
        return "i"
    if im == -1:
        # a bare leading "-i" is not in the grammar; "-1*i" is
        return "-1*i" if leading else "1*i"
    return f"{im}*i"


def _coerce(value: object):
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(Fraction(value), Fraction(0))
    return NotImplemented


def as_gaussian(value: "GaussianRational | Fraction | int") -> GaussianRational:
    """Coerce int / Fraction / GaussianRational to GaussianRational."""
    coerced = _coerce(value)
    if coerced is NotImplemented:
        raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")
    return coerced


ZERO = GaussianRational(Fraction(0), Fraction(0))
ONE = GaussianRational(Fraction(1), Fraction(0))
IMAG_UNIT = GaussianRational(Fraction(0), Fraction(1))
