"""Exact arithmetic over Q, and the Gaussian rationals of parsed input.

A coefficient in this package is a plain Python number wherever the
imaginary unit does not occur, and a Gaussian rational only where it
does.  `normalize` puts every exact value into exactly one of three
forms:

  * an `int`;
  * a `fractions.Fraction` with denominator > 1;
  * a `GaussianRational` (a pair of Fractions re + im*i) with im != 0.

i occurs only in input parsed by the cli module's expression grammar and
in its rendering; every verdict is computed over Q.  The grammar lowers
over the Gaussian integers (multipoly.GaussianForm), which builds each
Q(i) value it returns once, with `_gaussian`.  GaussianRational keeps +,
unary - and * (for Polynomial sums, and for perfbench's qi_mul_ns
probe) and has no division or power.  Arithmetic
returns the real form as soon as an imaginary part cancels, and a
GaussianRational compares and hashes equal to the real number it
denotes, so two equal values have one representation and polynomial
equality reduces to coefficient comparison.  GaussianRational is a
plain class with __slots__ whose instances are immutable (Frozen, the
base shared with the value types of weil_model).  No floating point is
used anywhere: `int / int` is a float in Python, so every coefficient
division goes through `quotient`.

Textual form: a rational renders as ``p`` or ``p/q``; a Gaussian rational
renders as e.g. ``1/2-3/4*i``.  The rendering is decimal-free and is
accepted back by the expression grammar of the cli module.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

Rational = Fraction

_RATIONAL_TEXT = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def rational_from_text(text: str) -> Fraction:
    """Parse 'p' or 'p/q' into a Fraction: an optional sign and ASCII digits,
    then optionally '/' and ASCII digits (no zero denominator)."""
    text = text.strip()
    if not _RATIONAL_TEXT.fullmatch(text):
        raise ValueError(f"not a decimal-free rational: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {text!r}") from None


_new_object = object.__new__
_set_field = object.__setattr__


class Frozen:
    """Base of the immutable value types: attributes are set once, in
    __init__ through object.__setattr__, and never again."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which takes the slots in order
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class GaussianRational(Frozen):
    """An element re + im*i of Q(i), the field of Gaussian rationals.

    Arithmetic results with a zero imaginary part come back as an int or
    a Fraction; an instance built directly with im = 0 equals (and hashes
    like) its real part.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: "Fraction | int" = 0, im: "Fraction | int" = 0):
        _set_field(self, "re", re if isinstance(re, Fraction) else Fraction(re))
        _set_field(self, "im", im if isinstance(im, Fraction) else Fraction(im))

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"

    # -- comparison ----------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other: object) -> bool:
        if type(other) is GaussianRational:
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return not self.im and self.re == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.re, self.im)) if self.im else hash(self.re)

    # -- ring operations ------------------------------------------------------

    def __add__(self, other: object):
        if type(other) is GaussianRational:
            return _gaussian(self.re + other.re, self.im + other.im)
        if isinstance(other, (int, Fraction)):
            return _gaussian(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return _gaussian(-self.re, -self.im)

    def __mul__(self, other: object):
        if type(other) is GaussianRational:
            a, b, c, d = self.re, self.im, other.re, other.im
            return _gaussian(a * c - b * d, a * d + b * c)
        if isinstance(other, (int, Fraction)):
            return _gaussian(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

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


def _gaussian(re: Fraction, im: Fraction):
    """re + im*i from Fraction parts, in normalized form."""
    if not im:
        return re.numerator if re.denominator == 1 else re
    value = _new_object(GaussianRational)
    _set_field(value, "re", re)
    _set_field(value, "im", im)
    return value


def _imag_text(im: Fraction, leading: bool) -> str:
    if im == 1:
        return "i"
    if im == -1:
        # a bare leading "-i" is not in the grammar; "-1*i" is
        return "-1*i" if leading else "1*i"
    return f"{im}*i"


def normalize(value: "Coefficient") -> "Coefficient":
    """The one form of an exact number: int, Fraction with denominator > 1,
    or GaussianRational with a nonzero imaginary part.

    TypeError for anything else, floats included.
    """
    kind = type(value)
    if kind is int:
        return value
    if kind is Fraction:
        return value.numerator if value.denominator == 1 else value
    if kind is GaussianRational:
        return value if value.im else normalize(value.re)
    raise TypeError(f"cannot interpret {value!r} as an exact number")


def primitive(values: "Sequence[int | Fraction]") -> "tuple[list[int], int, int]":
    """Clear the denominators of rationals and divide out the content.

    Returns (ints, scale, content): ints = values * scale / content, with
    scale the lcm of the denominators and content the gcd of the cleared
    entries, so the ints are coprime (all zero, with content 1, when
    every value is 0).  The one rule for moving rational rows and
    coefficient lists into Z.
    """
    scale = lcm(*[v.denominator for v in values])
    ints = [v.numerator * (scale // v.denominator) for v in values]
    content = gcd(*ints) or 1
    if content != 1:
        ints = [v // content for v in ints]
    return ints, scale, content


def quotient(a: "Coefficient", b: "Coefficient") -> "Coefficient":
    """Exact a / b in normalized form (never a float); ZeroDivisionError for b = 0."""
    if b == 1:
        return normalize(a)
    if type(a) is int and type(b) is int:
        return normalize(Fraction(a, b))
    return normalize(a / b)


Coefficient = int | Fraction | GaussianRational

IMAG_UNIT = GaussianRational(Fraction(0), Fraction(1))
