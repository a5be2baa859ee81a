"""Field arithmetic in Q(i): exactness, canonical form, rendering."""

import random
from fractions import Fraction

import pytest

from prymcert.exactnum import (
    GaussianRational,
    IMAG_UNIT,
    normalize,
    quotient,
    rational_from_text,
)


def G(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def test_addition_examples():
    assert G(Fraction(1, 2)) + G(Fraction(1, 2)) == 1
    assert G(1, 1) + G(1, -1) == G(2)
    z = G(Fraction(-3, 7), Fraction(5, 2))
    assert 0 + z == z
    assert G(0) + z == z


def test_multiplication_examples():
    assert G(1, 1) * G(1, -1) == G(2)
    assert IMAG_UNIT * IMAG_UNIT == G(-1)
    assert G(1, -1).inverse() == G(Fraction(1, 2), Fraction(1, 2))


def test_inverse_examples():
    assert G(2).inverse() == G(Fraction(1, 2))
    assert IMAG_UNIT.inverse() == -IMAG_UNIT
    assert G(1, 1).inverse() == G(Fraction(1, 2), Fraction(-1, 2))


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        G(0).inverse()
    with pytest.raises(ZeroDivisionError):
        G(1) / G(0)
    with pytest.raises(ZeroDivisionError):
        IMAG_UNIT / 0
    with pytest.raises(ZeroDivisionError):
        quotient(1, 0)


def test_power():
    assert (1 + IMAG_UNIT) ** 2 == G(0, 2)
    assert IMAG_UNIT ** 4 == 1
    assert G(3) ** 0 == 1
    with pytest.raises(ValueError):
        IMAG_UNIT ** -1


def _random_value(rng):
    return GaussianRational(
        Fraction(rng.randint(-20, 20), rng.randint(1, 12)),
        Fraction(rng.randint(-20, 20), rng.randint(1, 12)),
    )


def test_field_axioms_randomized():
    rng = random.Random(20240817)
    for _ in range(300):
        a, b, c = (_random_value(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if a:
            assert a * a.inverse() == 1
            assert a / a == 1


def test_canonical_representation():
    # equal values have identical stored fields, so dict/set semantics are exact
    a = GaussianRational(Fraction(2, 4), Fraction(-6, 9))
    b = GaussianRational(Fraction(1, 2), Fraction(-2, 3))
    assert a == b
    assert (a.re.numerator, a.re.denominator) == (1, 2)
    assert hash(a) == hash(b)
    assert a.re.denominator > 0 and a.im.denominator > 0


def test_coercion():
    assert normalize(3) == G(3)
    assert normalize(Fraction(1, 3)) == G(Fraction(1, 3))
    assert 2 + IMAG_UNIT == G(2, 1)
    assert Fraction(1, 2) * G(2) == 1
    with pytest.raises(TypeError):
        normalize("nope")


def test_conjugate_and_rational_part():
    z = G(Fraction(1, 3), Fraction(-2, 5))
    assert type(z * G(z.re, -z.im)) is Fraction  # the norm is rational
    assert normalize(z) is z  # a nonzero imaginary part keeps z in Q(i)
    assert normalize(G(7)) == 7 and type(normalize(G(7))) is int


def test_rendering():
    assert G(Fraction(1, 2), Fraction(-3, 4)).to_text() == "1/2-3/4*i"
    assert IMAG_UNIT.to_text() == "i"
    assert (-IMAG_UNIT).to_text() == "-1*i"
    assert G(0, Fraction(3, 4)).to_text() == "3/4*i"
    assert G(0).to_text() == "0"
    assert G(5).to_text() == "5"
    assert G(-5).to_text() == "-5"
    assert str(G(1, 1)) == "1+i"
    assert str(G(1, -1)) == "1-i"


def test_rational_text():
    assert rational_from_text("-3/4") == Fraction(-3, 4)
    assert rational_from_text(" 7 ") == 7
    with pytest.raises(ValueError):
        rational_from_text("0.5")
    with pytest.raises(ValueError):
        rational_from_text("1e3")
    with pytest.raises(ValueError):
        rational_from_text("1/0")
