"""Sparse polynomial arithmetic: ring axioms, evaluation, rendering, and
the t-resultant of (2,2)-forms on integer grids (weil_model.t_resultant,
weil_model.form_grid) against the Sylvester oracle in sylvester_reference."""

import random
import sys
from fractions import Fraction
from itertools import product

import pytest

from prymcert import weil_model as wm
from prymcert.exactnum import GaussianRational, IMAG_UNIT, normalize
from prymcert.multipoly import (
    Polynomial,
    RegistryMismatch,
    UnboundVariable,
    UnknownVariable,
    VariableRegistry,
)
from product_reference import reference_product
from sylvester_reference import (
    grid_form,
    naive_det,
    reference_t_resultant,
    sylvester_resultant,
    sylvester_rows,
)

REG = VariableRegistry(("s", "t", "x", "y"))


def _vars():
    return Polynomial.variables(REG, "s", "t", "x", "y")


def _random_poly(rng, registry=REG, max_terms=5, gaussian=True):
    """Coefficients in Q(i), as parsed input may have, or in Q, as evaluate takes."""
    p = Polynomial.zero(registry)
    for _ in range(rng.randint(0, max_terms)):
        mono = tuple(rng.randint(0, 2) for _ in registry.names)
        coeff = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        if gaussian:
            coeff = GaussianRational(coeff, Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
        p = p + Polynomial(registry, {mono: coeff})
    return p


def _random_point(rng, registry=REG):
    return {n: Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for n in registry.names}


def test_registry_validation():
    with pytest.raises(ValueError):
        VariableRegistry(("s", "s"))
    with pytest.raises(ValueError, match="empty variable name"):
        VariableRegistry(("s", ""))
    with pytest.raises(ValueError, match="wrong arity"):
        Polynomial(REG, {(1, 0): 1})
    with pytest.raises(UnknownVariable):
        REG.index("q")
    assert REG.index("x") == 2
    assert "t" in REG and "q" not in REG
    assert REG == VariableRegistry(("s", "t", "x", "y"))


def test_basic_arithmetic():
    s, t, x, y = _vars()
    assert (s + t) * (s - t) == s ** 2 - t ** 2
    p = 3 * s * t - y
    assert p + Polynomial.zero(REG) == p
    assert ((s + t + x + y) ** 2).term_count() == 10
    assert Polynomial.constant(REG, 3) == 3 and s != 3
    for exponent in (-1, Fraction(1, 2)):
        with pytest.raises(ValueError, match="non-negative integer"):
            s ** exponent
    with pytest.raises(TypeError):
        s + "t"


def test_ring_axioms_randomized():
    # all-Q(i) operands, then every mix of Q(i) and Q operands
    rng = random.Random(7)
    for flags in [(True,) * 3] * 120 + list(product((True, False), repeat=3)) * 10:
        p, q, r = (_random_poly(rng, gaussian=flag) for flag in flags)
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r


def _random_coefficient(rng, kind):
    if kind == "int":
        return rng.randint(-9, 9)
    if kind == "fraction":
        return Fraction(rng.randint(-9, 9), rng.randint(1, 12))
    return GaussianRational(Fraction(rng.randint(-9, 9), rng.randint(1, 12)),
                            Fraction(rng.randint(-9, 9), rng.randint(1, 12)))


def _random_mixed_poly(rng, kinds, max_terms=6):
    """Up to max_terms terms, each coefficient of a kind drawn from kinds."""
    return Polynomial(REG, {tuple(rng.randint(0, 2) for _ in REG.names):
                            _random_coefficient(rng, rng.choice(kinds))
                            for _ in range(rng.randint(0, max_terms))})


def _assert_same_product(p, q):
    got, expected = p * q, reference_product(p, q)
    assert got.render() == expected.render()
    assert got.items() == expected.items()
    for mono, coeff in got.items():
        assert normalize(coeff) is coeff, coeff  # the one form, as it was built
        assert type(coeff) is type(expected.coefficient(mono)), (mono, coeff)


def test_product_matches_the_per_pair_reference():
    rng = random.Random(29)
    kinds = [("int",), ("fraction",), ("gaussian",), ("int", "fraction"),
             ("int", "gaussian"), ("fraction", "gaussian"), ("int", "fraction", "gaussian")]
    for left, right in product(kinds, repeat=2):
        for _ in range(12):
            _assert_same_product(_random_mixed_poly(rng, left), _random_mixed_poly(rng, right))
    for scalar in (0, 3, Fraction(-2, 9), GaussianRational(Fraction(1, 4), Fraction(-5, 6))):
        p = _random_mixed_poly(rng, ("int", "fraction", "gaussian"))
        assert scalar * p == p * scalar == reference_product(p, Polynomial.constant(REG, scalar))


def test_product_imaginary_parts_cancel():
    s, t, x, y = _vars()
    i = IMAG_UNIT

    def gaussian(re, im):
        return Polynomial.constant(REG, GaussianRational(Fraction(re), Fraction(im)))

    cases = [
        # (s + i)(s - i) = s^2 + 1: the s coefficient cancels to 0, the constant is the int 1
        (s + i, s - i, {(2, 0, 0, 0): 1, (0, 0, 0, 0): 1}),
        # (s + i/2)(s - i/3): the constant is the real 1/6, the s coefficient i/6
        (s + Fraction(1, 2) * i, s - Fraction(1, 3) * i,
         {(2, 0, 0, 0): 1, (1, 0, 0, 0): GaussianRational(0, Fraction(1, 6)),
          (0, 0, 0, 0): Fraction(1, 6)}),
        # (1 + i)/2 * t times (1 - i)/3 is the real t/3
        (gaussian(Fraction(1, 2), Fraction(1, 2)) * t, gaussian(Fraction(1, 3), Fraction(-1, 3)),
         {(0, 1, 0, 0): Fraction(1, 3)}),
        # 2(1 + i)/3 times 3(1 - i)/4 is the int 1
        (gaussian(Fraction(2, 3), Fraction(2, 3)), gaussian(Fraction(3, 4), Fraction(-3, 4)),
         {(0, 0, 0, 0): 1}),
        # (x + iy)(x - iy) = x^2 + y^2: the xy coefficient cancels to 0
        (x + i * y, x - i * y, {(0, 0, 2, 0): 1, (0, 0, 0, 2): 1}),
    ]
    for left, right, expected in cases:
        _assert_same_product(left, right)
        got = left * right
        assert got.items() == expected.items()
        assert all(type(c) is type(expected[m]) for m, c in got.items()), got


def test_int_product_builds_no_fraction():
    rng = random.Random(31)
    p, q = (_random_mixed_poly(rng, ("int",), max_terms=12) for _ in range(2))
    called = set()

    def profile(frame, event, _arg):
        if event == "call":
            called.add((frame.f_code.co_filename, frame.f_code.co_name))

    sys.setprofile(profile)
    try:
        result = p * q
    finally:
        sys.setprofile(None)
    # no Fraction is built, and the Gaussian-integer scaling does not run
    assert not [f for f, _ in called if f.endswith("fractions.py")], called
    assert "_gaussian_integers" not in {name for _, name in called}, called
    assert result == reference_product(p, q)
    assert all(type(c) is int for _, c in result.items())


def test_registry_mismatch():
    other = VariableRegistry(("u", "v"))
    with pytest.raises(RegistryMismatch):
        Polynomial.variable(REG, "s") + Polynomial.variable(other, "u")


def test_evaluate_examples():
    s, t, x, y = _vars()
    ones = {n: 1 for n in REG.names}
    assert (s + t + x + y).evaluate(ones) == GaussianRational(Fraction(4))
    with pytest.raises(UnboundVariable):
        (s + t).evaluate({"s": 1})


def test_evaluate_is_homomorphism():
    rng = random.Random(13)
    for _ in range(60):
        p, q = _random_poly(rng, gaussian=False), _random_poly(rng, gaussian=False)
        point = _random_point(rng)
        assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)
        assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)


def test_evaluate_of_a_product():
    # products evaluate to the product of the values at random rational points
    rng = random.Random(19)
    for _ in range(50):
        p = _random_poly(rng, max_terms=4, gaussian=False)
        q = _random_poly(rng, max_terms=3, gaussian=False)
        point = {n: Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for n in REG.names}
        assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)


DIAG = wm.diagonal_registry()


def _diagonal_vars():
    return Polynomial.variables(DIAG, "s", "t")


def test_form_grid_round_trip():
    # form_grid is the dense coefficient table in s and t of a (2,2)-form
    s, t = _diagonal_vars()
    p = s ** 2 * t + 3 * t - 1
    grid = wm.form_grid(p)
    assert grid == [[-1, 0, 0], [3, 0, 1], [0, 0, 0]]
    assert all(type(c) is int for row in grid for c in row)
    assert grid_form(grid) == p
    with pytest.raises(ValueError):
        wm.form_grid(t ** 3)  # above the declared degree 2 in t


def _res(f, g):
    return wm.t_resultant(wm.form_grid(f), wm.form_grid(g))


def _dense(poly):
    """Nine coefficients in s of a polynomial in s alone."""
    assert all(m[1] == 0 for m, _ in poly.terms()), poly
    return [poly.coefficient((j, 0)) for j in range(9)]


def test_t_resultant_examples():
    s, t = _diagonal_vars()
    assert _res(t ** 2 - s, t - 1) == _dense(1 - s)
    assert _res(t ** 2 - s, t ** 2 - 1) == _dense((1 - s) ** 2)
    f = s * t ** 2 + t - 1
    assert not any(_res(f, f))
    # forms constant in t share the double root t = infinity at declared degree 2
    assert not any(_res(s + 1, s ** 2))
    for f, g in [(t ** 2 - s, t - 1), (f, 2 * t ** 2 + s), (s * t + 1, t ** 2 - s ** 2)]:
        assert _res(f, g) == _dense(sylvester_resultant(f, g, "t", 2, 2))


def test_t_resultant_roots_at_infinity():
    # forms with a common projective root at infinity have zero resultant
    s, t = _diagonal_vars()
    f = s + t            # t-degree 1, declared 2: shares the root t=inf with g
    g = 2 * s - t
    assert not any(_res(f, g))
    assert not sylvester_resultant(f, g, "t", 2, 2)
    assert sylvester_resultant(f, g, "t", 1, 1) == 3 * s
    # one root at infinity only: the resultant is nonzero
    assert _res(f, t * g) == _dense(sylvester_resultant(f, t * g, "t", 2, 2))
    assert any(_res(f, t * g))


def _random_grid(rng, zero_t2=False, zero_s2=False):
    grid = [[rng.randint(-6, 6) if rng.random() < 0.7 else 0 for _ in range(3)]
            for _ in range(3)]
    if zero_t2:
        grid[2] = [0, 0, 0]
    if zero_s2:
        for row in grid:
            row[2] = 0
    return grid


def test_t_resultant_matches_sylvester_reference():
    rng = random.Random(53)
    kinds = {"random": {}, "zero-t2": {"zero_t2": True}, "zero-s2": {"zero_s2": True}}
    for _ in range(40):
        for kind, options in kinds.items():
            f = _random_grid(rng, **options)
            g = _random_grid(rng, **options) if rng.random() < 0.5 else _random_grid(rng)
            assert wm.t_resultant(f, g) == reference_t_resultant(f, g), (kind, f, g)
    for _ in range(10):
        f = _random_grid(rng)
        zero = [[0] * 3 for _ in range(3)]
        assert wm.t_resultant(f, f) == reference_t_resultant(f, f) == [0] * 9
        assert wm.t_resultant(f, zero) == reference_t_resultant(f, zero) == [0] * 9
        assert wm.t_resultant(zero, f) == [0] * 9
    # zero t^2 rows in both: the root t = infinity is shared, the resultant vanishes
    f, g = _random_grid(rng, zero_t2=True), _random_grid(rng, zero_t2=True)
    assert wm.t_resultant(f, g) == [0] * 9
    # the Sylvester rows of the oracle are the textbook ones
    s, t = _diagonal_vars()
    rows = sylvester_rows(s * t + 1, 2 * t - s ** 2, "t", 1, 1)
    assert naive_det(rows) == -(s ** 3) - 2


def test_common_root_detection_matches_evaluation():
    # the resultant vanishes at a specialization iff the pair has a common root there
    s, t = _diagonal_vars()
    f = (t - s) * (t - 2)
    g = (t - s) * (t + 1)
    values = _res(f, g)
    assert sum(c * 5 ** j for j, c in enumerate(values)) == 0  # common root t = s
    h = (t - 3) * (t + 1)
    values = _res(f, h)
    assert sum(c * 5 ** j for j, c in enumerate(values))  # no common root for s = 5
    assert not sum(c * 3 ** j for j, c in enumerate(values))  # common root t = 3 when s = 3


def test_term_order_and_rendering_deterministic():
    s, t, x, y = _vars()
    p = y + x ** 2 + s * t + 1 + 2 * s
    # graded-lex: degree first, then exponent tuple (earlier variable wins)
    assert p.render() == "s*t + x^2 + 2*s + y + 1"
    assert p.render() == p.render()
    monos = [m for m, _ in p.terms()]
    assert monos == sorted(monos, key=lambda m: (sum(m), m), reverse=True)


def test_leading_and_degrees():
    s, t, x, y = _vars()
    p = s * t ** 2 - x
    mono, coeff = p.leading()
    assert mono == (1, 2, 0, 0) and coeff == 1
    assert p.total_degree() == 3
    assert Polynomial.zero(REG).total_degree() == -1
    with pytest.raises(ValueError):
        Polynomial.zero(REG).leading()


def test_constant_value_and_bool():
    c = Polynomial.constant(REG, IMAG_UNIT)
    assert c.coefficient(REG.unit_monomial()) == IMAG_UNIT and c.term_count() == 1
    assert c.total_degree() == 0
    assert not Polynomial.zero(REG)
    assert Polynomial.variable(REG, "s")


def test_form_grid_layout_and_errors():
    s, t = _diagonal_vars()
    grid = wm.form_grid(s ** 2 * t + t ** 2)
    assert grid[0] == [0, 0, 0]
    assert grid[1] == [0, 0, 1]
    assert grid[2] == [1, 0, 0]
    with pytest.raises(ValueError):
        wm.form_grid(s ** 3)
    with pytest.raises(ValueError):
        wm.form_grid(Polynomial.variable(REG, "s"))  # 4-var registry
    with pytest.raises(ValueError):
        wm.form_grid(Fraction(1, 2) * s)  # not over Z
