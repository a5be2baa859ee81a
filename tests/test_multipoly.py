"""Sparse polynomial arithmetic: ring axioms, evaluation, rendering, and
the t-resultant of (2,2)-forms on integer grids (weil_model.t_resultant,
weil_model.form_grid) against the Sylvester oracle in sylvester_reference."""

import random
from fractions import Fraction

import pytest

from prymcert import weil_model as wm
from prymcert.exactnum import GaussianRational, IMAG_UNIT
from prymcert.multipoly import (
    Polynomial,
    RegistryMismatch,
    UnboundVariable,
    UnknownVariable,
    VariableRegistry,
)
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
    rng = random.Random(7)
    for _ in range(120):
        p, q, r = (_random_poly(rng) for _ in range(3))
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r


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
