"""Sparse polynomial arithmetic: ring axioms, substitution, resultants, rendering."""

import random
from fractions import Fraction

import pytest

from prymcert.exactnum import GaussianRational, IMAG_UNIT
from prymcert.multipoly import (
    BidegreeForm,
    DegreeZero,
    Polynomial,
    RegistryMismatch,
    UnboundVariable,
    UnknownVariable,
    VariableRegistry,
    sylvester_resultant,
)

REG = VariableRegistry(("s", "t", "x", "y"))


def _vars():
    return Polynomial.variables(REG, "s", "t", "x", "y")


def _random_poly(rng, registry=REG, max_terms=5, max_exp=2):
    p = Polynomial.zero(registry)
    for _ in range(rng.randint(0, max_terms)):
        mono = tuple(rng.randint(0, max_exp) for _ in registry.names)
        coeff = GaussianRational(Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                                 Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
        p = p + Polynomial(registry, {mono: coeff})
    return p


def _random_point(rng, registry=REG):
    return {n: GaussianRational(Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                                Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
            for n in registry.names}


def test_registry_validation():
    with pytest.raises(ValueError):
        VariableRegistry(("s", "s"))
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


def test_substitute_identity_and_examples():
    s, t, x, y = _vars()
    p = s * x + t * y
    assert p.substitute({}) == p
    assert p.substitute({"x": s, "y": t}) == s ** 2 + t ** 2

    abstract = VariableRegistry(("a1", "a2", "a3", "a4", "A1", "A2", "A3"))
    a1, a2, a3, a4, A1, A2, A3 = Polynomial.variables(
        abstract, "a1", "a2", "a3", "a4", "A1", "A2", "A3")
    image = A1 * a1 + A2 * a2 + A3 * a3
    assert a4.substitute({"a4": image}) == image


def test_substitute_errors():
    s, t, x, y = _vars()
    with pytest.raises(UnknownVariable):
        (s + t).substitute({"q": s})
    small = VariableRegistry(("s", "t"))
    shrunk = Polynomial.variable(small, "s")
    # x is substituted away but y cannot be carried into the small registry
    with pytest.raises(UnknownVariable):
        (x * y).substitute({"x": shrunk})


def test_substitute_is_homomorphism():
    rng = random.Random(11)
    s, t, x, y = _vars()
    for _ in range(60):
        p, q = _random_poly(rng, max_terms=4), _random_poly(rng, max_terms=4)
        bindings = {"x": _random_poly(rng, max_terms=2, max_exp=1),
                    "y": _random_poly(rng, max_terms=2, max_exp=1)}
        left = (p * q).substitute(bindings)
        right = p.substitute(bindings) * q.substitute(bindings)
        assert left == right
        assert (p + q).substitute(bindings) == p.substitute(bindings) + q.substitute(bindings)


def test_evaluate_examples():
    s, t, x, y = _vars()
    ones = {n: 1 for n in REG.names}
    assert (s + t + x + y).evaluate(ones) == GaussianRational(Fraction(4))
    with pytest.raises(UnboundVariable):
        (s + t).evaluate({"s": 1})


def test_evaluate_is_homomorphism():
    rng = random.Random(13)
    for _ in range(60):
        p, q = _random_poly(rng), _random_poly(rng)
        point = _random_point(rng)
        assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)
        assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)


def test_coefficient_vector_examples():
    reg = VariableRegistry(("a1", "a2", "a3", "C1", "C2", "C3", "b1", "b2"))
    a1, a2, a3, C1, C2, C3, b1, b2 = Polynomial.variables(
        reg, "a1", "a2", "a3", "C1", "C2", "C3", "b1", "b2")
    basis = (
        reg.monomial(a1=2), reg.monomial(a2=2), reg.monomial(a3=2),
        reg.monomial(a1=1, a2=1), reg.monomial(a1=1, a3=1), reg.monomial(a2=1, a3=1),
    )
    # b1-square relation with the last generator eliminated
    p = a1 ** 2 - 4 * (a2 * (C1 * a1 + C2 * a2 + C3 * a3))
    coeffs, remainder = p.coefficient_vector(basis)
    assert not remainder
    assert all(c.total_degree() <= 1 for c in coeffs)
    at_zero = {n: 0 for n in ("C1", "C2", "C3")}
    values = [c.evaluate(at_zero) for c in coeffs]
    assert values == [1, 0, 0, 0, 0, 0]

    zero = Polynomial.zero(reg)
    coeffs, remainder = zero.coefficient_vector(basis)
    assert all(not c for c in coeffs) and not remainder

    off = b1 * b2
    coeffs, remainder = off.coefficient_vector(basis)
    assert all(not c for c in coeffs)
    assert remainder == off


def test_coefficient_vector_reconstruction():
    rng = random.Random(17)
    reg = VariableRegistry(("u", "v", "w"))
    basis = (reg.monomial(u=2), reg.monomial(u=1, v=1), reg.monomial(v=2))
    for _ in range(60):
        p = _random_poly(rng, reg, max_terms=6, max_exp=2)
        coeffs, remainder = p.coefficient_vector(basis)
        rebuilt = remainder
        for c, mono in zip(coeffs, basis):
            rebuilt = rebuilt + c * Polynomial(reg, {mono: 1})
        assert rebuilt == p


def test_coefficient_vector_rejects_duplicates():
    with pytest.raises(ValueError):
        Polynomial.zero(REG).coefficient_vector([REG.monomial(s=1), REG.monomial(s=1)])


def test_divide_exact():
    # products evaluate to the product of the values at random rational points
    rng = random.Random(19)
    for _ in range(50):
        p = _random_poly(rng, max_terms=4)
        q = _random_poly(rng, max_terms=3)
        point = {n: Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for n in REG.names}
        assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)


def test_coefficients_in():
    s, t, x, y = _vars()
    p = s ** 2 * t + 3 * t - x
    coeffs = p.coefficients_in("t")
    assert len(coeffs) == 2
    assert coeffs[0] == -x
    assert coeffs[1] == s ** 2 + 3
    padded = p.coefficients_in("t", 3)
    assert len(padded) == 4 and not padded[2] and not padded[3]
    with pytest.raises(ValueError):
        p.coefficients_in("t", 0)


def test_sylvester_resultant_examples():
    s, t, x, y = _vars()
    assert sylvester_resultant(s - t, s + t, "t") == -2 * s
    assert sylvester_resultant(t ** 2 - s, t - 1, "t") == 1 - s
    f = s * t ** 2 + t - 1
    assert not sylvester_resultant(f, f, "t")
    with pytest.raises(DegreeZero):
        sylvester_resultant(s, s + t, "t")


def test_sylvester_resultant_declared_degrees():
    # forms with a common projective root at infinity have zero resultant
    s, t, x, y = _vars()
    f = s + t            # t-degree 1, declared 2: shares the root t=inf with g
    g = 2 * s - t
    assert not sylvester_resultant(f, g, "t", deg_f=2, deg_g=2)
    assert sylvester_resultant(f, g, "t", deg_f=1, deg_g=1) == 3 * s


def _naive_det(rows):
    """First-row Laplace expansion with no memoization."""
    if len(rows) == 1:
        return rows[0][0]
    total = Polynomial.zero(rows[0][0].registry)
    for j, entry in enumerate(rows[0]):
        minor = _naive_det([r[:j] + r[j + 1:] for r in rows[1:]])
        total = total - entry * minor if j % 2 else total + entry * minor
    return total


def _sylvester_rows(f, g):
    """Sylvester matrix in t of two bidegree forms, from the textbook definition."""
    m, n = f.degrees[1], g.degrees[1]
    zero = Polynomial.zero(f.poly.registry)
    fc = f.coefficients("t")[::-1]  # descending powers of t
    gc = g.coefficients("t")[::-1]
    return ([[zero] * k + fc + [zero] * (n - 1 - k) for k in range(n)]
            + [[zero] * k + gc + [zero] * (m - 1 - k) for k in range(m)])


def _random_form(rng, registry, t_degree):
    p = Polynomial.zero(registry)
    for _ in range(rng.randint(1, 4)):
        mono = (rng.randint(0, 2), rng.randint(0, t_degree))
        p = p + Polynomial(registry, {mono: Fraction(rng.randint(-4, 4), rng.randint(1, 2))})
    return BidegreeForm(p, (2, t_degree))


def test_sylvester_resultant_matches_naive_laplace():
    reg = VariableRegistry(("s", "t"))
    rng = random.Random(53)
    for _ in range(60):
        f = _random_form(rng, reg, rng.randint(1, 3))
        g = _random_form(rng, reg, rng.randint(1, 3))
        res = sylvester_resultant(f.poly, g.poly, "t", f.degrees[1], g.degrees[1])
        assert res == _naive_det(_sylvester_rows(f, g))

    # declared t-degrees above the actual ones: both forms vanish at t = inf
    s, t = Polynomial.variables(reg, "s", "t")
    f = BidegreeForm(s * t + 1, (2, 2))
    g = BidegreeForm(2 * t - s ** 2, (2, 2))
    assert not _naive_det(_sylvester_rows(f, g))
    assert not sylvester_resultant(f.poly, g.poly, "t", 2, 2)
    # the same coprime pair at its actual degrees has a nonzero resultant
    f, g = BidegreeForm(f.poly, (2, 1)), BidegreeForm(g.poly, (2, 1))
    res = sylvester_resultant(f.poly, g.poly, "t", 1, 1)
    assert res == _naive_det(_sylvester_rows(f, g)) == -(s ** 3) - 2


def test_common_root_detection_matches_evaluation():
    # resultant vanishes at a specialization iff the pair has a common root there
    s, t, x, y = _vars()
    f = (t - s) * (t - 2)
    g = (t - s) * (t + 1)
    r = sylvester_resultant(f, g, "t")
    assert not r.evaluate({"s": 5, "t": 0}) or True  # r is in s only
    assert r.evaluate({"s": 5}) == 0  # common root t = s
    h = (t - 3) * (t + 1)
    r2 = sylvester_resultant(f, h, "t")
    assert r2.evaluate({"s": 5})  # no common root for s = 5
    assert not r2.evaluate({"s": 3})  # common root t = 3 when s = 3


def test_change_registry():
    s, t, x, y = _vars()
    big = VariableRegistry(("s", "t", "x", "y", "z"))
    p = s * t + x
    moved = p.change_registry(big)
    assert moved.registry == big
    assert moved.evaluate({n: 1 for n in big.names}) == 2
    with pytest.raises(UnknownVariable):
        p.change_registry(VariableRegistry(("s", "t")))


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
    assert mono == REG.monomial(s=1, t=2) and coeff == 1
    assert p.total_degree() == 3
    assert p.degree_in("t") == 2
    assert Polynomial.zero(REG).total_degree() == -1
    with pytest.raises(ValueError):
        Polynomial.zero(REG).leading()


def test_constant_value_and_bool():
    c = Polynomial.constant(REG, IMAG_UNIT)
    assert c.constant_value() == IMAG_UNIT
    assert not Polynomial.zero(REG)
    s = Polynomial.variable(REG, "s")
    with pytest.raises(ValueError):
        s.constant_value()


def test_bidegree_form():
    reg = VariableRegistry(("s", "t"))
    s, t = Polynomial.variables(reg, "s", "t")
    form = BidegreeForm(s ** 2 * t + t ** 2, (2, 2))
    coeffs = form.coefficients("t")
    assert len(coeffs) == 3
    assert coeffs[0] == Polynomial.zero(reg)
    assert coeffs[1] == s ** 2
    assert coeffs[2] == Polynomial.constant(reg, 1)
    with pytest.raises(ValueError):
        BidegreeForm(s ** 3, (2, 2))
    with pytest.raises(ValueError):
        BidegreeForm(Polynomial.variable(REG, "s"), (2, 2))  # 4-var registry
