"""Polynomial.evaluate and the integer rows of the per-triple checks
against a term-by-term reference.

Polynomial.evaluate sums over a common denominator, with one power table
per variable shared by all the terms; weil_model._evaluate scales the
elimination matrices to integer rows.  The reference below is the plain
loop: every term's value is built from Fraction powers and added up.
"""

import random
from fractions import Fraction
from math import lcm

import pytest

from prymcert import weil_model as wm
from prymcert.exactnum import quotient
from prymcert.linalg import ScalarMatrix
from prymcert.multipoly import Polynomial, UnboundVariable, UnknownVariable, VariableRegistry

HEIGHT = 10 ** 6


def reference_evaluate(poly, point):
    """Sum of coefficient * value^e, term by term."""
    total = Fraction(0)
    for mono, coeff in poly.terms():
        term = Fraction(coeff)
        for name, e in zip(poly.registry.names, mono):
            for _ in range(e):
                term = term * point[name]
        total = total + term
    return total.numerator if total.denominator == 1 else total


def assert_same(got, expected):
    assert type(got) is type(expected) and got == expected, (got, expected)


def random_rational(rng):
    return Fraction(rng.randint(-HEIGHT, HEIGHT), rng.randint(1, HEIGHT))


def points(names, seed):
    """Integer, height-10^6 rational, mixed and zero-holding points."""
    rng = random.Random(seed)
    n = len(names)
    kinds = {
        "integer": [rng.randint(-10, 10) for _ in range(n)],
        "rational": [random_rational(rng) for _ in range(n)],
        "mixed": [rng.randint(-10, 10) if k % 2 else random_rational(rng) for k in range(n)],
        "zeros": [0 if k % 3 == 0 else random_rational(rng) for k in range(n)],
    }
    return {kind: dict(zip(names, values)) for kind, values in kinds.items()}


COEFF_POINTS = points(wm.COEFF_VARS, seed=11)


@pytest.mark.parametrize("kind", sorted(COEFF_POINTS))
def test_det_m(kind):
    det = wm.elimination_determinant()
    point = COEFF_POINTS[kind]
    assert_same(det.evaluate(point), reference_evaluate(det, point))


@pytest.mark.parametrize("kind", sorted(COEFF_POINTS))
def test_elimination_matrix_entries(kind):
    result = wm.eliminate()
    point = COEFF_POINTS[kind]
    for matrix in (result.matrix, result.quadric_matrix):
        for i in range(matrix.rows):
            for entry in matrix.row(i):
                assert_same(entry.evaluate(point), reference_evaluate(entry, point))


def random_polynomial(reg, rng):
    terms = {}
    for _ in range(rng.randint(1, 12)):
        mono = tuple(rng.randint(0, 3) for _ in reg.names)
        terms[mono] = Fraction(rng.randint(-99, 99), rng.randint(1, 40))
    return Polynomial(reg, terms)


def test_random_polynomials():
    reg = VariableRegistry(("s", "t", "x"))
    rng = random.Random(5)
    for seed in range(40):
        poly = random_polynomial(reg, rng)
        for point in points(reg.names, seed).values():
            assert_same(poly.evaluate(point), reference_evaluate(poly, point))


def test_zero_polynomial():
    reg = VariableRegistry(("s", "t"))
    zero = Polynomial.zero(reg)
    assert_same(zero.evaluate({}), 0)
    assert_same(zero.evaluate({"s": Fraction(1, 3), "t": Fraction(-2, 5)}), 0)


def test_bound_but_absent_variable():
    reg = VariableRegistry(("s", "t"))
    s = Polynomial.variable(reg, "s")
    poly = Fraction(1, 2) * s ** 2 + 3
    point = {"s": Fraction(2, 3), "t": Fraction(5, 7)}
    assert_same(poly.evaluate(point), Fraction(29, 9))
    assert_same(poly.evaluate(point), reference_evaluate(poly, point))
    assert_same(Polynomial.constant(reg, 4).evaluate({"t": Fraction(1, 9)}), 4)


def test_unbound_variable():
    reg = VariableRegistry(("s", "t"))
    s, t = Polynomial.variables(reg, "s", "t")
    with pytest.raises(UnboundVariable):
        (s * t + 1).evaluate({"s": Fraction(1, 2)})
    with pytest.raises(UnboundVariable):
        t.evaluate({})


@pytest.mark.parametrize("kind", ["integer", "rational", "zeros"])
def test_shared_table_matches_per_entry_evaluation(kind):
    # the integer rows of the per-triple checks, from one shared plan,
    # divided by their factor
    result = wm.eliminate()
    point = COEFF_POINTS[kind]
    triple = wm.CoefficientTriple.from_rationals(point.values())
    matrices = (result.matrix, result.quadric_matrix)
    for plan, matrix in zip(wm._evaluation_plans(result), matrices):
        rows, factor = wm._evaluate(plan, triple)
        assert ScalarMatrix.from_rows([quotient(v, factor) for v in row] for row in rows) == \
            ScalarMatrix.from_rows(matrix.map(lambda e: e.evaluate(point)))


# A zero of det M: a homogenizing factor taken per variable (n^e * d^(top-e)
# with zero exponents skipped) instead of by total degree reads 9/4096 here.
DET_ZERO = (1, 0, 0, 0, 0, 0, Fraction(1, 4), 0, 0)

SCALED_TRIPLES = {
    "integer": (6, 5, 6, -6, 6, -1, -2, -8, -2),
    "height": tuple(COEFF_POINTS["rational"].values()),
    "mixed": (Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4), 5, Fraction(-7, 10),
              Fraction(11, 12), 0, Fraction(13, 6), Fraction(-1, 9)),
    "zero": (0,) * 9,
    "det-zero": DET_ZERO,
}


@pytest.mark.parametrize("kind", sorted(SCALED_TRIPLES))
def test_integer_rows_are_scaled_reference_values(kind):
    # rows = L^top * (the matrix at the triple), L the lcm of the denominators
    values = SCALED_TRIPLES[kind]
    triple = wm.CoefficientTriple.from_rationals(values)
    point = triple.as_point()
    scale = lcm(*(Fraction(v).denominator for v in values))
    result = wm.eliminate()
    matrices = (result.matrix, result.quadric_matrix)
    for plan, matrix in zip(wm._evaluation_plans(result), matrices):
        top = max(e.total_degree() for row in matrix.entries for e in row)
        rows, factor = wm._evaluate(plan, triple)
        assert top == 2 and factor == scale ** top
        assert len(rows) == matrix.rows
        for row, entries in zip(rows, matrix.entries):
            assert len(row) == matrix.cols
            for value, entry in zip(row, entries):
                assert type(value) is int
                assert value == factor * reference_evaluate(entry, point)
    det = wm.determinant_at(triple)
    assert det == reference_evaluate(wm.elimination_determinant(), point)
    assert (det == 0) == (values == DET_ZERO)


def test_shared_table_across_degrees():
    # one table per variable serves terms of different degrees in it
    reg = VariableRegistry(("s", "t", "x"))
    s, t, x = Polynomial.variables(reg, "s", "t", "x")
    parts = [3 * s ** 3 * t + Fraction(1, 2) * x, s - Fraction(2, 7) * t ** 2,
             Polynomial.zero(reg), Polynomial.constant(reg, 7), x ** 3]
    for point in points(reg.names, seed=8).values():
        for poly in [*parts, sum(parts, Polynomial.zero(reg))]:
            assert_same(poly.evaluate(point), reference_evaluate(poly, point))


def test_shared_table_rejects_bad_input():
    reg = VariableRegistry(("s", "t"))
    s, t = Polynomial.variables(reg, "s", "t")
    assert_same(Polynomial.zero(reg).evaluate({}), 0)
    with pytest.raises(UnboundVariable):
        (s + t).evaluate({"s": 1})
    with pytest.raises(UnknownVariable):
        s.evaluate({"s": 1, "x": 2})
