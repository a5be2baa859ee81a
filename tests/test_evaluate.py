"""Polynomial.evaluate and evaluate_all against a term-by-term reference.

Both sum over a common denominator, evaluate_all with one power table
shared by all the polynomials it is given; the reference below is the
plain loop: every term's value is built from Fraction powers and added
up, with Q(i) numbers carried as (re, im) pairs of Fractions.
"""

import random
from fractions import Fraction

import pytest

from prymcert import weil_model as wm
from prymcert.exactnum import GaussianRational, IMAG_UNIT
from prymcert.linalg import ScalarMatrix
from prymcert.multipoly import (
    Polynomial,
    RegistryMismatch,
    UnboundVariable,
    VariableRegistry,
    evaluate_all,
)

HEIGHT = 10 ** 6


def as_pair(value):
    if type(value) is GaussianRational:
        return value.re, value.im
    return Fraction(value), Fraction(0)


def pair_mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def reference_evaluate(poly, point):
    """Sum of coefficient * value^e, term by term."""
    values = {name: as_pair(v) for name, v in point.items()}
    total = (Fraction(0), Fraction(0))
    for mono, coeff in poly.terms():
        term = as_pair(coeff)
        for name, e in zip(poly.registry.names, mono):
            for _ in range(e):
                term = pair_mul(term, values[name])
        total = (total[0] + term[0], total[1] + term[1])
    return canonical(*total)


def canonical(re, im):
    if im:
        return GaussianRational(re, im)
    return re.numerator if re.denominator == 1 else re


def assert_same(got, expected):
    assert type(got) is type(expected) and got == expected, (got, expected)


def random_rational(rng):
    return Fraction(rng.randint(-HEIGHT, HEIGHT), rng.randint(1, HEIGHT))


def random_gaussian(rng):
    return GaussianRational(random_rational(rng), Fraction(rng.randint(1, 50), rng.randint(1, 50)))


def points(names, seed):
    """Integer, height-10^6 rational, mixed, zero-holding and Q(i) points."""
    rng = random.Random(seed)
    n = len(names)
    kinds = {
        "integer": [rng.randint(-10, 10) for _ in range(n)],
        "rational": [random_rational(rng) for _ in range(n)],
        "mixed": [rng.randint(-10, 10) if k % 2 else random_rational(rng) for k in range(n)],
        "zeros": [0 if k % 3 == 0 else random_rational(rng) for k in range(n)],
        "gaussian": [random_gaussian(rng) if k % 2 else random_rational(rng)
                     for k in range(n)],
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


def random_polynomial(reg, rng, gaussian=False):
    terms = {}
    for _ in range(rng.randint(1, 12)):
        mono = tuple(rng.randint(0, 3) for _ in reg.names)
        coeff = Fraction(rng.randint(-99, 99), rng.randint(1, 40))
        if gaussian and rng.random() < 0.3:
            coeff = coeff + Fraction(rng.randint(-9, 9), rng.randint(1, 9)) * IMAG_UNIT
        terms[mono] = coeff
    return Polynomial(reg, terms)


def test_random_polynomials():
    reg = VariableRegistry(("s", "t", "x"))
    rng = random.Random(5)
    for seed in range(40):
        poly = random_polynomial(reg, rng, gaussian=seed % 4 == 3)
        for point in points(reg.names, seed).values():
            assert_same(poly.evaluate(point), reference_evaluate(poly, point))


def test_zero_polynomial():
    reg = VariableRegistry(("s", "t"))
    zero = Polynomial.zero(reg)
    assert_same(zero.evaluate({}), 0)
    assert_same(zero.evaluate({"s": Fraction(1, 3), "t": IMAG_UNIT}), 0)


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
    result = wm.eliminate()
    point = COEFF_POINTS[kind]
    for matrix in (result.matrix, result.quadric_matrix):
        entries = [e for row in matrix.entries for e in row]
        shared = evaluate_all(entries, point)
        assert len(shared) == len(entries)
        for value, entry in zip(shared, entries):
            assert_same(value, entry.evaluate(point))
        assert wm._evaluate_matrix(matrix, point) == ScalarMatrix.from_rows(
            matrix.map(lambda e: e.evaluate(point)))


def test_shared_table_at_a_gaussian_point():
    # i occurs in a polynomial and in the point; the tables are shared
    # across polynomials of different degrees in each variable
    reg = VariableRegistry(("s", "t", "x"))
    s, t, x = Polynomial.variables(reg, "s", "t", "x")
    polys = [IMAG_UNIT * s ** 3 * t + Fraction(1, 2) * x, s - IMAG_UNIT * t ** 2,
             Polynomial.zero(reg), Polynomial.constant(reg, 7), x ** 3]
    rng = random.Random(8)
    for point in list(points(reg.names, seed=8).values()) + [
            {"s": random_gaussian(rng), "t": IMAG_UNIT, "x": Fraction(-2, 3)}]:
        shared = evaluate_all(polys, point)
        for value, poly in zip(shared, polys):
            assert_same(value, reference_evaluate(poly, point))


def test_shared_table_rejects_bad_input():
    reg = VariableRegistry(("s", "t"))
    s, t = Polynomial.variables(reg, "s", "t")
    assert evaluate_all([], {"s": 1}) == []
    assert_same(evaluate_all([Polynomial.zero(reg)], {})[0], 0)
    with pytest.raises(UnboundVariable):
        evaluate_all([s, t], {"s": 1})
    with pytest.raises(RegistryMismatch):
        evaluate_all([s, Polynomial.variable(VariableRegistry(("s",)), "s")], {"s": 1})
