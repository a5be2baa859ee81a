"""The coefficient invariant: every exact number is an int, a Fraction with
denominator > 1, or a GaussianRational with a nonzero imaginary part."""

import random
from fractions import Fraction

import pytest

from prymcert import weil_model as wm
from prymcert.exactnum import GaussianRational, IMAG_UNIT, normalize, primitive, quotient
from prymcert.multipoly import Polynomial, VariableRegistry

INTEGER_TRIPLE = wm.CoefficientTriple.from_rationals((6, 5, 6, -6, 6, -1, -2, -8, -2))
RATIONAL_TRIPLE = wm.CoefficientTriple.from_rationals(
    [Fraction((-1) ** k * (123457 * k + 11), 987651 - 3 * k) for k in range(9)])
TRIPLES = [INTEGER_TRIPLE, RATIONAL_TRIPLE]


def assert_canonical(value):
    kind = type(value)
    assert (kind is int
            or (kind is Fraction and value.denominator > 1)
            or (kind is GaussianRational and value.im != 0)), repr(value)


def assert_polynomial_canonical(poly):
    for _, coeff in poly.terms():
        assert_canonical(coeff)


def test_height_of_the_rational_triple():
    assert max(v.denominator for v in RATIONAL_TRIPLE.values()) > 10 ** 5
    assert max(abs(v.numerator) for v in RATIONAL_TRIPLE.values()) > 10 ** 6 - 10 ** 5


def test_det_m_coefficients_are_integers():
    det = wm.elimination_determinant()
    assert det.term_count() == 383
    assert all(type(c) is int for _, c in det.terms())


def test_elimination_matrix_entries():
    result = wm.eliminate()
    for matrix in (result.matrix, result.quadric_matrix):
        for i in range(matrix.rows):
            for entry in matrix.row(i):
                assert_polynomial_canonical(entry)


@pytest.mark.parametrize("triple", TRIPLES, ids=["integer", "rational"])
def test_evaluated_matrices(triple):
    result = wm.eliminate()
    for matrix in (result.matrix, result.quadric_matrix):
        scalar = wm._evaluate_matrix(matrix, triple.as_point())
        assert (scalar.rows, scalar.cols) in {(6, 6), (7, 6)}
        for i in range(scalar.rows):
            for value in scalar.row(i):
                assert_canonical(value)
    value = wm.determinant_at(triple)
    assert type(value) is Fraction and value != 0
    wm.cross_check_determinant(triple, value)


@pytest.mark.parametrize("triple", TRIPLES, ids=["integer", "rational"])
def test_vanishing_quadric_vector(triple):
    vector = wm.vanishing_quadric(triple)
    assert len(vector) == 7 and any(vector)
    for value in vector:
        assert_canonical(value)


@pytest.mark.parametrize("triple", TRIPLES, ids=["integer", "rational"])
def test_resultant_coefficient_lists(triple, monkeypatch):
    resultants = []
    seen = []
    real_resultant = wm.t_resultant
    real_gcd = wm._univariate_gcd

    def resultant_spy(*args, **kwargs):
        resultants.append(real_resultant(*args, **kwargs))
        return resultants[-1]

    def gcd_spy(a, b):  # the one gcd of two resultants sees both of them
        seen.extend((a, b))
        return real_gcd(a, b)

    monkeypatch.setattr(wm, "t_resultant", resultant_spy)
    monkeypatch.setattr(wm, "_univariate_gcd", gcd_spy)
    assert wm.fixed_point_free_check(triple) == wm.CERTIFIED_EMPTY
    assert len(resultants) == 2 and len(seen) == 2
    for coeffs in resultants + seen:
        assert len(coeffs) == 9
        for value in coeffs:
            assert type(value) is int, repr(value)


# the degenerate triples of the benchmark oracle: the origin, A1 = 1, a zero
# of det M, and a triple whose curve meets the diagonal
DEGENERATE_TRIPLES = [wm.CoefficientTriple.from_rationals(values) for values in (
    (0,) * 9,
    (1,) + (0,) * 8,
    (1, 0, 0, 0, 0, 0, Fraction(1, 4), 0, 0),
    (Fraction(1, 2), 0, 0, Fraction(1, 4), 0, 0, Fraction(1, 4), 0, 0),
)]
_HEIGHT_RNG = random.Random(17)
HEIGHT_TRIPLES = [wm.CoefficientTriple.from_rationals(
    [Fraction(_HEIGHT_RNG.randint(-10 ** 6, 10 ** 6), _HEIGHT_RNG.randint(1, 10 ** 6))
     for _ in range(9)]) for _ in range(5)]


@pytest.mark.parametrize(
    "triple", TRIPLES + HEIGHT_TRIPLES + DEGENERATE_TRIPLES,
    ids=["integer", "rational"] + [f"height-{k}" for k in range(5)]
    + ["origin", "a1-one", "zero-det", "meets-diagonal"])
def test_restricted_equations_have_integer_coefficients(triple):
    gens = wm.generators()
    grids = wm._diagonal_equations(triple)
    assert len(grids) == 3
    for target, row, grid in zip(("a4", "a5", "a6"), (triple.a, triple.b, triple.c), grids):
        scale, u1, u2, u3 = primitive((1,) + row)[0]
        equation = scale * gens[target] - (u1 * gens["a1"] + u2 * gens["a2"] + u3 * gens["a3"])
        via_chart = wm.restrict_to_diagonal(equation)
        assert via_chart
        assert grid == wm.form_grid(via_chart)
        for coeffs in grid:
            for coeff in coeffs:
                assert type(coeff) is int, repr(coeff)


def test_diagonal_factors():
    factors = wm.diagonal_restriction_factors()
    assert factors == (2, 4, 2, 1, 1, 1)
    for value in factors:
        assert_canonical(value)


def test_polynomial_arithmetic_keeps_the_invariant():
    reg = VariableRegistry(("s", "t"))
    s, t = Polynomial.variables(reg, "s", "t")
    half, i = Fraction(1, 2), IMAG_UNIT
    results = [
        (half * s) * (2 * t),                    # Fraction * int -> 1
        (half * s + half) * (half * s + half),   # 1/4, 1/2, 1/4
        (half * s) + (half * s),                 # Fraction + Fraction -> 1
        (i * s) * (i * t),                       # i * i -> -1
        (s + i * t) * (s - i * t),               # imaginary parts cancel
        (half * i * s) * (2 * i),                # Gaussian * int -> -1
    ]
    for poly in results:
        assert_polynomial_canonical(poly)
    assert (half * s) * (2 * t) == s * t
    assert (s + i * t) * (s - i * t) == s ** 2 + t ** 2
    assert Polynomial(reg, {(1, 0): Fraction(4, 2), (0, 1): GaussianRational(3)}) == 2 * s + 3 * t
    assert_polynomial_canonical(Polynomial(reg, {(1, 0): Fraction(4, 2),
                                                 (0, 1): GaussianRational(3)}))
    value = (half * s * t + i * s).evaluate({"s": 2, "t": Fraction(3, 2)})
    assert value == Fraction(3, 2) + 2 * i
    assert_canonical(value)
    assert_canonical((half * s * t).evaluate({"s": 2, "t": 2}))


def test_cross_type_equality_and_hash():
    assert GaussianRational(2) == 2
    assert 2 == GaussianRational(2)
    assert GaussianRational(Fraction(1, 2)) == Fraction(1, 2)
    assert hash(GaussianRational(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert hash(GaussianRational(3)) == hash(3)
    assert GaussianRational(1, 1) != 1
    assert {GaussianRational(5): "five"}[5] == "five"


def test_products_collapse_to_real_numbers():
    z = GaussianRational(Fraction(1, 2), 3)
    product = z * GaussianRational(z.re, -z.im)
    assert product == Fraction(37, 4) and type(product) is Fraction
    assert type(IMAG_UNIT * IMAG_UNIT) is int and IMAG_UNIT * IMAG_UNIT == -1
    assert type((1 + IMAG_UNIT) * (1 - IMAG_UNIT)) is int
    assert type(IMAG_UNIT + (-IMAG_UNIT)) is int
    assert type(GaussianRational(Fraction(3, 2), 1) - IMAG_UNIT) is Fraction
    assert_canonical(z * 2)
    assert_canonical(IMAG_UNIT / 2)


def test_normalize_and_quotient():
    assert type(normalize(Fraction(4, 2))) is int
    assert type(normalize(GaussianRational(Fraction(6, 4)))) is Fraction
    assert quotient(1, 3) == Fraction(1, 3) and type(quotient(6, 3)) is int
    assert quotient(IMAG_UNIT, IMAG_UNIT) == 1
    with pytest.raises(TypeError):
        normalize(0.5)
    with pytest.raises(TypeError):
        normalize(None)
