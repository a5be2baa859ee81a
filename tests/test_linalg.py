"""Exact linear algebra: rank, kernels, and determinants.

The determinant oracle here is an independent naive Laplace expansion
along the first row, written out in this file with no memoization, so
agreement with det_expansion and det_rref is a genuine dual-route check.
"""

import random
from fractions import Fraction

import pytest

from prymcert.exactnum import GaussianRational
from prymcert.linalg import (
    PolyMatrix,
    ScalarMatrix,
    det_expansion,
    det_rref,
    kernel_basis,
    rank,
)
from prymcert.multipoly import Polynomial, RegistryMismatch, VariableRegistry

REG = VariableRegistry(("u", "v"))


def naive_det(rows):
    """First-row Laplace expansion; the reference oracle."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = None
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * naive_det(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


def _rand_scalar(rng):
    return GaussianRational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                            Fraction(rng.randint(-4, 4)))


def _rand_poly(rng):
    p = Polynomial.zero(REG)
    for _ in range(rng.randint(0, 3)):
        mono = (rng.randint(0, 2), rng.randint(0, 2))
        p = p + Polynomial(REG, {mono: Fraction(rng.randint(-3, 3))})
    return p


def test_matrix_validation():
    with pytest.raises(ValueError):
        ScalarMatrix.from_rows([])
    with pytest.raises(ValueError):
        ScalarMatrix.from_rows([[1, 2], [3]])
    other = VariableRegistry(("w",))
    with pytest.raises(RegistryMismatch):
        PolyMatrix.from_rows([[Polynomial.variable(REG, "u"),
                               Polynomial.variable(other, "w")]])


def test_rank_examples():
    assert rank(ScalarMatrix.identity(6)) == 6
    zero = ScalarMatrix.from_rows([[0] * 6 for _ in range(7)])
    assert rank(zero) == 0
    assert rank(ScalarMatrix.from_rows([[1, 2], [2, 4], [0, 0]])) == 1


def test_kernel_examples():
    assert kernel_basis(ScalarMatrix.identity(4)) == []
    vecs = kernel_basis(ScalarMatrix.from_rows([[1, 1]]))
    assert len(vecs) == 1
    v = vecs[0]
    assert v[0] + v[1] == 0 and (v[0] or v[1])  # (1, -1) up to scale


def test_rank_nullity_and_kernel_membership():
    rng = random.Random(23)
    for _ in range(100):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = ScalarMatrix.from_rows(
            [[_rand_scalar(rng) for _ in range(cols)] for _ in range(rows)])
        vecs = kernel_basis(m)
        assert rank(m) + len(vecs) == cols
        for v in vecs:
            for i in range(rows):
                total = 0
                for j in range(cols):
                    total = total + m.at(i, j) * v[j]
                assert total == 0


def test_det_examples():
    reg = VariableRegistry(("A1", "A2", "B1", "B2"))
    A1, A2, B1, B2 = Polynomial.variables(reg, "A1", "A2", "B1", "B2")
    one = Polynomial.constant(reg, 1)
    zero = Polynomial.zero(reg)
    ident = PolyMatrix.from_rows([[one if i == j else zero for j in range(3)]
                                  for i in range(3)])
    assert det_expansion(ident) == one
    m = PolyMatrix.from_rows([[A1, A2], [B1, B2]])
    assert det_expansion(m) == A1 * B2 - A2 * B1
    assert det_rref(ScalarMatrix.identity(3)) == 1
    swapped = ScalarMatrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 3]])
    assert det_rref(swapped) == GaussianRational(-3)


def test_det_matches_naive_oracle_scalar():
    rng = random.Random(29)
    for _ in range(120):
        n = rng.randint(1, 5)
        rows = [[_rand_scalar(rng) for _ in range(n)] for _ in range(n)]
        m = ScalarMatrix.from_rows(rows)
        expected = naive_det([list(r) for r in m.entries])
        assert det_rref(m) == expected
        assert det_expansion(m) == expected


def test_det_matches_naive_oracle_poly():
    rng = random.Random(31)
    for _ in range(80):
        n = rng.randint(1, 4)
        rows = [[_rand_poly(rng) for _ in range(n)] for _ in range(n)]
        m = PolyMatrix.from_rows(rows)
        expected = naive_det([list(r) for r in m.entries])
        assert det_expansion(m) == expected


def test_det_degenerate_pivots():
    # zero leading column, duplicated rows, and a vanishing 2x2 pivot block
    u = Polynomial.variable(REG, "u")
    v = Polynomial.variable(REG, "v")
    zero = Polynomial.zero(REG)
    one = Polynomial.constant(REG, 1)
    cases = [
        [[zero, u, v], [zero, v, u], [zero, one, one]],          # det 0
        [[u, v, one], [u, v, one], [one, zero, zero]],           # two equal rows
        [[u, 2 * u, one], [2 * u, 4 * u, v], [one, one, one]],   # 2x2 block singular
        [[zero, zero, one], [zero, one, zero], [one, zero, zero]],
    ]
    point = {"u": Fraction(2), "v": Fraction(3)}
    for rows in cases:
        m = PolyMatrix.from_rows(rows)
        assert det_expansion(m) == naive_det(rows)
        scalar = ScalarMatrix.from_rows(m.map(lambda e: e.evaluate(point)))
        assert det_rref(scalar) == naive_det([list(r) for r in scalar.entries])


def test_det_evaluation_commutes():
    rng = random.Random(37)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = PolyMatrix.from_rows([[_rand_poly(rng) for _ in range(n)] for _ in range(n)])
        point = {name: Fraction(rng.randint(-3, 3)) for name in REG.names}
        sym = det_expansion(m).evaluate(point)
        num = det_rref(ScalarMatrix.from_rows(m.map(lambda e: e.evaluate(point))))
        assert sym == num


def test_transpose():
    m = ScalarMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    mt = m.transpose()
    assert (mt.rows, mt.cols) == (3, 2)
    assert mt.at(2, 1) == GaussianRational(Fraction(6))


def test_non_square_det_rejected():
    m = ScalarMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        det_rref(m)
    with pytest.raises(ValueError):
        det_expansion(m)
    with pytest.raises(ValueError):
        det_expansion(PolyMatrix.from_rows([[Polynomial.variable(REG, "u")] * 2]))
