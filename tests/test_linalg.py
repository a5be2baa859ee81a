"""Exact linear algebra: kernels, ranks and determinants.

The determinant oracle here is an independent naive Laplace expansion
along the first row, written out in this file with no memoization, so
agreement with det_expansion and det_rref is a genuine dual-route check.
The Bareiss elimination over Z behind kernel_basis and det_rref,
whose every division by the previous pivot is exact, is checked
against reference_rref, a field Gauss-Jordan over Q with unit pivots
written out here; the same reference gives the kernels of sigma - 1,
sigma + 1 and sigma^2 + 1 that the orbit sums and rotation planes of
weil_model.sigma_orbits must span.
"""

import random
from fractions import Fraction
from math import lcm, prod

import pytest

from prymcert import weil_model as wm
from prymcert.exactnum import GaussianRational, normalize, quotient
from prymcert.linalg import (
    IntegerMatrix,
    PolyMatrix,
    ScalarMatrix,
    _rref,
    det_expansion,
    det_rref,
    kernel_basis,
)
from prymcert.multipoly import Polynomial, RegistryMismatch, VariableRegistry
from substitution_reference import substitute

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


def rank(matrix):
    """The number of pivots of the Bareiss pass behind kernel_basis and det_rref."""
    return len(_rref(matrix)[1])


def _rand_scalar(rng):
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


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
        expected = naive_det(rows)
        assert det_expansion(m) == expected
        assert det_rref(m) == expected


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


# -- elimination over Z against a field reference ----------------------------------

HEIGHT = 10 ** 6


def reference_rref(rows):
    """Gauss-Jordan over the field with unit pivots, returning the reduced
    rows, the pivot positions, the pivot product negated once per row swap,
    and the number of row swaps."""
    a = [list(row) for row in rows]
    nrows, ncols = len(a), len(a[0])
    pivots = []
    scale = 1
    swaps = 0
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if a[i][c]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            a[r], a[pivot_row] = a[pivot_row], a[r]
            scale = -scale
            swaps += 1
        scale = scale * a[r][c]
        inv = quotient(1, a[r][c])
        a[r] = [e * inv for e in a[r]]
        for i in range(nrows):
            if i != r and a[i][c]:
                factor = a[i][c]
                a[i] = [x - factor * y for x, y in zip(a[i], a[r])]
        pivots.append((r, c))
        r += 1
        if r == nrows:
            break
    return a, pivots, scale, swaps


def reference_kernel(rows):
    a, pivots, _, _ = reference_rref(rows)
    ncols = len(rows[0])
    pivot_cols = {c for _, c in pivots}
    basis = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        vec = [0] * ncols
        vec[free] = 1
        for r, c in pivots:
            vec[c] = normalize(-a[r][free])
        basis.append(tuple(vec))
    return basis


def assert_rational_canonical(value):
    assert type(value) is int or (type(value) is Fraction and value.denominator > 1), repr(value)


def _entry(rng, kind):
    if kind == "height":
        return Fraction(rng.randint(-HEIGHT, HEIGHT), rng.randint(1, HEIGHT))
    if kind == "sparse" and rng.random() < 0.6:
        return 0
    if rng.random() < 0.3:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    return rng.randint(-9, 9)


def _random_rational_matrix(rng, index):
    """Matrix number index of a stream cycling through six kinds of input."""
    kind = ("small", "height", "deficient", "zeros", "swaps", "sparse")[index % 6]
    nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
    if index % 4 == 0:
        ncols = nrows  # square, so that det_rref is exercised
    rows = [[_entry(rng, kind) for _ in range(ncols)] for _ in range(nrows)]
    if kind == "deficient" and nrows > 1:
        basis = rows[: rng.randint(1, nrows - 1)]
        rows = [[sum((rng.randint(-3, 3) * b[j] for b in basis), Fraction(0))
                 for j in range(ncols)] for _ in range(nrows)]
    elif kind == "zeros":
        rows[rng.randrange(nrows)] = [0] * ncols
        column = rng.randrange(ncols)
        for row in rows:
            row[column] = 0
    elif kind == "swaps":
        for k, row in enumerate(rows):
            for j in range(min(k + 1, ncols)):
                if rng.random() < 0.7:
                    row[j] = 0  # leading zeros push the pivots down
        rng.shuffle(rows)
    return rows


def test_integer_elimination_matches_field_reference():
    rng = random.Random(41)
    seen = {"deficient": 0, "swapped": 0, "square": 0, "tall": 0, "wide": 0,
            "zero row": 0, "zero column": 0}
    for index in range(240):
        rows = _random_rational_matrix(rng, index)
        m = ScalarMatrix.from_rows(rows)
        entries = [list(row) for row in m.entries]
        _, pivots, scale, swaps = reference_rref(entries)
        seen["deficient"] += len(pivots) < min(m.rows, m.cols)
        seen["swapped"] += swaps > 0
        seen["square" if m.rows == m.cols else "tall" if m.rows > m.cols else "wide"] += 1
        seen["zero row"] += any(not any(row) for row in entries)
        seen["zero column"] += any(not any(col) for col in zip(*entries))

        assert rank(m) == len(pivots)
        kernel = kernel_basis(m)
        assert kernel == reference_kernel(entries)
        for vector in kernel:
            for value in vector:
                assert_rational_canonical(value)
        # the same rows cleared of denominators, taken as given
        scales = [lcm(*[Fraction(v).denominator for v in row]) for row in entries]
        integral = IntegerMatrix([[int(v * k) for v in row] for row, k in zip(entries, scales)])
        assert kernel_basis(integral) == kernel
        if m.rows == m.cols:
            det = det_rref(m)
            assert det == (normalize(scale) if len(pivots) == m.rows else 0)
            assert det == naive_det(entries)
            assert_rational_canonical(det)
            assert det_rref(integral) == det * prod(scales)
    assert min(seen.values()) >= 10, seen


def test_integer_elimination_at_height():
    rng = random.Random(43)
    for n in (6, 7):
        rows = [[_entry(rng, "height") for _ in range(6)] for _ in range(n)]
        m = ScalarMatrix.from_rows(rows)
        assert rank(m) == 6
        assert kernel_basis(m) == []
        assert kernel_basis(m.transpose()) == reference_kernel([list(c) for c in zip(*rows)])
    square = ScalarMatrix.from_rows(rows[:6])
    _, _, scale, _ = reference_rref([list(r) for r in square.entries])
    assert det_rref(square) == scale


def _rotation_shift(eigenvalue):
    """sigma - eigenvalue on the multilinear monomials, with sigma's matrix
    built from its substitution action s->t, t->x, x->y, y->s."""
    reg = wm.chart_registry()
    monos = wm.multilinear_monomials(reg)
    index = {m: k for k, m in enumerate(monos)}
    images = {v: Polynomial.variable(reg, img)
              for v, img in (("s", "t"), ("t", "x"), ("x", "y"), ("y", "s"))}
    shift = [[-eigenvalue if i == j else 0 for j in range(16)] for i in range(16)]
    for j, mono in enumerate(monos):
        (image, coeff), = substitute(Polynomial(reg, {mono: 1}), images).terms()
        shift[index[image]][j] += coeff
    return shift


@pytest.mark.parametrize("eigenvalue", [1, -1])
def test_real_shift_matrices_take_the_integer_path(eigenvalue):
    shifted = ScalarMatrix.from_rows(_rotation_shift(eigenvalue))
    kernel = kernel_basis(shifted)
    assert kernel == reference_kernel([list(row) for row in shifted.entries])
    assert len(kernel) == (6 if eigenvalue == 1 else 4)


def _assert_pivots_equal_the_last(m):
    """The Bareiss invariant: each step divides by the previous pivot, so
    after _rref every pivot entry equals the last pivot, and the rows
    divided by it are the reduced row echelon form."""
    a, pivots, _ = _rref(m)
    if pivots:
        last_row, last_col = pivots[-1]
        last = a[last_row][last_col]
        assert {a[r][c] for r, c in pivots} == {last}
        reduced = reference_rref([list(row) for row in m.entries])[0]
        assert [[quotient(x, last) for x in row] for row in a] == reduced


def test_pivot_entries_equal_the_last_pivot():
    rng = random.Random(41)  # the corpus of test_integer_elimination_matches_field_reference
    for index in range(240):
        _assert_pivots_equal_the_last(
            ScalarMatrix.from_rows(_random_rational_matrix(rng, index)))
    for shift in [_rotation_shift(1), _rotation_shift(-1)] + [_real_form(e) for e in range(4)]:
        _assert_pivots_equal_the_last(ScalarMatrix.from_rows(shift))


# i^e as the integer pair (real part, imaginary part), e mod 4
_POWERS_OF_I = ((1, 0), (0, 1), (-1, 0), (0, -1))


def _real_form(e):
    """sigma - 1, sigma + 1 or sigma^2 + 1: the matrix over Q whose kernel is
    spanned by the real and imaginary parts of the i^e-eigenvectors."""
    if e % 2 == 0:
        return _rotation_shift(_POWERS_OF_I[e][0])
    sigma = _rotation_shift(0)
    return [[sum(a * b for a, b in zip(row, column)) + (i == j)
             for j, column in enumerate(zip(*sigma))]
            for i, row in enumerate(sigma)]


@pytest.mark.parametrize("e, dimension", [(0, 6), (2, 4), (1, 3), (3, 3)],
                         ids=["+1", "-1", "+i", "-i"])
def test_orbit_bases_span_the_shift_kernels(e, dimension):
    shift = _real_form(e)
    reference = reference_kernel(shift)  # field Gauss-Jordan over Q
    monos = wm.multilinear_monomials(wm.chart_registry())
    # the orbit sum sum_j i^(-e*j) sigma^j(m) of each orbit whose size k has
    # i^(e*k) = 1, as its real part and, for +-i, its imaginary part: for an
    # orbit of size 4 these are m - sigma^2(m) and -+(sigma(m) - sigma^3(m))
    parts = []
    for members in wm.sigma_orbits(monos):
        if e * len(members) % 4 == 0:
            powers = {m: _POWERS_OF_I[-e * j % 4] for j, m in enumerate(members)}
            for k in range(1 + e % 2):
                parts.append([powers[m][k] if m in powers else 0 for m in monos])
    assert len(parts) == len(reference) == dimension * (1 + e % 2)
    bases = [parts]
    if e % 2:  # p1..p3, q1..q3, the parts of c_j = p_j - i*q_j and d_j = p_j + i*q_j
        g = wm.generators()
        bases.append([[g[name].coefficient(m) for m in monos]
                      for name in ("p1", "p2", "p3", "q1", "q2", "q3")])
    for basis in bases:
        for vector in basis:
            assert all(sum(a * b for a, b in zip(row, vector)) == 0 for row in shift)
        assert len(reference_rref(basis)[1]) == len(parts)  # independent
        assert len(reference_rref(basis + [list(v) for v in reference])[1]) == len(parts)
