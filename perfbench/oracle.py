"""Known answers computed by the benchmark's own code.

The determinant and the quadric kernel are checked by evaluating the
entries of eliminate()'s 6x6 and 7x6 polynomial matrices at a triple
term by term and eliminating over Fraction here, which shares nothing
with prymcert's Bareiss determinant, its symbolic det M or its rank
routine.
"""

from __future__ import annotations

from fractions import Fraction

from layers import fraction_parts

COEFF_NAMES = ("A1", "A2", "A3", "B1", "B2", "B3", "C1", "C2", "C3")

ORIGIN = (0,) * 9
A1_ONE = (1,) + (0,) * 8
ZERO_DET = (1, 0, 0, 0, 0, 0, Fraction(1, 4), 0, 0)
MEETS_DIAGONAL = (Fraction(1, 2), 0, 0, Fraction(1, 4), 0, 0, Fraction(1, 4), 0, 0)

# triple -> (det M, left-kernel dimension of the 7x6 relation matrix)
KNOWN_DET_KDIM = {ORIGIN: (1, 3), A1_ONE: (1, 2), ZERO_DET: (0, 2)}
DEGENERATE = (ORIGIN, A1_ONE, ZERO_DET, MEETS_DIAGONAL)

# universal certificate fields that hold for every seed
UNIVERSAL_FIELDS = {
    "eigenspace_dims": [6, 4, 3, 3],
    "diagonal_factors": ["2", "4", "2", "1", "1", "1"],
    "chow_coefficient": 24,
    "genus": 13,
    "det_m_at_origin": "1",
    "det_m_term_count": 383,
    "det_m_nonzero": True,
    "overall": "Pass",
}
IDENTITY_COUNT = 17
DET_M_TERMS = 383


def point(values) -> "dict[str, Fraction]":
    """Nine rationals (or their decimal-free texts) as a point in A1..C3."""
    return dict(zip(COEFF_NAMES, (Fraction(v) for v in values)))


def as_fraction(value) -> Fraction:
    """A coefficient as a Fraction; raises if it has a nonzero imaginary part."""
    parts = fraction_parts(value)
    if len(parts) == 2 and parts[1] != 0:
        raise ValueError(f"non-real coefficient {value}")
    return parts[0]


def evaluate_entry(poly, point: "dict[str, Fraction]") -> Fraction:
    """A polynomial's value at a point, summed term by term over Fraction."""
    names = poly.registry.names
    total = Fraction(0)
    for mono, coeff in poly.terms():
        term = as_fraction(coeff)
        for name, e in zip(names, mono):
            if e:
                term *= point[name] ** e
        total += term
    return total


def evaluate_rows(matrix, point) -> "list[list[Fraction]]":
    return [[evaluate_entry(e, point) for e in matrix.row(i)] for i in range(matrix.rows)]


def _eliminate(rows: "list[list[Fraction]]") -> "tuple[int, Fraction]":
    """Gaussian elimination over Fraction; (rank, determinant if square)."""
    a = [list(r) for r in rows]
    nrows, ncols = len(a), len(a[0])
    det = Fraction(1)
    rank = 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, nrows) if a[i][c]), None)
        if pivot is None:
            det = Fraction(0)
            continue
        if pivot != rank:
            a[rank], a[pivot] = a[pivot], a[rank]
            det = -det
        p = a[rank][c]
        det *= p
        for i in range(rank + 1, nrows):
            if a[i][c]:
                f = a[i][c] / p
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank, det


def det_at(elimination, point) -> Fraction:
    """det M at a point, from the 6x6 matrix of eliminate()."""
    return _eliminate(evaluate_rows(elimination.matrix, point))[1]


def quadric_rows(elimination, point) -> "list[list[Fraction]]":
    return evaluate_rows(elimination.quadric_matrix, point)


def kernel_dim(rows) -> int:
    """Dimension of the left kernel of a scalar matrix given by rows."""
    return len(rows) - _eliminate(rows)[0]


def annihilates(vector, rows) -> bool:
    """True when the vector is nonzero and vector . rows is the zero row."""
    v = [as_fraction(x) for x in vector]
    if len(v) != len(rows) or not any(v):
        return False
    return all(sum(vk * row[j] for vk, row in zip(v, rows)) == 0
               for j in range(len(rows[0])))
