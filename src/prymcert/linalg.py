"""Exact linear algebra over Q and over polynomial rings.

ScalarMatrix holds rationals in the form exactnum.normalize gives (int,
or Fraction with denominator > 1); IntegerMatrix holds ints as given, such
as the integer rows weil_model evaluates at a triple, and skips both the
normalization and the clearing of denominators.  Right kernel bases and
det_rref come from one fraction-free Gauss-Jordan pass over Z: each row
is cleared of denominators (a ScalarMatrix's only) and of its content
once, and each Bareiss step divides its live columns exactly by the
previous pivot, so the loop takes no gcd.  kernel_basis gives the
quadric kernel at a triple (its length is 7 minus the rank of the
relation matrix), and det_rref det M there (weil_model.determinant_at).
PolyMatrix holds ring elements (polynomials, or any type with +, -, *,
**0 and bool) and gets its determinant by cofactor expansion along the
rows, memoized over the set of columns each trailing minor uses; that
expansion is generic, so it also takes a ScalarMatrix.  The largest
matrix in use is the 6x6 elimination matrix, where the expansion visits
at most 2^6 minors.
"""

from __future__ import annotations

from math import gcd
from typing import Callable, Iterable, Sequence

from .exactnum import Coefficient, normalize, primitive, quotient


class _MatrixBase:
    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: "tuple[tuple, ...]"):
        if not entries or not entries[0]:
            raise ValueError("matrix must have positive dimensions")
        width = len(entries[0])
        if any(len(row) != width for row in entries):
            raise ValueError("ragged rows")
        self.entries = entries
        self.rows = len(entries)
        self.cols = width

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence]):
        return cls(tuple(tuple(row) for row in rows))

    def at(self, i: int, j: int):
        return self.entries[i][j]

    def row(self, i: int) -> tuple:
        return self.entries[i]

    def transpose(self):
        return type(self).from_rows(zip(*self.entries))

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self.entries == other.entries

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(e) for e in row) for row in self.entries)
        return f"{type(self).__name__}({self.rows}x{self.cols}: {body})"


class ScalarMatrix(_MatrixBase):
    """Dense matrix of rationals (int or Fraction)."""

    def __init__(self, entries):
        entries = tuple(tuple(normalize(e) for e in row) for row in entries)
        super().__init__(entries)

    @classmethod
    def identity(cls, n: int) -> "ScalarMatrix":
        return cls.from_rows(
            [[1 if i == j else 0 for j in range(n)] for i in range(n)])


class IntegerMatrix(_MatrixBase):
    """Dense matrix of ints, taken as given (no normalization and no copy)."""


class PolyMatrix(_MatrixBase):
    """Dense matrix of ring elements sharing one registry."""

    def __init__(self, entries):
        super().__init__(tuple(tuple(row) for row in entries))
        registries = {e.registry for row in self.entries for e in row
                      if hasattr(e, "registry")}
        if len(registries) > 1:
            from .multipoly import RegistryMismatch
            raise RegistryMismatch("matrix entries use different registries")

    def map(self, fn: Callable) -> "list[list]":
        return [[fn(e) for e in row] for row in self.entries]


def _rref(matrix: "ScalarMatrix | IntegerMatrix"
          ) -> "tuple[list[list[int]], list[tuple[int, int]], Coefficient]":
    """Fraction-free Gauss-Jordan over Z (Bareiss): reduced rows, pivot
    (row, col) positions, and determinant factor.

    Each row is cleared of denominators and content once (of content
    only for an IntegerMatrix, else exactnum.primitive); num and den
    record those multipliers and the swap signs.  Dividing out the
    content keeps the minors small: on evaluated integer rows it cuts
    their largest bit length by about a factor of three.  A pivot step
    at (r, c) updates the live columns (the free columns left of c and
    all right of c) of every other row by (pivot * x - entry * y) //
    prev, prev the previous pivot: by Sylvester's identity each entry is
    a minor of the cleared matrix, so the division is exact and the loop
    takes no gcd (Bareiss, Math. Comp. 22, 1968).  Column c becomes zero
    off row r, and every pivot entry the last pivot, at the end, as full
    steps would leave it: a divided by it is the reduced row echelon
    form, and for a square matrix of full rank prev * den / num is det.
    """
    a = []
    num = den = 1
    integral = type(matrix) is IntegerMatrix
    for row in matrix.entries:
        if integral:
            content = gcd(*row) or 1
            ints = [x // content for x in row] if content != 1 else list(row)
        else:
            ints, scale, content = primitive(row)
            num *= scale
        a.append(ints)
        den *= content
    nrows, ncols = matrix.rows, matrix.cols
    pivots: list[tuple[int, int]] = []
    live = list(range(ncols))
    prev = 1
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if a[i][c]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            a[r], a[pivot_row] = a[pivot_row], a[r]
            num = -num
        top = a[r]
        pivot = top[c]
        live.remove(c)
        for row in a:
            if row is not top:
                entry, row[c] = row[c], 0
                for j in live:
                    row[j] = (pivot * row[j] - entry * top[j]) // prev
        prev = pivot
        pivots.append((r, c))
        r += 1
        if r == nrows:
            break
    for r, c in pivots:
        a[r][c] = prev
    return a, pivots, quotient(prev * den, num)


def kernel_basis(matrix: "ScalarMatrix | IntegerMatrix") -> "list[tuple[Coefficient, ...]]":
    """Basis of the right kernel; empty list iff the matrix is injective.

    Deterministic: one basis vector per free column in ascending column
    order, with entry 1 at the free column.
    """
    a, pivots, _ = _rref(matrix)
    pivot_cols = {c for _, c in pivots}
    basis = []
    for free in range(matrix.cols):
        if free in pivot_cols:
            continue
        vec = [0] * matrix.cols
        vec[free] = 1
        for r, c in pivots:
            vec[c] = quotient(-a[r][free], a[r][c])
        basis.append(tuple(vec))
    return basis


def det_expansion(matrix) -> object:
    """Determinant of a square matrix over any ring, by memoized cofactor expansion.

    The minors of the trailing rows are cached by the set of columns they
    use, so an n x n determinant costs O(n * 2^n) ring operations.
    """
    if matrix.rows != matrix.cols:
        raise ValueError("determinant of a non-square matrix")
    rows = matrix.entries
    n = matrix.rows
    one = rows[0][0] ** 0
    memo: dict[int, object] = {(1 << n) - 1: one}

    def minor(mask: int, depth: int):
        # determinant of rows[depth:] restricted to columns NOT in mask
        if mask in memo:
            return memo[mask]
        acc = None
        sign = 1
        for j in range(n):
            if mask >> j & 1:
                continue
            entry = rows[depth][j]
            if entry:
                sub = minor(mask | 1 << j, depth + 1)
                term = entry * sub if sign > 0 else -(entry * sub)
                acc = term if acc is None else acc + term
            sign = -sign
        if acc is None:
            acc = one - one
        memo[mask] = acc
        return acc

    return minor(0, 0)


def det_rref(matrix: "ScalarMatrix | IntegerMatrix") -> Coefficient:
    """Determinant from the Gauss-Jordan pass behind kernel_basis."""
    if matrix.rows != matrix.cols:
        raise ValueError("determinant of a non-square matrix")
    _, pivots, scale = _rref(matrix)
    return normalize(scale) if len(pivots) == matrix.rows else 0
