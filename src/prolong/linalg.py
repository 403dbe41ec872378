"""Exact linear algebra over a base field.

Vectors are tuples of FieldElement, matrices are tuples of row tuples.
Everything here is small and dense; Gauss-Jordan with exact arithmetic
is entirely adequate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import ArityMismatch, NoSolution
from .field import BaseField, FieldElement

Vector = tuple[FieldElement, ...]
Matrix = tuple[Vector, ...]


def mat_vec(matrix: Matrix, v: Sequence[FieldElement], field: BaseField) -> Vector:
    out = []
    for row in matrix:
        if len(row) != len(v):
            raise ArityMismatch(f"row of length {len(row)} times vector of length {len(v)}")
        s = field.zero
        for a, b in zip(row, v):
            s = s + a * b
        out.append(s)
    return tuple(out)


def mat_mul(a: Matrix, b: Matrix, field: BaseField) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise ArityMismatch("inner dimensions differ")
    cols = len(b[0]) if b else 0
    out = []
    for row in a:
        new = []
        for j in range(cols):
            s = field.zero
            for k, x in enumerate(row):
                s = s + x * b[k][j]
            new.append(s)
        out.append(tuple(new))
    return tuple(out)


def rref(rows: Sequence[Sequence[FieldElement]], field: BaseField) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and the pivot column indices.

    Left of its pivot the pivot row is zero, so an elimination touches only
    the pivot column and the nonzero entries right of it; a pivot 1 is not
    divided out, and no product has a factor 1.
    """
    m = [list(r) for r in rows]
    if not m:
        return (), ()
    ncols = len(m[0])
    one, zero = field.one, field.zero
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(r, len(m)):
            if not m[i][col].is_zero:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        row = m[r]
        live = [j for j in range(col + 1, ncols) if not row[j].is_zero]
        if not row[col].is_one:
            inv = row[col].inverse()
            row[col] = one
            for j in live:
                row[j] = inv if row[j].is_one else row[j] * inv
        for i in range(len(m)):
            other = m[i]
            factor = other[col]
            if i == r or factor.is_zero:
                continue
            other[col] = zero
            unit = factor.is_one
            for j in live:
                x = row[j]
                other[j] = other[j] - (x if unit else factor if x.is_one else factor * x)
        pivots.append(col)
        r += 1
        if r == len(m):
            break
    return tuple(tuple(row) for row in m), tuple(pivots)


def solve_affine(
    matrix: Sequence[Sequence[FieldElement]],
    rhs: Sequence[FieldElement],
    field: BaseField,
    ncols: int | None = None,
) -> tuple[Vector, tuple[Vector, ...]]:
    """Solve A x = b exactly.

    Returns (particular, kernel_basis) with free variables set to zero in
    the particular solution.  Raises NoSolution when inconsistent.  An
    empty matrix means every x works: particular 0, kernel the full space.
    """
    rows = [list(r) for r in matrix]
    if ncols is None:
        if not rows:
            raise ValueError("column count required for an empty system")
        ncols = len(rows[0])
    for row in rows:
        if len(row) != ncols:
            raise ArityMismatch("ragged matrix")
    if len(rhs) != len(rows):
        raise ArityMismatch(f"{len(rhs)} right-hand sides for {len(rows)} rows")
    aug = [row + [b] for row, b in zip(rows, rhs)]
    if not aug:
        reduced: Matrix = ()
        pivots: tuple[int, ...] = ()
    else:
        reduced, pivots = rref(aug, field)
    if ncols in pivots:
        raise NoSolution("inconsistent linear system")
    pivot_of_col = {col: i for i, col in enumerate(pivots)}
    particular = []
    for col in range(ncols):
        i = pivot_of_col.get(col)
        particular.append(reduced[i][ncols] if i is not None else field.zero)
    kernel = []
    for col in range(ncols):
        if col in pivot_of_col:
            continue
        vec = [field.zero] * ncols
        vec[col] = field.one
        for pcol, i in pivot_of_col.items():
            vec[pcol] = -reduced[i][col]
        kernel.append(tuple(vec))
    return tuple(particular), tuple(kernel)


def rank(rows: Sequence[Sequence[FieldElement]], field: BaseField) -> int:
    if not rows:
        return 0
    _, pivots = rref(rows, field)
    return len(pivots)


def in_span(v: Sequence[FieldElement], basis: Sequence[Sequence[FieldElement]], field: BaseField) -> bool:
    """Whether v lies in the span of the basis vectors."""
    if all(x.is_zero for x in v):
        return True
    if not basis:
        return False
    stacked = [list(b) for b in basis]
    return rank(stacked, field) == rank(stacked + [list(v)], field)


def affine_subspace_equal(
    p1: Sequence[FieldElement],
    basis1: Sequence[Sequence[FieldElement]],
    p2: Sequence[FieldElement],
    basis2: Sequence[Sequence[FieldElement]],
    field: BaseField,
) -> bool:
    """Equality of the affine subspaces p1 + span(basis1) and p2 + span(basis2):
    basis1 and basis2 each have the rank of basis1, basis2 and p1 - p2 together."""
    b1 = [list(b) for b in basis1]
    b2 = [list(b) for b in basis2]
    diff = [a - b for a, b in zip(p1, p2)]
    return rank(b1, field) == rank(b2, field) == rank(b1 + b2 + [diff], field)


@dataclass(frozen=True)
class AffineMap:
    """x maps to matrix.x + offset."""

    field: BaseField
    matrix: Matrix
    offset: Vector

    def __post_init__(self):
        if len(self.matrix) != len(self.offset):
            raise ArityMismatch("matrix rows and offset length differ")

    @property
    def out_dim(self) -> int:
        return len(self.offset)

    @property
    def in_dim(self) -> int:
        return len(self.matrix[0]) if self.matrix else 0

    def apply(self, v: Sequence[FieldElement]) -> Vector:
        mv = mat_vec(self.matrix, v, self.field)
        return tuple(a + b for a, b in zip(mv, self.offset))

    def compose(self, inner: "AffineMap") -> "AffineMap":
        """self after inner."""
        matrix = mat_mul(self.matrix, inner.matrix, self.field)
        offset = tuple(
            a + b for a, b in zip(mat_vec(self.matrix, inner.offset, self.field), self.offset)
        )
        return AffineMap(self.field, matrix, offset)
