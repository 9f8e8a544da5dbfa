"""Exact integer matrix kernel.

Everything here is arbitrary-precision and tolerance-free.  One
fraction-free Gauss-Jordan elimination on Python ints (Bareiss one-step
division, applied above and below each pivot) serves every routine:
rank is the number of pivots, the determinant is the last pivot times
the row-swap sign, and the canonical integer nullspace basis is read
directly off the reduced rows.  For a symmetric matrix the same
elimination of [A | I] also tells which systems A y = e_v are solvable
and whether their y_v vanishes.  The characteristic polynomial uses the
Faddeev-LeVerrier recurrence (whose divisions are exact for integer
matrices).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd


class IntMatrix:
    """Immutable matrix of arbitrary-precision integers."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data, cols: int | None = None):
        rows = tuple(tuple(int(x) for x in row) for row in data)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError("cols does not match row width")
            cols = width
        else:
            cols = 0 if cols is None else cols
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", rows)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls([(0,) * cols for _ in range(rows)], cols=cols)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def entry(self, i: int, j: int) -> int:
        return self.data[i][j]

    def row(self, i: int) -> tuple:
        return self.data[i]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(zip(*self.data), cols=self.rows) if self.data else IntMatrix(
            [() for _ in range(self.cols)], cols=self.rows
        )

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        bt = list(zip(*other.data)) if other.data else [()] * other.cols
        out = [
            tuple(sum(a * b for a, b in zip(row, col)) for col in bt)
            for row in self.data
        ]
        return IntMatrix(out, cols=other.cols)

    def is_symmetric(self) -> bool:
        if self.rows != self.cols:
            return False
        return all(
            self.data[i][j] == self.data[j][i]
            for i in range(self.rows)
            for j in range(i + 1, self.cols)
        )

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self.data]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.data))

    def __repr__(self) -> str:
        return f"IntMatrix({self.rows}x{self.cols})"


@dataclass(frozen=True)
class KernelBasis:
    """Canonical integer basis of a nullspace.

    Vectors are the RREF free-variable parametrization, each scaled to a
    primitive integer vector (entry gcd 1) whose first non-zero entry is
    positive, ordered by free-column index.  Equal matrices always produce
    identical bases, so nullspace equality is plain tuple equality.
    """

    ambient: int
    vectors: tuple

    @property
    def dimension(self) -> int:
        return len(self.vectors)

    def supports(self) -> set:
        """Union of the supports of the basis vectors."""
        out = set()
        for vec in self.vectors:
            out.update(i for i, x in enumerate(vec) if x != 0)
        return out


@dataclass(frozen=True)
class CharPoly:
    """Monic characteristic polynomial det(tI - M), coefficients descending."""

    coefficients: tuple

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def constant_term(self) -> int:
        return self.coefficients[-1]


def _gauss_jordan_int(
    rows_data: list[list[int]], n_rows: int, n_pivot_cols: int
):
    """In-place fraction-free reduced echelon; returns (pivots, sign, d).

    Pivots are sought in the first n_pivot_cols columns only, so an
    augmented block to their right is carried along.  The pivot is the
    first row at or below the rank with a non-zero entry in the current
    column; sign is the parity of the row swaps that brought it up.
    Bareiss one-step division is applied to every row, above and below
    the pivot, so every entry stays an integer (a minor of the input)
    and at the end every pivot entry equals the last pivot d.  pivots[i]
    is the pivot column of row i; rows from len(pivots) on are zero in
    the pivot columns.
    """
    pivots = []
    sign = 1
    prev = 1
    for col in range(n_pivot_cols):
        rank = len(pivots)
        pivot_row = None
        for i in range(rank, n_rows):
            if rows_data[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != rank:
            rows_data[rank], rows_data[pivot_row] = (
                rows_data[pivot_row],
                rows_data[rank],
            )
            sign = -sign
        row_r = rows_data[rank]
        piv = row_r[col]
        if piv == prev:
            # every other row only moves where the pivot row is non-zero
            support = [j for j in range(col, len(row_r)) if row_r[j] != 0]
        for i in range(n_rows):
            row_i = rows_data[i]
            factor = row_i[col]
            if i == rank or (factor == 0 and piv == prev):
                continue
            if factor == 0:
                rows_data[i] = [piv * a // prev for a in row_i]
            elif piv == prev:
                for j in support:
                    row_i[j] -= factor * row_r[j] // prev
            else:
                rows_data[i] = [
                    (piv * a - factor * b) // prev
                    for a, b in zip(row_i, row_r)
                ]
        pivots.append(col)
        prev = piv
    return pivots, sign, prev


def _kernel_from_reduced(data, pivots, d: int, n_cols: int) -> KernelBasis:
    """Canonical kernel basis read off a fraction-free reduced echelon form.

    For each free column f the kernel vector has d at f, -R[i][f] at the
    pivot column of row i and 0 elsewhere; it is divided by its entry gcd
    and signed so that its first non-zero entry is positive.
    """
    pivot_set = set(pivots)
    vectors = []
    for free in range(n_cols):
        if free in pivot_set:
            continue
        vec = [0] * n_cols
        vec[free] = d
        for i, p in enumerate(pivots):
            vec[p] = -data[i][free]
        g = gcd(*vec)
        if next(x for x in vec if x != 0) < 0:
            g = -g
        vectors.append(tuple(x // g for x in vec))
    return KernelBasis(ambient=n_cols, vectors=tuple(vectors))


def rank(m: IntMatrix) -> int:
    """Exact rank over the rationals."""
    data = [list(r) for r in m.data]
    pivots, _, _ = _gauss_jordan_int(data, m.rows, m.cols)
    return len(pivots)


def det(m: IntMatrix) -> int:
    """Exact determinant of a square matrix (Bareiss)."""
    if m.rows != m.cols:
        raise ValueError("determinant requires a square matrix")
    data = [list(r) for r in m.data]
    pivots, sign, d = _gauss_jordan_int(data, m.rows, m.cols)
    return sign * d if len(pivots) == m.rows else 0


def is_nonsingular(m: IntMatrix) -> bool:
    return det(m) != 0


def nullspace_basis(m: IntMatrix) -> KernelBasis:
    """Canonical basis of {x : m @ x = 0}; empty iff m has full column rank.

    The fraction-free reduced echelon form R of m has every pivot equal
    to d, so for each free column f the kernel vector with every other
    free entry 0 is d at f and -R[i][f] at the pivot of row i, made
    primitive and sign-normalised.
    """
    data = [list(r) for r in m.data]
    pivots, _, d = _gauss_jordan_int(data, m.rows, m.cols)
    return _kernel_from_reduced(data, pivots, d, m.cols)


@dataclass(frozen=True)
class SymmetricKernel:
    """What one elimination of [A | I] tells about a symmetric matrix A.

    basis is the canonical kernel basis, identical to nullspace_basis(A).
    y_vanishes[v] is None when A y = e_v has no solution (some kernel
    vector is non-zero at v); otherwise y_v is the same for every
    solution, and the entry says whether it is zero.
    """

    basis: KernelBasis
    y_vanishes: tuple


def symmetric_kernel(m: IntMatrix) -> SymmetricKernel:
    """Kernel basis and the A y = e_v diagonal test from one elimination.

    Fraction-free Gauss-Jordan on [A | I] leaves [R | T] with T A = R, R
    in reduced echelon form and every pivot equal to d; the kernel basis
    is read off R as in nullspace_basis.  The rows below the rank of T
    span the left kernel, which is the kernel because A is symmetric, so
    A y = e_v is solvable exactly when they all vanish at column v; then
    v is a pivot column, and the solution with zero free entries has
    d * y_v = T[i][v] for v's pivot row i.
    """
    if not m.is_symmetric():
        raise ValueError("symmetric_kernel requires a symmetric matrix")
    n = m.rows
    data = [list(row) + [0] * n for row in m.data]
    for i in range(n):
        data[i][n + i] = 1
    pivots, _, d = _gauss_jordan_int(data, n, n)
    r = len(pivots)
    row_of = {p: i for i, p in enumerate(pivots)}
    y_vanishes = tuple(
        None
        if any(data[i][n + v] != 0 for i in range(r, n))
        else data[row_of[v]][n + v] == 0
        for v in range(n)
    )
    basis = _kernel_from_reduced(data, pivots, d, n)
    return SymmetricKernel(basis, y_vanishes)


def char_poly(m: IntMatrix) -> CharPoly:
    """Characteristic polynomial det(tI - m) with exact integer coefficients.

    Faddeev-LeVerrier: the trace at step k is always divisible by k for an
    integer matrix, so the whole run stays in the integers.
    """
    if m.rows != m.cols:
        raise ValueError("characteristic polynomial requires a square matrix")
    n = m.rows
    coeffs = [1]
    a = [list(r) for r in m.data]
    work = [row[:] for row in a]
    for k in range(1, n + 1):
        trace = sum(work[i][i] for i in range(n))
        if trace % k != 0:
            raise ArithmeticError("non-integer trace in exact recurrence")
        c = -(trace // k)
        coeffs.append(c)
        if k == n:
            break
        for i in range(n):
            work[i][i] += c
        work = [
            [sum(a[i][t] * work[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
    return CharPoly(coefficients=tuple(coeffs))
