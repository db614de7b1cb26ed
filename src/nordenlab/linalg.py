"""Exact dense linear algebra over the rationals and over polynomials.

Two matrix flavours:

* :class:`RationalMatrix` — entries are :class:`fractions.Fraction`.  Used
  for the metric g, the almost-complex matrix J, and the inverse metric.
  Supports exact inversion (Gauss-Jordan) and exact signature computation
  by congruence diagonalization (Sylvester's law of inertia) — no
  eigenvalues, no floating point.

* :class:`PolyMatrix` — entries are :class:`~nordenlab.poly.Poly`.  Used
  for adjoint matrices, the Killing form, and the Ricci tensor, where
  entries depend on the parameters.

Raw indexing on both classes is 0-based Python; the 1-based basis-label
accessor is ``entry(i, j)``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    DegenerateFormError,
    DimensionMismatchError,
    NonSymmetricMatrixError,
    SingularMatrixError,
)
from .poly import Poly, RationalLike, as_fraction, as_poly


class RationalMatrix:
    """Immutable dense matrix of exact rationals."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[RationalLike]]):
        grid = tuple(tuple(as_fraction(v) for v in row) for row in rows)
        if not grid or not grid[0]:
            raise ValueError("matrix must have at least one row and column")
        width = len(grid[0])
        if any(len(row) != width for row in grid):
            raise ValueError("ragged rows in matrix input")
        object.__setattr__(self, "rows", grid)

    def __setattr__(self, name, value):
        raise AttributeError("RationalMatrix is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> RationalMatrix:
        return cls.diagonal([1] * n)

    @classmethod
    def diagonal(cls, entries: Sequence[RationalLike]) -> RationalMatrix:
        n = len(entries)
        return cls([[entries[i] if i == j else 0 for j in range(n)]
                    for i in range(n)])

    # -- shape and access --------------------------------------------------

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __getitem__(self, i: int) -> tuple[Fraction, ...]:
        return self.rows[i]

    def entry(self, i: int, j: int) -> Fraction:
        """Entry at 1-based row ``i``, column ``j``."""
        if not (1 <= i <= self.nrows and 1 <= j <= self.ncols):
            raise IndexError(f"entry ({i}, {j}) outside "
                             f"{self.nrows}x{self.ncols} matrix (1-based)")
        return self.rows[i - 1][j - 1]

    @property
    def is_symmetric(self) -> bool:
        return self.is_square and all(
            self.rows[i][j] == self.rows[j][i]
            for i in range(self.nrows) for j in range(i))

    # -- arithmetic --------------------------------------------------------

    def _require_same_shape(self, other: RationalMatrix):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise DimensionMismatchError(
                f"shape mismatch: {self.nrows}x{self.ncols} vs "
                f"{other.nrows}x{other.ncols}")

    def __add__(self, other: RationalMatrix) -> RationalMatrix:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        self._require_same_shape(other)
        return RationalMatrix(
            [[a + b for a, b in zip(r1, r2)]
             for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other: RationalMatrix) -> RationalMatrix:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> RationalMatrix:
        return self.scale(-1)

    def scale(self, factor: RationalLike) -> RationalMatrix:
        factor = as_fraction(factor)
        return RationalMatrix(
            [[factor * v for v in row] for row in self.rows])

    def __matmul__(self, other: RationalMatrix) -> RationalMatrix:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise DimensionMismatchError(
                f"cannot multiply {self.nrows}x{self.ncols} by "
                f"{other.nrows}x{other.ncols}")
        cols = other.transpose().rows
        return RationalMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in cols]
             for row in self.rows])

    def transpose(self) -> RationalMatrix:
        return RationalMatrix(zip(*self.rows))

    def apply(self, vec: Sequence):
        """Matrix-vector product; components may be Fraction or Poly."""
        if len(vec) != self.ncols:
            raise DimensionMismatchError(
                f"vector of length {len(vec)} against "
                f"{self.nrows}x{self.ncols} matrix")
        zero_like = vec[0] * 0
        out = []
        for row in self.rows:
            acc = zero_like
            for coeff, comp in zip(row, vec):
                if coeff:
                    acc = acc + coeff * comp
            out.append(acc)
        return tuple(out)

    def inverse(self) -> RationalMatrix:
        """Exact inverse by Gauss-Jordan elimination with row pivoting.

        Raises :class:`SingularMatrixError` carrying the pivot index where
        elimination found no usable row.
        """
        if not self.is_square:
            raise DimensionMismatchError(
                f"cannot invert {self.nrows}x{self.ncols} matrix")
        n = self.nrows
        work = [list(row) + [Fraction(int(i == j)) for j in range(n)]
                for i, row in enumerate(self.rows)]
        for col in range(n):
            pivot = next((r for r in range(col, n) if work[r][col] != 0),
                         None)
            if pivot is None:
                # report 1-based, matching entry() and every other surface
                raise SingularMatrixError(
                    f"singular matrix: no pivot at row/column {col + 1}",
                    column=col + 1)
            work[col], work[pivot] = work[pivot], work[col]
            inv = Fraction(1) / work[col][col]
            work[col] = [v * inv for v in work[col]]
            for r in range(n):
                if r != col and work[r][col]:
                    factor = work[r][col]
                    work[r] = [v - factor * w
                               for v, w in zip(work[r], work[col])]
        return RationalMatrix([row[n:] for row in work])

    def determinant(self) -> Fraction:
        """Exact determinant by fraction-free-ish Gaussian elimination."""
        if not self.is_square:
            raise DimensionMismatchError(
                f"determinant of {self.nrows}x{self.ncols} matrix")
        n = self.nrows
        work = [list(row) for row in self.rows]
        det = Fraction(1)
        for col in range(n):
            pivot = next((r for r in range(col, n) if work[r][col] != 0),
                         None)
            if pivot is None:
                return Fraction(0)
            if pivot != col:
                work[col], work[pivot] = work[pivot], work[col]
                det = -det
            det *= work[col][col]
            inv = Fraction(1) / work[col][col]
            for r in range(col + 1, n):
                if work[r][col]:
                    factor = work[r][col] * inv
                    work[r] = [v - factor * w
                               for v, w in zip(work[r], work[col])]
        return det

    # -- comparison and display -------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        body = "; ".join(
            " ".join(str(v) for v in row) for row in self.rows)
        return f"RationalMatrix[{body}]"


def signature(m: RationalMatrix) -> tuple[int, int]:
    """Signature (positive count, negative count) of a symmetric matrix.

    Congruence diagonalization over the rationals: diagonal pivots are
    used directly; a zero diagonal with a nonzero off-diagonal entry is
    repaired by the congruence e_k <- e_k + e_l, which puts 2*A[k][l] on
    the diagonal.  By Sylvester's law of inertia the diagonal sign counts
    are invariants of the form.

    Raises :class:`NonSymmetricMatrixError` for non-symmetric input and
    :class:`DegenerateFormError` when the reduction meets an identically
    zero row (the form has a kernel, hence no full signature).
    """
    if not m.is_square:
        raise DimensionMismatchError(
            f"signature of {m.nrows}x{m.ncols} matrix")
    if not m.is_symmetric:
        raise NonSymmetricMatrixError(
            "signature requires a symmetric matrix")
    n = m.nrows
    a = [list(row) for row in m.rows]

    def add_into(dst: int, src: int):
        # Congruence e_dst <- e_dst + e_src: same op on rows and columns.
        for j in range(n):
            a[dst][j] += a[src][j]
        for i in range(n):
            a[i][dst] += a[i][src]

    def swap(i: int, j: int):
        a[i], a[j] = a[j], a[i]
        for row in a:
            row[i], row[j] = row[j], row[i]

    pos = neg = 0
    for k in range(n):
        if a[k][k] == 0:
            other = next((l for l in range(k + 1, n) if a[l][l] != 0), None)
            if other is not None:
                swap(k, other)
            else:
                off = next((l for l in range(k + 1, n) if a[k][l] != 0),
                           None)
                if off is None:
                    raise DegenerateFormError(
                        f"degenerate symmetric form: basis direction {k} "
                        f"lies in the kernel after reduction")
                add_into(k, off)
        pivot = a[k][k]
        if pivot > 0:
            pos += 1
        else:
            neg += 1
        for r in range(k + 1, n):
            if a[r][k]:
                factor = a[r][k] / pivot
                for j in range(n):
                    a[r][j] -= factor * a[k][j]
                for i in range(n):
                    a[i][r] -= factor * a[i][k]
    return pos, neg


def rational_rank(vectors: Iterable[Sequence[RationalLike]]) -> int:
    """Rank of a family of rational vectors, by exact row reduction."""
    work = [[as_fraction(v) for v in vec] for vec in vectors]
    if not work:
        return 0
    width = len(work[0])
    if any(len(row) != width for row in work):
        raise DimensionMismatchError("rank of vectors of unequal length")
    rank = 0
    for col in range(width):
        pivot = next((r for r in range(rank, len(work)) if work[r][col]),
                     None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = Fraction(1) / work[rank][col]
        work[rank] = [v * inv for v in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col]:
                factor = work[r][col]
                work[r] = [v - factor * w
                           for v, w in zip(work[r], work[rank])]
        rank += 1
    return rank


class PolyMatrix:
    """Immutable dense matrix with polynomial entries."""

    __slots__ = ("params", "grid")

    def __init__(self, params: Iterable[str],
                 rows: Iterable[Iterable[Poly | RationalLike]]):
        params = tuple(params)
        grid = tuple(tuple(as_poly(v, params) for v in row) for row in rows)
        if not grid or not grid[0]:
            raise ValueError("matrix must have at least one row and column")
        width = len(grid[0])
        if any(len(row) != width for row in grid):
            raise ValueError("ragged rows in matrix input")
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "grid", grid)

    def __setattr__(self, name, value):
        raise AttributeError("PolyMatrix is immutable")

    @property
    def nrows(self) -> int:
        return len(self.grid)

    @property
    def ncols(self) -> int:
        return len(self.grid[0])

    def __getitem__(self, i: int) -> tuple[Poly, ...]:
        return self.grid[i]

    def entry(self, i: int, j: int) -> Poly:
        """Entry at 1-based row ``i``, column ``j``."""
        if not (1 <= i <= self.nrows and 1 <= j <= self.ncols):
            raise IndexError(f"entry ({i}, {j}) outside "
                             f"{self.nrows}x{self.ncols} matrix (1-based)")
        return self.grid[i - 1][j - 1]

    @property
    def is_symmetric(self) -> bool:
        return self.nrows == self.ncols and all(
            self.grid[i][j] == self.grid[j][i]
            for i in range(self.nrows) for j in range(i))

    @property
    def is_zero(self) -> bool:
        return all(v.is_zero for row in self.grid for v in row)

    def __add__(self, other: PolyMatrix) -> PolyMatrix:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise DimensionMismatchError(
                f"shape mismatch: {self.nrows}x{self.ncols} vs "
                f"{other.nrows}x{other.ncols}")
        return PolyMatrix(
            self.params or other.params,
            [[a + b for a, b in zip(r1, r2)]
             for r1, r2 in zip(self.grid, other.grid)])

    def __sub__(self, other: PolyMatrix) -> PolyMatrix:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self + other.scale(-1)

    def __neg__(self) -> PolyMatrix:
        return self.scale(-1)

    def scale(self, factor: RationalLike) -> PolyMatrix:
        return PolyMatrix(
            self.params,
            [[v.scale(factor) for v in row] for row in self.grid])

    def __matmul__(self, other: PolyMatrix) -> PolyMatrix:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise DimensionMismatchError(
                f"cannot multiply {self.nrows}x{self.ncols} by "
                f"{other.nrows}x{other.ncols}")
        params = self.params or other.params
        zero = Poly.zero(params)
        out = []
        for row in self.grid:
            line = []
            for c in range(other.ncols):
                acc = zero
                for k, v in enumerate(row):
                    if v.terms and other.grid[k][c].terms:
                        acc = acc + v * other.grid[k][c]
                line.append(acc)
            out.append(line)
        return PolyMatrix(params, out)

    def transpose(self) -> PolyMatrix:
        return PolyMatrix(self.params, zip(*self.grid))

    def trace(self) -> Poly:
        if self.nrows != self.ncols:
            raise DimensionMismatchError(
                f"trace of {self.nrows}x{self.ncols} matrix")
        acc = Poly.zero(self.params)
        for i in range(self.nrows):
            acc = acc + self.grid[i][i]
        return acc

    def determinant(self) -> Poly:
        """Exact determinant by Laplace expansion, memoized on column sets.

        Polynomial entries rule out division-based elimination; the
        subset-memoized expansion costs O(2^n) sub-determinants, fine for
        the small matrices this package meets (dim <= ~20).
        """
        if self.nrows != self.ncols:
            raise DimensionMismatchError(
                f"determinant of {self.nrows}x{self.ncols} matrix")
        zero = Poly.zero(self.params)
        cache: dict[tuple[int, ...], Poly] = {(): Poly.constant(1, self.params)}

        def minor(cols: tuple[int, ...]) -> Poly:
            # Determinant of the block on rows n-len(cols).. and `cols`.
            if cols in cache:
                return cache[cols]
            row = self.grid[self.nrows - len(cols)]
            acc = zero
            for pos, c in enumerate(cols):
                v = row[c]
                if not v.terms:
                    continue
                sub = minor(cols[:pos] + cols[pos + 1:])
                term = v * sub
                acc = acc + term if pos % 2 == 0 else acc - term
            cache[cols] = acc
            return acc

        return minor(tuple(range(self.ncols)))

    def evaluate(self, assignment) -> RationalMatrix:
        """Substitute rationals for the parameters, entrywise."""
        return RationalMatrix(
            [[v.evaluate(assignment) for v in row] for row in self.grid])

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return (self.nrows == other.nrows and self.ncols == other.ncols
                and all(a == b for r1, r2 in zip(self.grid, other.grid)
                        for a, b in zip(r1, r2)))

    def __hash__(self):
        return hash((self.params, self.grid))

    def __repr__(self):
        body = "; ".join(
            " ".join(str(v) for v in row) for row in self.grid)
        return f"PolyMatrix[{body}]"
