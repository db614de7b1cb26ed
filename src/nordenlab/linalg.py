"""Exact linear algebra over the rationals and over polynomials.

* :class:`RationalMatrix` — entries are :class:`fractions.Fraction`.  Used
  for the metric g, the almost-complex matrix J, and the inverse metric.
  Its inverse and determinant, :func:`rational_rank` and the plane
  classifier's rank tests run one sparse Gauss-Jordan elimination
  (:func:`_eliminate`) — no floating point.  Raw indexing is 0-based
  Python; the 1-based basis-label accessor is ``entry(i, j)``, and
  ``nonzero_columns`` is its one sparse view, cached.

* :class:`Tensor` — the one polynomial array of the package: the map
  of nonzero :class:`~nordenlab.poly.Poly` components of any rank on one
  dimension, with 1-based access and the contraction primitives every
  derived object is built from (structure constants, F, the connection,
  R).

* :class:`PolyMatrix` — a rank-2 :class:`Tensor` with a 1-based
  ``entry(i, j)`` and an exact ``determinant()``.  Used for the Killing
  form and the Ricci tensor.

Every sum of products goes to the batch kernel
:func:`~nordenlab.poly._multiply_accumulate`, in a stream of operands
read from :attr:`Tensor.flat`, which each tensor computes once, all
over one parameter list (:func:`_over` refuses a tensor over another, or
of another dimension or rank, before a stage's first product).  A
rational weight m is a constant operand ``((0, m * D),)`` over one
denominator D; a matrix makes its operands once
(:attr:`RationalMatrix.operands`, by column
:attr:`RationalMatrix.column_terms`), so ``Tensor.contract``,
``Tensor.trace`` and F weight a tensor's flat terms by a matrix in the
kernel too.  Loose ``(index, Poly, rational)`` items are summed there
by :func:`_weighted_sum`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm, prod
from typing import Iterable, Mapping, Sequence

from .errors import (DimensionMismatchError, ParameterMismatchError,
                     SingularMatrixError)
from .poly import (Poly, RationalLike, _canonical, _flatten,
                   _multiply_accumulate, as_fraction)
from .record import Frozen


class RationalMatrix(Frozen):
    """Immutable dense matrix of exact rationals."""

    def __init__(self, rows: Iterable[Iterable[RationalLike]]):
        grid = tuple(tuple(as_fraction(v) for v in row) for row in rows)
        if not grid or not grid[0]:
            raise ValueError("matrix must have at least one row and column")
        width = len(grid[0])
        if any(len(row) != width for row in grid):
            raise ValueError("ragged rows in matrix input")
        self._set(rows=grid)

    def _args(self):
        return self.rows,

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

    @cached_property
    def nonzero_columns(self) -> tuple[tuple[tuple[int, Fraction], ...], ...]:
        """For each column, the ``(row, entry)`` pairs of its nonzero
        entries, rows increasing; computed once."""
        return tuple(
            tuple((i, row[j]) for i, row in enumerate(self.rows) if row[j])
            for j in range(self.ncols))

    @cached_property
    def operands(self) -> tuple[int, tuple]:
        """``(D, grid)``: each entry m as the batch kernel's constant
        operand ``((0, m * D),)``, empty where m is 0, D the lcm of the
        entries' denominators; computed once."""
        d = lcm(*(m.denominator for row in self.rows for m in row))
        return d, tuple(tuple(((0, m.numerator * (d // m.denominator)),)
                              if m else () for m in row) for row in self.rows)

    @cached_property
    def column_terms(self) -> tuple[int, tuple]:
        """``(D, columns)``: :attr:`nonzero_columns` with each entry as
        its operand in :attr:`operands`; computed once."""
        d, grid = self.operands
        return d, tuple(tuple((a, grid[a][j]) for a, _ in column)
                        for j, column in enumerate(self.nonzero_columns))

    @property
    def is_symmetric(self) -> bool:
        return self.is_square and all(
            self.rows[i][j] == self.rows[j][i]
            for i in range(self.nrows) for j in range(i))

    # -- arithmetic --------------------------------------------------------

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
        # g and J are sparse: multiply only pairs of nonzero entries
        columns = other.nonzero_columns
        return RationalMatrix([[sum(row[p] * b for p, b in column if row[p])
                                for column in columns] for row in self.rows])

    def transpose(self) -> RationalMatrix:
        return RationalMatrix(zip(*self.rows))

    def apply(self, vec: Sequence):
        """Matrix-vector product; components may be Fraction or Poly."""
        if len(vec) != self.ncols:
            raise DimensionMismatchError(
                f"vector of length {len(vec)} against "
                f"{self.nrows}x{self.ncols} matrix")
        zero_like = vec[0] * 0
        support = [(p, comp) for p, comp in enumerate(vec) if comp]
        out = []
        for row in self.rows:
            acc = zero_like
            for p, comp in support:
                if row[p]:
                    acc = acc + row[p] * comp
            out.append(acc)
        return tuple(out)

    def inverse(self) -> RationalMatrix:
        """Exact inverse: :func:`_eliminate` on the rows of ``[self | I]``.

        Raises :class:`SingularMatrixError` carrying the first column
        without a pivot.
        """
        n = self._square("cannot invert")
        pivots = _eliminate([{**_support(row), n + i: Fraction(1)}
                             for i, row in enumerate(self.rows)], n)
        cols = {col for col, _, _ in pivots}
        if len(cols) < n:
            col = next(c for c in range(n) if c not in cols)
            # report 1-based, matching entry() and every other surface
            raise SingularMatrixError(
                f"singular matrix: no pivot at row/column {col + 1}",
                column=col + 1)
        return RationalMatrix([[row.get(n + c, 0) for c in range(n)]
                               for _, _, row in sorted(pivots)])

    def determinant(self) -> Fraction:
        """Exact determinant: the product of the pivots of
        :func:`_eliminate`, times the sign of the permutation that sends
        each row to its pivot column."""
        n = self._square("determinant of")
        pivots = _eliminate([_support(row) for row in self.rows], n)
        if len(pivots) < n:
            return Fraction(0)
        cols = [col for col, _, _ in pivots]
        inversions = sum(a > b for i, a in enumerate(cols) for b in cols[i:])
        return prod((lead for _, lead, _ in pivots),
                    start=Fraction((-1) ** inversions))

    def _square(self, what: str) -> int:
        if not self.is_square:
            raise DimensionMismatchError(
                f"{what} {self.nrows}x{self.ncols} matrix")
        return self.nrows

    # -- comparison and display -------------------------------------------

    def __repr__(self):
        body = "; ".join(
            " ".join(str(v) for v in row) for row in self.rows)
        return f"RationalMatrix[{body}]"


def rational_rank(vectors: Iterable[Sequence[RationalLike]]) -> int:
    """Rank of a family of rational vectors, by exact row reduction."""
    work = [[as_fraction(v) for v in vec] for vec in vectors]
    if work and any(len(row) != len(work[0]) for row in work):
        raise DimensionMismatchError("rank of vectors of unequal length")
    return len(_eliminate([_support(row) for row in work],
                          len(work[0]) if work else 0))


def _support(vec: Iterable[Fraction]) -> dict[int, Fraction]:
    """The nonzero components of a rational vector, by position."""
    return {i: v for i, v in enumerate(vec) if v}


def _eliminate(rows: Iterable[Mapping[int, Fraction]], width: int
               ) -> list[tuple[int, Fraction, dict[int, Fraction]]]:
    """Gauss-Jordan elimination of sparse rational rows, given by their
    nonzero components, with pivots in columns ``0 .. width-1`` only.

    Each row is reduced by the pivot rows found so far.  If a nonzero
    entry is left in a pivot column, the first such becomes the next
    pivot: the row is scaled to 1 there and the column is cleared from
    every earlier pivot row.  Returns ``(column, pivot value before
    scaling, pivot row)`` per pivot, in the order of the rows that gave
    them; a row reduced to nothing gives none.  The pivot columns are
    those of the reduced row echelon form, the pivot rows its rows, and
    only nonzero entries are read or stored.
    """
    pivots: list[tuple[int, Fraction, dict[int, Fraction]]] = []
    for vec in rows:
        rest = dict(vec)
        for col, _, row in pivots:
            _subtract(rest, row, rest.get(col))
        col = min((c for c in rest if c < width), default=None)
        if col is None:
            continue
        lead = rest[col]
        row = {c: v / lead for c, v in rest.items()}
        for _, _, other in pivots:
            _subtract(other, row, other.get(col))
        pivots.append((col, lead, row))
    return pivots


def _subtract(target: dict[int, Fraction], row: Mapping[int, Fraction],
              factor: Fraction | None) -> None:
    """``target -= factor * row`` in place, keeping no zero."""
    if factor:
        for c, v in row.items():
            value = target.get(c, 0) - factor * v
            if value:
                target[c] = value
            else:
                del target[c]


_zero_over = lru_cache(Poly.zero)  # validated once per parameter tuple


class Tensor(Frozen):
    """Polynomial array of any rank on one dimension, stored as its
    nonzero map: a dict from 0-based index tuples to the nonzero
    components, beside ``dim``, ``rank`` and ``params``.  ``at`` reads a
    0-based index tuple, ``component`` and item access are 1-based, and
    an index with nothing stored reads one shared zero.

    ``Tensor(params, dim, rank, entries)`` is the one constructor:
    ``entries`` maps 0-based index tuples to a Poly or to an accumulator
    of the batch kernel, each over ``params``, and absent or cancelled
    entries are not stored.  The package's index contractions are built
    on three primitives, which visit only the nonzero components:

    * ``nonzero``: the ``(0-based index, Poly)`` pairs, row-major;
    * ``contract(axis, M)``: ``T'[.., a, ..] = sum_p M[a][p] T[.., p, ..]``
      for a dim x dim :class:`RationalMatrix` ``M``, read through its
      ``column_terms``, so raising an index is ``contract(axis, g_inv)``
      and ``T(.., J x, ..)`` is ``contract(axis, J^T)``;
    * ``trace(a, b, M)``: ``sum_{p,q} M[p][q] T[.., p, .., q, ..]`` over
      axes ``0 <= a < b < rank``, two ranks lower (a rank-0 result holds
      one Poly), read through M's ``operands``; both refuse another M.

    ``contract`` and ``trace`` are one kernel stream each: ``flat``'s
    terms times M's constant operands, added as plain ints into one
    accumulator per output index, a term deleted as soon as it cancels;
    the constructor reduces each finished accumulator once into a
    canonical ``Poly``, and no intermediate ``Poly`` is built.

    ``components`` (nested tuples) is a dense view built on demand, read
    by ``nabla_R``, the tests and the benchmark's traced replay.
    """

    def __init__(self, params: Iterable[str], dim: int, rank: int,
                 entries: Mapping[tuple[int, ...], Poly | list]):
        """Each accumulator is reduced once, in place, over ``params`` and
        given up to its Poly, so none may be stored twice."""
        params = tuple(params)
        kept: dict[tuple[int, ...], Poly] = {}
        for idx, value in entries.items():
            if not isinstance(value, Poly):
                value = _canonical(params, *value)
            elif value.params != params:
                raise ParameterMismatchError(f"component {idx} is over "
                                             f"{value.params}, not {params}")
            if value:
                kept[idx] = value
        self._set(dim=dim, rank=rank, params=params, _entries=kept,
                  _zero=_zero_over(params))

    def _args(self):
        return self.params, self.dim, self.rank, self._entries

    def at(self, idx: tuple[int, ...]) -> Poly:
        """The component at a 0-based index tuple, unchecked."""
        return self._entries.get(idx, self._zero)

    def component(self, *idx: int) -> Poly:
        if len(idx) != self.rank:
            raise IndexError(
                f"rank-{self.rank} tensor takes {self.rank} indices, "
                f"got {len(idx)}")
        for i in idx:
            if not (1 <= i <= self.dim):
                raise IndexError(f"index {i} out of range 1..{self.dim}")
        return self.at(tuple(i - 1 for i in idx))

    def __getitem__(self, idx: tuple[int, ...]) -> Poly:
        return self.component(*idx)

    @property
    def components(self):
        """Dense nested-tuple view with raw 0-based storage, built on
        demand (see the class docstring for its readers)."""
        def fill(prefix):
            if len(prefix) == self.rank:
                return self.at(prefix)
            return tuple(fill(prefix + (i,)) for i in range(self.dim))
        return fill(())

    def _items(self) -> Iterable[tuple[tuple[int, ...], Poly]]:
        """The pairs of :attr:`nonzero`, in no set order."""
        return self._entries.items()

    @cached_property
    def nonzero(self) -> tuple[tuple[tuple[int, ...], Poly], ...]:
        """The nonzero components with their 0-based indices, row-major;
        computed once."""
        return tuple(sorted(self._items()))

    @cached_property
    def flat(self) -> tuple[int, tuple]:
        """:attr:`nonzero`'s components flattened for the batch kernel, as
        :func:`~nordenlab.poly._flatten` gives them; computed once."""
        return _flatten([v for _, v in self.nonzero])

    def _check_weights(self, axes: tuple[int, ...], M: RationalMatrix):
        """Refuse axes not increasing in range(rank), or M not dim x dim."""
        if not all(p < q for p, q in zip((-1, *axes), (*axes, self.rank))):
            raise IndexError(f"axes {axes} out of order or range({self.rank})")
        if (M.nrows, M.ncols) != (self.dim, self.dim):
            raise DimensionMismatchError(
                f"matrix is {M.nrows}x{M.ncols}, tensor dimension {self.dim}")

    def contract(self, axis: int, M: RationalMatrix) -> Tensor:
        self._check_weights((axis,), M)
        den, terms = self.flat
        d, columns = M.column_terms
        return Tensor(self.params, self.dim, self.rank, _multiply_accumulate(
            {}, ((idx[:axis] + (a,) + idx[axis + 1:], v, w)
                 for (idx, _), v in zip(self.nonzero, terms)
                 for a, w in columns[idx[axis]]), den * d, self.params))

    def trace(self, a: int, b: int, M: RationalMatrix) -> Tensor:
        self._check_weights((a, b), M)
        den, terms = self.flat
        d, grid = M.operands
        acc = _multiply_accumulate({}, (
            (idx[:a] + idx[a + 1:b] + idx[b + 1:], v, w)
            for (idx, _), v in zip(self.nonzero, terms)
            if (w := grid[idx[a]][idx[b]])), den * d, self.params)
        return Tensor(self.params, self.dim, self.rank - 2, acc)

    @property
    def is_zero(self) -> bool:
        return not self._entries

    def evaluate(self, assignment: Mapping[str, RationalLike]) -> Tensor:
        """Numeric twin of the same class, parameter-free."""
        return type(self)((), self.dim, self.rank, {
            idx: Poly.constant(v.evaluate(assignment))
            for idx, v in self._entries.items()})

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return (self.rank == other.rank and self.dim == other.dim
                and self._entries == other._entries)

    def __repr__(self):
        return (f"Tensor(rank={self.rank}, dim={self.dim}, "
                f"{len(self.nonzero)} nonzero components)")


def _over(a, rank: int, t: Tensor) -> None:
    """Refuse, before any product, a tensor ``t`` not over the parameter
    list of the algebra ``a``, or not of ``a.dim`` and ``rank``."""
    if t.params != a.params:
        raise ParameterMismatchError(f"tensor over {t.params}, not {a.params}")
    if (t.dim, t.rank) != (a.dim, rank):
        raise DimensionMismatchError(
            f"tensor of dimension {t.dim} and rank {t.rank}, not dimension "
            f"{a.dim} and rank {rank}")


def _weighted_sum(params: tuple[str, ...], dim: int, rank: int,
                  items: Sequence[tuple[tuple[int, ...], Poly, Fraction]]
                  ) -> Tensor:
    """The tensor of ``sum v * m`` over loose ``(index, v, m)`` items, each
    v a Poly over ``params`` and m a nonzero int or Fraction: the values
    flattened once, each m a constant operand over the lcm of their
    denominators, and one kernel call."""
    for idx, v, _ in items:
        if v.params != params:
            raise ParameterMismatchError(f"component {idx} is over "
                                         f"{v.params}, not {params}")
    den, terms = _flatten([v for _, v, _ in items])
    d = lcm(*(m.denominator for _, _, m in items))
    return Tensor(params, dim, rank, _multiply_accumulate({}, (
        (idx, t, ((0, m.numerator * (d // m.denominator)),))
        for (idx, _, m), t in zip(items, terms)), den * d, params))


class PolyMatrix(Tensor):
    """A square matrix of polynomials: a rank-2 :class:`Tensor` with a
    1-based ``entry`` and an exact ``determinant``."""

    def entry(self, i: int, j: int) -> Poly:
        """Entry at 1-based row ``i``, column ``j``."""
        return self.component(i, j)

    def determinant(self) -> Poly:
        """Exact determinant by Laplace expansion, memoized on column sets.

        Polynomial entries rule out division-based elimination; the
        subset-memoized expansion costs O(2^n) sub-determinants, fine for
        the small matrices this package meets (dim <= ~20).
        """
        rows: list[dict[int, Poly]] = [{} for _ in range(self.dim)]
        for (r, c), v in self.nonzero:
            rows[r][c] = v
        zero = Poly.zero(self.params)
        cache: dict[tuple[int, ...], Poly] = {(): Poly.constant(1, self.params)}

        def minor(cols: tuple[int, ...]) -> Poly:
            # Determinant of the block on rows n-len(cols).. and `cols`.
            if cols in cache:
                return cache[cols]
            row = rows[self.dim - len(cols)]
            acc = zero
            for pos, c in enumerate(cols):
                v = row.get(c)
                if v is None:
                    continue
                sub = minor(cols[:pos] + cols[pos + 1:])
                term = v * sub
                acc = acc + term if pos % 2 == 0 else acc - term
            cache[cols] = acc
            return acc

        return minor(tuple(range(self.dim)))
