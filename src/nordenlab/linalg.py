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

A polynomial times a rational, as in ``Tensor.contract`` and
``Tensor.trace``, goes to :func:`_accumulate`, one call per product.  A
product of two polynomials goes to the batch kernel
:func:`~nordenlab.poly._multiply_accumulate`, in a stream of operands
read from :attr:`Tensor.flat`, which each tensor computes once, after
:func:`_aligned` has brought two tensors over one parameter list.  The
class flags' cyclic sums and the norm of grad J weight F by rationals in
that kernel too, straight from ``F.flat``: a matrix's entries are
constant operands there (:attr:`RationalMatrix.column_terms`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from math import gcd, lcm, prod
from operator import or_
from typing import Iterable, Mapping, Sequence

from .errors import (DimensionMismatchError, ParameterMismatchError,
                     SingularMatrixError)
from .poly import (Poly, RationalLike, _add_terms, _canonical, _flatten,
                   _unpack, as_fraction)


class RationalMatrix:
    """Immutable dense matrix of exact rationals."""

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

    def __delattr__(self, name):
        raise AttributeError("RationalMatrix is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, not setattr
        return RationalMatrix, (self.rows,)

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
    def column_terms(self) -> tuple[int, tuple]:
        """``(D, columns)``: :attr:`nonzero_columns` with each entry m as
        the batch kernel's constant operand ``((0, m * D),)``, D the lcm
        of the entries' denominators; computed once."""
        columns = self.nonzero_columns
        d = lcm(*(m.denominator for column in columns for _, m in column))
        return d, tuple(tuple((a, ((0, m.numerator * (d // m.denominator)),))
                              for a, m in column) for column in columns)

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


class Tensor:
    """Polynomial array of any rank on one dimension, stored as its
    nonzero map: a dict from 0-based index tuples to the nonzero
    components, beside ``dim``, ``rank`` and ``params``.  ``at`` reads a
    0-based index tuple, ``component`` and item access are 1-based, and
    an index with nothing stored reads one shared zero.

    ``Tensor(params, dim, rank, entries)`` is the one constructor:
    ``entries`` maps 0-based index tuples to a Poly or to an accumulator
    of :func:`_accumulate`, each over ``params``, and absent or cancelled
    entries are not stored.  The package's index contractions are built
    on three primitives, which visit only the nonzero components:

    * ``nonzero``: the ``(0-based index, Poly)`` pairs, row-major;
    * ``contract(axis, M)``: ``T'[.., a, ..] = sum_p M[a][p] T[.., p, ..]``
      for a square :class:`RationalMatrix` ``M``, read through its
      ``nonzero_columns``, so raising an index is ``contract(axis, g_inv)``
      and ``T(.., J x, ..)`` is ``contract(axis, J^T)``;
    * ``trace(a, b, M)``: ``sum_{p,q} M[p][q] T[.., p, .., q, ..]`` over
      axes ``a < b``, two ranks lower (a rank-0 result holds one Poly).

    ``contract`` and ``trace`` are multiply-accumulate scatters:
    :func:`_accumulate` adds each component times a rational weight term
    by term, as plain ints, into one accumulator per output index,
    deleting a term as soon as it cancels, and the constructor reduces
    each finished accumulator once into a canonical ``Poly``.  No
    intermediate ``Poly`` is built.  The stages that multiply two
    polynomials fill accumulators of the same form through the batch
    kernel, reading ``flat`` (see the module docstring).

    ``components`` (nested tuples) is a dense view built on demand, read
    by ``nabla_R``, the tests and the benchmark's traced replay.
    """

    def __init__(self, params: Iterable[str], dim: int, rank: int,
                 entries: Mapping[tuple[int, ...], Poly | list]):
        """Each accumulator is reduced once, in place, and given up to its
        Poly, so none may be stored twice."""
        params = tuple(params)
        kept: dict[tuple[int, ...], Poly] = {}
        for idx, value in entries.items():
            if not isinstance(value, Poly):
                nums, den, over = value
                value = _canonical(over, nums, den)
            if not value:
                continue
            if value.params != params:
                raise ParameterMismatchError(f"component {idx} is over "
                                             f"{value.params}, not {params}")
            kept[idx] = value
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "_entries", kept)
        object.__setattr__(self, "_zero", _zero_over(params))

    def __setattr__(self, name, value):
        raise AttributeError("Tensor is immutable")

    def __delattr__(self, name):
        raise AttributeError("Tensor is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, not setattr
        return type(self), (self.params, self.dim, self.rank, self._entries)

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

    def contract(self, axis: int, M: RationalMatrix) -> Tensor:
        acc: dict[tuple[int, ...], list] = {}
        _scatter(acc, self.nonzero, axis, M.nonzero_columns)
        return Tensor(self.params, self.dim, self.rank, acc)

    def trace(self, a: int, b: int, M) -> Tensor:
        acc: dict[tuple[int, ...], list] = {}
        for idx, v in self._items():
            weight = M[idx[a]][idx[b]]
            if weight:
                rest = idx[:a] + idx[a + 1:b] + idx[b + 1:]
                _accumulate(acc, rest, v, weight)
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


def _accumulate(acc: dict, key: tuple[int, ...], v: Poly, m=1) -> None:
    """Add ``v * m``, for an int or Fraction ``m``, into ``acc[key]``, an
    accumulator created on first use: ``[nums, den, params]``, integer
    numerators over one denominator.

    Each term of ``v`` is scaled as an int and added straight into
    ``nums``, and a term is deleted the moment it cancels, as is a key
    whose accumulator empties, so no ``Poly`` is built, no zero is kept
    and nothing is reduced until the :class:`Tensor` constructor.  A
    product over a denominator other than ``den`` moves the accumulator
    to their lcm (:func:`_rescale`).  Every product added to one
    accumulator must be over its ``params``, and the constructor checks
    that these are the tensor's.
    """
    factor, den = m.as_integer_ratio()
    if not factor:
        return
    den *= v.den
    params = v.params
    entry = acc.get(key)
    if entry is None:
        entry = acc[key] = [{}, den, params]
    elif entry[2] is not params and entry[2] != params:
        raise ParameterMismatchError(
            f"product over {params} added to terms over {entry[2]}")
    elif entry[1] != den:
        factor *= _rescale(entry, den)
    nums = entry[0]
    _add_terms(nums, v.nums, factor)
    if not nums:
        del acc[key]


def _rescale(entry: list, den: int) -> int:
    """Bring the accumulator ``entry = [nums, d, params]``, ``d != den``,
    onto ``lcm(d, den)``, multiplying its numerators only when ``den``
    does not divide ``d``, and return the factor that puts a product
    over ``den`` on it."""
    have = entry[1]
    g = gcd(have, den)
    if g != den:
        up = den // g
        nums = entry[0]
        for e in nums:
            nums[e] *= up
        entry[1] = have * up
    return have // g


def _aligned(left: Tensor, right: Tensor) -> tuple[Tensor, Tensor]:
    """The two tensors over the list :meth:`Poly._aligned` gives the
    product of their probes, each the monomial of the parameters
    occurring in its tensor, so their components align as their products
    would, or refuse with :class:`ParameterMismatchError`."""
    if left.params == right.params:
        return left, right
    probes = []
    for t in (left, right):
        key = reduce(or_, (k for v in t._entries.values() for k in v.nums), 0)
        probes.append(Poly(t.params, {_unpack(key, len(t.params)): 1}))
    params = probes[0]._aligned(probes[1])[0].params
    return tuple(t if t.params == params else type(t)(params, t.dim, t.rank, {
        idx: v.with_params(params) for idx, v in t._entries.items()})
        for t in (left, right))


def _scatter(acc: dict, entries, axis: int, columns) -> None:
    """Add ``columns[p]`` applied at ``axis`` of every entry into ``acc``:
    an entry at index p there sends ``value * m`` to index a for each
    pair ``(a, m)`` of ``columns[p]``, as in
    :attr:`RationalMatrix.nonzero_columns`."""
    for idx, v in entries:
        head, tail = idx[:axis], idx[axis + 1:]
        for a, m in columns[idx[axis]]:
            _accumulate(acc, head + (a,) + tail, v, m)


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
