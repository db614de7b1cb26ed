"""Almost complex structures with Norden metric on a Lie algebra.

The central object pairs a :class:`~nordenlab.lie.LieAlgebra` with two
constant rational matrices: a symmetric metric ``g`` and an almost-complex
structure ``J`` satisfying

    J^2 = -I          and          J^T g J = -g,

i.e. J is an anti-isometry of g (the Norden property), which forces the
neutral signature (n, n).  On top of that live:

* the associated metric  g~(x, y) = g(x, Jy),
* the invariance (Killing) condition  g([x,y],z) + g([x,z],y) = 0,
* the fundamental tensor  F(x, y, z) = g((grad_x J)y, z),
* the Lie form  theta(z) = g^{ij} F(X_i, X_j, z),
* membership tests for the classes W0, W1, W2, W3.

Everything is exact; class membership means the defining identity holds
as a polynomial identity on all basis triples (multilinearity then gives
it for all vectors).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Mapping, Sequence

from .errors import DimensionMismatchError, NonSymmetricMatrixError, StructureError
from .lie import CheckResult, LieAlgebra, Vector
from .linalg import RationalMatrix, signature
from .poly import Poly, RationalLike

Covector = tuple[Poly, ...]


def default_J(n: int) -> RationalMatrix:
    """Standard almost-complex matrix on dimension 2n.

    Sends X_i to X_{n+i} and X_{n+i} to -X_i for i = 1..n.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    rows = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        rows[n + i][i] = Fraction(1)
        rows[i][n + i] = Fraction(-1)
    return RationalMatrix(rows)


def default_metric(n: int) -> RationalMatrix:
    """diag(1, ..., 1, -1, ..., -1) with n entries of each sign."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return RationalMatrix.diagonal([1] * n + [-1] * n)


def check_norden(g: RationalMatrix, J: RationalMatrix) -> CheckResult:
    """Verify J^2 = -I and J^T g J = -g, entry by entry.

    Violations are tuples (identity-name, i, j, value) with 1-based
    entries; ``value`` is the offending matrix entry of J^2 + I or of
    J^T g J + g.
    """
    if g.nrows != g.ncols or J.nrows != J.ncols or g.nrows != J.nrows:
        raise DimensionMismatchError(
            f"g is {g.nrows}x{g.ncols}, J is {J.nrows}x{J.ncols}; both "
            f"must be square of equal size")
    violations = []
    n = g.nrows
    jj = J @ J
    for i in range(n):
        for j in range(n):
            value = jj[i][j] + (1 if i == j else 0)
            if value:
                violations.append(("J^2+I", i + 1, j + 1, value))
    twisted = J.transpose() @ g @ J
    for i in range(n):
        for j in range(n):
            value = twisted[i][j] + g[i][j]
            if value:
                violations.append(("J^T*g*J+g", i + 1, j + 1, value))
    return CheckResult(not violations, tuple(violations))


class Tensor:
    """Dense array of polynomials of any rank on one dimension.

    ``components`` is nested tuples, one level per index, with raw
    0-based storage; ``component`` and item access are 1-based.  The
    package's index contractions are built on four primitives, which
    visit only the nonzero components:

    * ``nonzero()``: the ``(0-based index, Poly)`` pairs, row-major;
    * ``contract(axis, M)``: ``T'[.., a, ..] = sum_p M[a][p] T[.., p, ..]``
      for a square matrix ``M`` of rationals or polynomials, so raising
      an index is ``contract(axis, g_inv)`` and ``T(.., J x, ..)`` is
      ``contract(axis, J^T)``;
    * ``trace(a, b, M)``: ``sum_{p,q} M[p][q] T[.., p, .., q, ..]`` over
      axes ``a < b``, two ranks lower (a rank-0 result holds one Poly);
    * ``from_entries(params, dim, rank, entries)``: a tensor from a map of
      0-based index tuples to Poly, where every absent or cancelled entry
      is one shared zero.
    """

    __slots__ = ("dim", "rank", "params", "components", "_nonzero")

    def __init__(self, params: Iterable[str], components: Sequence):
        dim = len(components)
        rank, probe = 0, components
        while not isinstance(probe, Poly) and len(probe):
            rank, probe = rank + 1, probe[0]

        def freeze(node, depth):
            if depth == 0 and isinstance(node, Poly):
                return node
            if depth == 0 or isinstance(node, Poly) or len(node) != dim:
                raise DimensionMismatchError(
                    "tensor components must fill a cube of polynomials")
            return tuple(freeze(sub, depth - 1) for sub in node)

        self._set(dim, rank, params, freeze(components, rank))

    def _set(self, dim, rank, params, components):
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "params", tuple(params))
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "_nonzero", None)

    @classmethod
    def from_entries(cls, params: Iterable[str], dim: int, rank: int,
                     entries: Mapping[tuple[int, ...], Poly]) -> Tensor:
        zero = Poly.zero(params)

        def fill(prefix):
            if len(prefix) == rank:
                value = entries.get(prefix, zero)
                return value if value.terms else zero
            return tuple(fill(prefix + (i,)) for i in range(dim))

        tensor = object.__new__(cls)
        tensor._set(dim, rank, params, fill(()))
        return tensor

    def __setattr__(self, name, value):
        raise AttributeError("Tensor is immutable")

    def component(self, *idx: int) -> Poly:
        if len(idx) != self.rank:
            raise IndexError(
                f"rank-{self.rank} tensor takes {self.rank} indices, "
                f"got {len(idx)}")
        node = self.components
        for i in idx:
            if not (1 <= i <= self.dim):
                raise IndexError(f"index {i} out of range 1..{self.dim}")
            node = node[i - 1]
        return node

    def __getitem__(self, idx: tuple[int, ...]) -> Poly:
        return self.component(*idx)

    def values(self) -> list[Poly]:
        """Every component, in row-major order."""
        level = [self.components]
        for _ in range(self.rank):
            level = [sub for node in level for sub in node]
        return level

    def nonzero(self) -> tuple[tuple[tuple[int, ...], Poly], ...]:
        """The nonzero components with their 0-based indices, row-major;
        computed once."""
        if self._nonzero is None:
            indices = product(range(self.dim), repeat=self.rank)
            object.__setattr__(self, "_nonzero", tuple(
                (idx, v) for idx, v in zip(indices, self.values())
                if v.terms))
        return self._nonzero

    def contract(self, axis: int, M) -> Tensor:
        acc: dict[tuple[int, ...], Poly] = {}
        _scatter(acc, self.nonzero(), axis, _columns(M, self.dim))
        return Tensor.from_entries(self.params, self.dim, self.rank, acc)

    def trace(self, a: int, b: int, M) -> Tensor:
        acc: dict[tuple[int, ...], Poly] = {}
        for idx, v in self.nonzero():
            weight = M[idx[a]][idx[b]]
            if weight:
                rest = idx[:a] + idx[a + 1:b] + idx[b + 1:]
                _accumulate(acc, rest, v * weight)
        return Tensor.from_entries(self.params, self.dim, self.rank - 2,
                                   acc)

    @property
    def is_zero(self) -> bool:
        return not self.nonzero()

    def evaluate(self, assignment: Mapping[str, RationalLike]) -> Tensor:
        return Tensor.from_entries((), self.dim, self.rank, {
            idx: Poly.constant(v.evaluate(assignment))
            for idx, v in self.nonzero()})

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return (self.rank == other.rank and self.dim == other.dim
                and self.components == other.components)

    def __repr__(self):
        return (f"Tensor(rank={self.rank}, dim={self.dim}, "
                f"{len(self.nonzero())} nonzero components)")


def _accumulate(acc: dict, key: tuple[int, ...], term: Poly) -> None:
    prev = acc.get(key)
    acc[key] = term if prev is None else prev + term


def _columns(M, dim: int) -> list[list]:
    """For each p, the nonzero ``(a, M[a][p])`` of column p."""
    return [[(a, M[a][p]) for a in range(dim) if M[a][p]]
            for p in range(dim)]


def _scatter(acc: dict, entries, axis: int, columns) -> None:
    """Add ``columns[p]`` applied at ``axis`` of every entry into ``acc``:
    an entry at index p there sends ``m * value`` to index a for each
    ``(a, m)`` in ``columns[p]``."""
    for idx, v in entries:
        head, tail = idx[:axis], idx[axis + 1:]
        for a, m in columns[idx[axis]]:
            _accumulate(acc, head + (a,) + tail, v * m)


@dataclass(frozen=True)
class ClassFlags:
    """Membership in each basic class (not mutually exclusive: the
    defining identities all hold vacuously when F = 0)."""

    w0: bool
    w1: bool
    w2: bool
    w3: bool

    def label(self) -> str:
        """Finest class first; the two named classes carry their names."""
        if self.w0:
            return "W0 (Kähler with Norden metric)"
        if self.w1:
            return "W1"
        if self.w2:
            return "W2"
        if self.w3:
            return "W3 (quasi-Kähler with Norden metric)"
        return "none of W0/W1/W2/W3"

    def as_dict(self) -> dict[str, bool]:
        return {"w0": self.w0, "w1": self.w1, "w2": self.w2, "w3": self.w3}


def _cyclic_sum_vanishes(T: Tensor) -> bool:
    """T_ijk + T_jki + T_kij = 0 for all i, j, k.  A nonzero cyclic sum
    has a nonzero term, and the sum is the same for each rotation of the
    triple, so the nonzero components are the only triples to test."""
    c = T.components
    return all(not (c[i][j][k] + c[j][k][i] + c[k][i][j]).terms
               for (i, j, k), _ in T.nonzero())


class AlmostNordenAlgebra:
    """Lie algebra + compatible (g, J) pair, validated at construction.

    ``g`` and ``J`` are constant rational matrices (left-invariant tensor
    fields have constant components in a left-invariant frame).  The
    inverse metric is computed eagerly and cached.
    """

    __slots__ = ("algebra", "g", "J", "g_inv", "_gJ", "_G", "_invariant")

    def __init__(self, algebra: LieAlgebra,
                 g: RationalMatrix | None = None,
                 J: RationalMatrix | None = None):
        dim = algebra.dim
        if dim % 2:
            raise StructureError(
                f"almost complex structure needs even dimension, got {dim}")
        n = dim // 2
        if g is None:
            g = default_metric(n)
        if J is None:
            J = default_J(n)
        if g.nrows != dim or g.ncols != dim:
            raise DimensionMismatchError(
                f"metric is {g.nrows}x{g.ncols}, algebra dimension {dim}")
        if J.nrows != dim or J.ncols != dim:
            raise DimensionMismatchError(
                f"J is {J.nrows}x{J.ncols}, algebra dimension {dim}")
        if not g.is_symmetric:
            raise NonSymmetricMatrixError("metric matrix must be symmetric")
        compat = check_norden(g, J)
        if not compat.ok:
            name, i, j, value = compat.violations[0]
            raise StructureError(
                f"(g, J) is not an almost Norden pair: {name} has entry "
                f"{value} at ({i}, {j})")
        g_inv = g.inverse()  # raises SingularMatrixError if degenerate
        sig = signature(g)
        if sig != (n, n):
            raise StructureError(
                f"Norden metric must have signature ({n}, {n}), got {sig}")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "J", J)
        object.__setattr__(self, "g_inv", g_inv)
        object.__setattr__(self, "_gJ", g @ J)
        object.__setattr__(self, "_G", None)
        object.__setattr__(self, "_invariant", None)

    def __setattr__(self, name, value):
        raise AttributeError("AlmostNordenAlgebra is immutable")

    # -- shape -------------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def n(self) -> int:
        return self.algebra.dim // 2

    @property
    def params(self) -> tuple[str, ...]:
        return self.algebra.params

    # -- metric and J helpers ---------------------------------------------

    def metric(self, x: Vector, y: Vector) -> Poly:
        """g(x, y) for component vectors of Poly."""
        if len(x) != self.dim or len(y) != self.dim:
            raise DimensionMismatchError(
                f"metric arguments must have length {self.dim}")
        acc = Poly.zero(self.params)
        for i, xi in enumerate(x):
            if not xi.terms:
                continue
            for j, yj in enumerate(y):
                coeff = self.g[i][j]
                if coeff and yj.terms:
                    acc = acc + coeff * xi * yj
        return acc

    def j_apply(self, x: Vector) -> Vector:
        """J x, componentwise."""
        return self.J.apply(x)

    def j_basis(self, i: int) -> Vector:
        """J X_i for a 1-based basis index, as a constant Poly vector."""
        return self.j_apply(self.algebra.basis_vector(i))

    def associated_metric(self) -> RationalMatrix:
        """Matrix of g~(x, y) = g(x, Jy); again symmetric and Norden."""
        return self._gJ

    # -- structural checks -------------------------------------------------

    @property
    def G(self) -> Tensor:
        """G_ijk = g([X_i, X_j], X_k): the structure constants with the
        upper index lowered.  Computed once; the invariance check and
        both routes to F read from it."""
        if self._G is None:
            gamma = Tensor(self.params, self.algebra.gamma)
            object.__setattr__(self, "_G", gamma.contract(2, self.g))
        return self._G

    def check_invariant_metric(self) -> CheckResult:
        """g([X_i,X_j],X_k) + g([X_i,X_k],X_j) = 0 over all basis triples.

        Holding exactly, this is the Killing-metric condition that makes
        the connection collapse to half the bracket.  The result is
        cached; it is consulted on every fundamental-tensor build.
        """
        if self._invariant is None:
            G = self.G.components
            violations = []
            for i, j, k in product(range(self.dim), repeat=3):
                residual = G[i][j][k] + G[i][k][j]
                if residual.terms:
                    violations.append((i + 1, j + 1, k + 1, residual))
            object.__setattr__(self, "_invariant",
                               CheckResult(not violations, tuple(violations)))
        return self._invariant

    # -- fundamental tensor ------------------------------------------------

    def tensor_F(self) -> Tensor:
        """All components F_ijk = g((grad_{X_i} J) X_j, X_k).

        With T_ijk = g(grad_{X_i} X_j, X_k) and g(Jx, y) = g(x, Jy) (the
        Norden property),

            F_ijk = T(X_i, J X_j, X_k) - T(X_i, X_j, J X_k).

        With an invariant metric the connection is half the bracket, so
        T = G/2; otherwise T is the Levi-Civita connection lowered with g.
        The two paths agree whenever both apply.  Nothing is cached here:
        :class:`~nordenlab.report.Geometry` owns the reuse of F across
        stages.
        """
        if self.check_invariant_metric().ok:
            return self._f_from(self.G, Fraction(1, 2))
        return self._tensor_f_general()

    def _tensor_f_general(self) -> Tensor:
        from .curvature import levi_civita  # deferred: two-way dependency

        return self._f_from(levi_civita(self).contract(2, self.g), 1)

    def _f_from(self, T: Tensor, factor: RationalLike) -> Tensor:
        """factor * (T(X_i, J X_j, X_k) - T(X_i, X_j, J X_k))."""
        jt = self.J.transpose()
        entries = T.nonzero()
        acc: dict[tuple[int, ...], Poly] = {}
        _scatter(acc, entries, 1, _columns(jt.scale(factor), self.dim))
        _scatter(acc, entries, 2, _columns(jt.scale(-factor), self.dim))
        return Tensor.from_entries(self.params, self.dim, 3, acc)

    # -- Lie form and classification --------------------------------------

    def lie_form(self, F: Tensor) -> Covector:
        """theta_k = g^{ij} F_ijk, the metric trace of F."""
        return F.trace(0, 1, self.g_inv).components

    def classify(self, F: Tensor) -> ClassFlags:
        """Exact membership in the four basic classes.

        * w0: F = 0.
        * w1: F is the pure-trace expression
          (1/4n){g(x,y)θ(z) + g(x,z)θ(y) + g(x,Jy)θ(Jz) + g(x,Jz)θ(Jy)}.
        * w2: cyclic sum of F(x, y, Jz) vanishes and θ = 0.
        * w3: cyclic sum of F(x, y, z) vanishes.

        Identities are checked on all basis triples, which suffices by
        multilinearity.
        """
        comp = F.components
        theta = self.lie_form(F)
        w0 = F.is_zero
        w3 = _cyclic_sum_vanishes(F)
        w2 = (all(t.is_zero for t in theta)
              and _cyclic_sum_vanishes(F.contract(2, self.J.transpose())))

        theta_j = self.J.transpose().apply(theta)  # theta(J X_k) components
        g, gj = self.g, self._gJ
        scale = Fraction(1, 4 * self.n)
        w1 = all(
            not (comp[i][j][k] - (g[i][j] * theta[k] + g[i][k] * theta[j]
                                  + gj[i][j] * theta_j[k]
                                  + gj[i][k] * theta_j[j]) * scale).terms
            for i, j, k in product(range(self.dim), repeat=3))

        return ClassFlags(w0=w0, w1=w1, w2=w2, w3=w3)

    # -- substitution ------------------------------------------------------

    def evaluate(self, assignment: Mapping[str, RationalLike]
                 ) -> AlmostNordenAlgebra:
        """Numeric twin with structure constants evaluated first."""
        return AlmostNordenAlgebra(self.algebra.evaluate(assignment),
                                   self.g, self.J)

    def __eq__(self, other):
        if not isinstance(other, AlmostNordenAlgebra):
            return NotImplemented
        return (self.algebra == other.algebra and self.g == other.g
                and self.J == other.J)

    def __repr__(self):
        return (f"AlmostNordenAlgebra(dim={self.dim}, "
                f"params={self.params})")
