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
from typing import Iterable, Mapping, Sequence

from .errors import DimensionMismatchError, NonSymmetricMatrixError, StructureError
from .lie import CheckResult, LieAlgebra, Vector, vec_sub
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
    0-based storage; ``component`` and item access are 1-based.
    """

    __slots__ = ("dim", "rank", "params", "components")

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

        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "params", tuple(params))
        object.__setattr__(self, "components", freeze(components, rank))

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
        level = self.components
        for _ in range(self.rank - 1):
            level = [sub for node in level for sub in node]
        return list(level)

    @property
    def is_zero(self) -> bool:
        return all(v.is_zero for v in self.values())

    def evaluate(self, assignment: Mapping[str, RationalLike]) -> Tensor:
        def walk(node, depth):
            if depth == 0:
                return Poly.constant(node.evaluate(assignment))
            return [walk(sub, depth - 1) for sub in node]

        return Tensor((), walk(self.components, self.rank))

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return (self.rank == other.rank and self.dim == other.dim
                and self.components == other.components)

    def __repr__(self):
        nonzero = sum(1 for v in self.values() if v.terms)
        return (f"Tensor(rank={self.rank}, dim={self.dim}, "
                f"{nonzero} nonzero components)")


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


class AlmostNordenAlgebra:
    """Lie algebra + compatible (g, J) pair, validated at construction.

    ``g`` and ``J`` are constant rational matrices (left-invariant tensor
    fields have constant components in a left-invariant frame).  The
    inverse metric is computed eagerly and cached.
    """

    __slots__ = ("algebra", "g", "J", "g_inv", "_gJ", "_invariant")

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

    def check_invariant_metric(self) -> CheckResult:
        """g([X_i,X_j],X_k) + g([X_i,X_k],X_j) = 0 over all basis triples.

        Holding exactly, this is the Killing-metric condition that makes
        the connection collapse to half the bracket.  The result is
        cached; it is consulted on every fundamental-tensor build.
        """
        if self._invariant is not None:
            return self._invariant
        alg = self.algebra
        violations = []
        for i in range(1, self.dim + 1):
            for j in range(1, self.dim + 1):
                bij = alg.bracket_basis(i, j)
                for k in range(1, self.dim + 1):
                    residual = (self.metric(bij, alg.basis_vector(k))
                                + self.metric(alg.bracket_basis(i, k),
                                              alg.basis_vector(j)))
                    if residual.terms:
                        violations.append((i, j, k, residual))
        result = CheckResult(not violations, tuple(violations))
        object.__setattr__(self, "_invariant", result)
        return result

    # -- fundamental tensor ------------------------------------------------

    def tensor_F(self) -> Tensor:
        """All components F_ijk = g((grad_{X_i} J) X_j, X_k).

        With an invariant metric the connection is half the bracket and
        the component formula collapses to

            F_ijk = (1/2) [ g([X_i, J X_j], X_k) - g([X_i, X_j], J X_k) ].

        Otherwise the general Levi-Civita connection is computed first
        and F follows from the definition.  The two paths agree whenever
        both apply.  Nothing is cached here: :class:`~nordenlab.report.Geometry`
        owns the reuse of F across stages.
        """
        if self.check_invariant_metric().ok:
            return self._tensor_f_invariant()
        return self._tensor_f_general()

    def _tensor_f_invariant(self) -> Tensor:
        alg = self.algebra
        dim = self.dim
        basis = [alg.basis_vector(i) for i in range(1, dim + 1)]
        jbasis = [self.j_apply(v) for v in basis]
        grid = []
        for i in range(1, dim + 1):
            plane = []
            for j in range(1, dim + 1):
                left = alg.bracket(basis[i - 1], jbasis[j - 1])
                right = alg.bracket_basis(i, j)
                row = []
                for k in range(1, dim + 1):
                    val = (self.metric(left, basis[k - 1])
                           - self.metric(right, jbasis[k - 1])) / 2
                    row.append(val)
                plane.append(row)
            grid.append(plane)
        return Tensor(self.params, grid)

    def _tensor_f_general(self) -> Tensor:
        from .curvature import levi_civita  # deferred: two-way dependency

        conn = levi_civita(self)
        alg = self.algebra
        dim = self.dim
        basis = [alg.basis_vector(i) for i in range(1, dim + 1)]
        grid = []
        for i in range(1, dim + 1):
            plane = []
            for j in range(1, dim + 1):
                # grad_i (J X_j) via constant J coefficients, minus
                # J (grad_i X_j).
                acc = alg.zero_vector()
                for p in range(dim):
                    coeff = self.J[p][j - 1]
                    if coeff:
                        acc = tuple(
                            a + coeff * b
                            for a, b in zip(acc, conn.vector(i, p + 1)))
                acc = vec_sub(acc, self.j_apply(conn.vector(i, j)))
                plane.append([self.metric(acc, basis[k - 1])
                              for k in range(1, dim + 1)])
            grid.append(plane)
        return Tensor(self.params, grid)

    # -- Lie form and classification --------------------------------------

    def lie_form(self, F: Tensor) -> Covector:
        """theta_k = g^{ij} F_ijk, the metric trace of F."""
        dim = self.dim
        out = []
        for k in range(dim):
            acc = Poly.zero(self.params)
            for i in range(dim):
                for j in range(dim):
                    coeff = self.g_inv[i][j]
                    if coeff and F.components[i][j][k].terms:
                        acc = acc + coeff * F.components[i][j][k]
            out.append(acc)
        return tuple(out)

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
        dim = self.dim
        comp = F.components
        theta = self.lie_form(F)
        theta_is_zero = all(t.is_zero for t in theta)

        w0 = F.is_zero

        w3 = True
        for i in range(dim):
            for j in range(dim):
                for k in range(dim):
                    s = comp[i][j][k] + comp[j][k][i] + comp[k][i][j]
                    if s.terms:
                        w3 = False
                        break
                if not w3:
                    break
            if not w3:
                break

        # F(x, y, Jz) contracted against the constant J matrix.
        def f_with_j(i: int, j: int, k: int) -> Poly:
            acc = Poly.zero(self.params)
            for p in range(dim):
                coeff = self.J[p][k]
                if coeff and comp[i][j][p].terms:
                    acc = acc + coeff * comp[i][j][p]
            return acc

        w2 = theta_is_zero
        if w2:
            for i in range(dim):
                for j in range(dim):
                    for k in range(dim):
                        s = (f_with_j(i, j, k) + f_with_j(j, k, i)
                             + f_with_j(k, i, j))
                        if s.terms:
                            w2 = False
                            break
                    if not w2:
                        break
                if not w2:
                    break

        theta_j = self.J.transpose().apply(theta)  # theta(J X_k) components
        gj = self._gJ
        scale = Fraction(1, 4 * self.n)
        w1 = True
        for i in range(dim):
            for j in range(dim):
                for k in range(dim):
                    expected = (self.g[i][j] * theta[k]
                                + self.g[i][k] * theta[j]
                                + gj[i][j] * theta_j[k]
                                + gj[i][k] * theta_j[j]) * scale
                    if (comp[i][j][k] - expected).terms:
                        w1 = False
                        break
                if not w1:
                    break
            if not w1:
                break

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
