"""Lie algebras presented by structure constants.

An algebra of dimension d is stored as the dense 3-index array
``gamma[i][j][k]`` of polynomials with

    [X_{i+1}, X_{j+1}] = sum_k gamma[i][j][k] X_{k+1}

(raw storage 0-based; every public index argument — ``jacobiator(1, 2, 3)``,
``structure_constant(i, j, k)``, ``basis_vector(i)`` — is 1-based, matching
the usual X₁..X_{2n} labelling; the translation happens here and nowhere
else).  Antisymmetry is validated at construction, never silently repaired:
inconsistent input is a transcription error worth surfacing.

Vectors are plain tuples of :class:`~nordenlab.poly.Poly`, one component
per basis element.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .errors import DimensionMismatchError, StructureError
from .linalg import PolyMatrix
from .poly import Poly, RationalLike, as_poly

Vector = tuple[Poly, ...]


def zero_vector(dim: int, params: Iterable[str] = ()) -> Vector:
    zero = Poly.zero(params)
    return (zero,) * dim


def vec_add(u: Vector, v: Vector) -> Vector:
    if len(u) != len(v):
        raise DimensionMismatchError(
            f"vector lengths differ: {len(u)} vs {len(v)}")
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u: Vector, v: Vector) -> Vector:
    if len(u) != len(v):
        raise DimensionMismatchError(
            f"vector lengths differ: {len(u)} vs {len(v)}")
    return tuple(a - b for a, b in zip(u, v))


def vec_is_zero(u: Vector) -> bool:
    return all(a.is_zero for a in u)


def format_vector(u: Vector) -> str:
    """Render a component vector as a combination of basis labels,
    e.g. ``"l1*X5 + l2*X6"`` or ``"X2 - X3"``; the zero vector is ``"0"``."""
    parts = []
    for idx, comp in enumerate(u, start=1):
        if comp.is_zero:
            continue
        text = str(comp)
        if len(comp.terms) > 1:
            parts.append(("+", f"({text})*X{idx}"))
            continue
        sign = "-" if text.startswith("-") else "+"
        mag = text.lstrip("-")
        parts.append((sign, f"X{idx}" if mag == "1" else f"{mag}*X{idx}"))
    if not parts:
        return "0"
    sign, body = parts[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


@dataclass(frozen=True)
class CheckResult:
    """Outcome of an exhaustive identity check.

    ``violations`` holds one entry per failing identity instance, each a
    tuple of the offending 1-based indices followed by the nonzero
    residual (a Poly or a Vector of Poly).
    """

    ok: bool
    violations: tuple = ()

    def __bool__(self):
        return self.ok


class LieAlgebra:
    """Finite-dimensional algebra over exact polynomial scalars.

    Jacobi's identity is *not* assumed; :meth:`check_jacobi` decides it.
    """

    __slots__ = ("dim", "params", "gamma", "_pairs")

    def __init__(self, dim: int, params: Iterable[str],
                 gamma: Sequence[Sequence[Sequence[Poly | RationalLike]]]):
        if dim < 1:
            raise ValueError(f"dimension must be positive, got {dim}")
        params = tuple(params)
        grid = tuple(
            tuple(tuple(as_poly(v, params) for v in row) for row in plane)
            for plane in gamma)
        if len(grid) != dim or any(
                len(plane) != dim or any(len(row) != dim for row in plane)
                for plane in grid):
            raise DimensionMismatchError(
                f"structure constants must fill a {dim}x{dim}x{dim} array")
        for i in range(dim):
            for j in range(i + 1):
                for k in range(dim):
                    if grid[i][j][k] != -grid[j][i][k]:
                        raise StructureError(
                            "antisymmetry violated: coefficient of "
                            f"X{k + 1} in [X{i + 1},X{j + 1}] is "
                            f"{grid[i][j][k]} but in [X{j + 1},X{i + 1}] "
                            f"is {grid[j][i][k]}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "gamma", grid)
        # Nonzero bracket rows (i < j), precomputed for bracket evaluation.
        pairs = []
        for i in range(dim):
            for j in range(i + 1, dim):
                targets = tuple(
                    (k, grid[i][j][k]) for k in range(dim)
                    if grid[i][j][k].terms)
                if targets:
                    pairs.append((i, j, targets))
        object.__setattr__(self, "_pairs", tuple(pairs))

    def __setattr__(self, name, value):
        raise AttributeError("LieAlgebra is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def abelian(cls, dim: int, params: Iterable[str] = ()) -> LieAlgebra:
        zero = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
        return cls(dim, params, zero)

    @classmethod
    def from_brackets(
            cls, dim: int, params: Iterable[str],
            brackets: Mapping[tuple[int, int],
                              Mapping[int, Poly | RationalLike]],
    ) -> LieAlgebra:
        """Build from sparse 1-based bracket rows.

        ``brackets[(i, j)][k]`` is the coefficient of X_k in [X_i, X_j];
        only rows with i < j may appear, the antisymmetric mirrors are
        filled in automatically.
        """
        params = tuple(params)
        gamma = [[[Poly.zero(params) for _ in range(dim)]
                  for _ in range(dim)] for _ in range(dim)]
        for (i, j), row in brackets.items():
            if not (1 <= i <= dim and 1 <= j <= dim):
                raise StructureError(
                    f"bracket [X{i},X{j}]: index out of range 1..{dim}")
            if i >= j:
                raise StructureError(
                    f"bracket [X{i},X{j}]: rows must have left index < "
                    f"right index (the mirror is implied)")
            for k, coeff in row.items():
                if not (1 <= k <= dim):
                    raise StructureError(
                        f"bracket [X{i},X{j}]: target X{k} out of range "
                        f"1..{dim}")
                p = as_poly(coeff, params)
                gamma[i - 1][j - 1][k - 1] = p
                gamma[j - 1][i - 1][k - 1] = -p
        return cls(dim, params, gamma)

    # -- accessors ---------------------------------------------------------

    def _check_index(self, i: int):
        if not (1 <= i <= self.dim):
            raise IndexError(
                f"basis index {i} out of range 1..{self.dim}")

    def structure_constant(self, i: int, j: int, k: int) -> Poly:
        """Coefficient of X_k in [X_i, X_j] (1-based indices)."""
        for idx in (i, j, k):
            self._check_index(idx)
        return self.gamma[i - 1][j - 1][k - 1]

    def basis_vector(self, i: int) -> Vector:
        self._check_index(i)
        zero = Poly.zero(self.params)
        one = Poly.constant(1, self.params)
        return tuple(one if k == i - 1 else zero for k in range(self.dim))

    def zero_vector(self) -> Vector:
        return zero_vector(self.dim, self.params)

    def bracket_rows(self):
        """Nonzero (i, j, {k: coeff}) rows with i < j, 1-based, sorted."""
        for i, j, targets in self._pairs:
            yield i + 1, j + 1, {k + 1: p for k, p in targets}

    # -- core operations ---------------------------------------------------

    def bracket(self, x: Vector, y: Vector) -> Vector:
        if len(x) != self.dim or len(y) != self.dim:
            raise DimensionMismatchError(
                f"bracket arguments must have length {self.dim}")
        acc = [Poly.zero(self.params)] * self.dim
        for i, j, targets in self._pairs:
            factor = x[i] * y[j] - x[j] * y[i]
            if not factor:
                continue
            for k, coeff in targets:
                acc[k] = acc[k] + factor * coeff
        return tuple(acc)

    def bracket_basis(self, i: int, j: int) -> Vector:
        """[X_i, X_j] for 1-based basis indices, without building vectors."""
        self._check_index(i)
        self._check_index(j)
        return tuple(self.gamma[i - 1][j - 1])

    def jacobiator(self, i: int, j: int, k: int) -> Vector:
        """Cyclic sum [[X_i,X_j],X_k] + [[X_j,X_k],X_i] + [[X_k,X_i],X_j]."""
        for idx in (i, j, k):
            self._check_index(idx)
        total = self.zero_vector()
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            total = vec_add(
                total, self.bracket(self.bracket_basis(a, b),
                                    self.basis_vector(c)))
        return total

    def check_jacobi(self) -> CheckResult:
        """Exhaustive Jacobi check over all C(dim, 3) basis triples."""
        violations = []
        for i, j, k in combinations(range(1, self.dim + 1), 3):
            residual = self.jacobiator(i, j, k)
            if not vec_is_zero(residual):
                violations.append((i, j, k, residual))
        return CheckResult(not violations, tuple(violations))

    def ad_matrix(self, x: Vector) -> PolyMatrix:
        """Matrix of ad(x) = [x, .]: column j holds [x, X_j]."""
        if len(x) != self.dim:
            raise DimensionMismatchError(
                f"ad argument must have length {self.dim}")
        cols = [self.bracket(x, self.basis_vector(j))
                for j in range(1, self.dim + 1)]
        return PolyMatrix(self.params,
                          [[cols[j][i] for j in range(self.dim)]
                           for i in range(self.dim)])

    def killing_form(self) -> PolyMatrix:
        """B[i][j] = trace(ad X_i · ad X_j), a symmetric matrix of Poly."""
        ads = [self.ad_matrix(self.basis_vector(i))
               for i in range(1, self.dim + 1)]
        n = self.dim
        rows = [[Poly.zero(self.params) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                acc = Poly.zero(self.params)
                for p in range(n):
                    for q in range(n):
                        a = ads[i][p][q]
                        b = ads[j][q][p]
                        if a.terms and b.terms:
                            acc = acc + a * b
                rows[i][j] = acc
                rows[j][i] = acc
        return PolyMatrix(self.params, rows)

    # -- substitution ------------------------------------------------------

    def evaluate(self, assignment: Mapping[str, RationalLike]) -> LieAlgebra:
        """Numeric twin: every structure constant evaluated at ``assignment``.

        The result carries an empty parameter list, so all downstream
        arithmetic runs over plain rationals.
        """
        gamma = [[[Poly.constant(v.evaluate(assignment))
                   for v in row] for row in plane] for plane in self.gamma]
        return LieAlgebra(self.dim, (), gamma)

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, LieAlgebra):
            return NotImplemented
        return (self.dim == other.dim and self.params == other.params
                and self.gamma == other.gamma)

    def __hash__(self):
        return hash((self.dim, self.params, self.gamma))

    def __repr__(self):
        nonzero = sum(len(t) for _, _, t in self._pairs)
        return (f"LieAlgebra(dim={self.dim}, params={self.params}, "
                f"{nonzero} nonzero bracket coefficients)")
