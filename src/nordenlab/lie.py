"""Lie algebras presented by structure constants.

An algebra of dimension d stores its structure constants as the rank-3
:class:`~nordenlab.linalg.Tensor` ``gamma`` with

    [X_i, X_j] = sum_k gamma[i, j, k] X_k

(every public index argument — ``jacobiator(1, 2, 3)``,
``structure_constant(i, j, k)``, ``basis_vector(i)`` — is 1-based, matching
the usual X₁..X_{2n} labelling).  Antisymmetry is validated at
construction, never silently repaired: inconsistent input is a
transcription error worth surfacing.

Vectors are plain tuples of :class:`~nordenlab.poly.Poly`, one component
per basis element.
Jacobi's identity is read from one cached rank-4 Jacobiator tensor, a
scatter over pairs of nonzero structure constants.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property
from itertools import groupby
from typing import Iterable, Mapping

from .errors import DimensionMismatchError, ParameterMismatchError, StructureError
from .linalg import PolyMatrix, Tensor
from .poly import Poly, RationalLike, _multiply_accumulate, as_poly
from .record import Frozen, Record

Vector = tuple[Poly, ...]


def format_vector(u: Vector) -> str:
    """Render a component vector as a combination of basis labels,
    e.g. ``"l1*X5 + l2*X6"`` or ``"X2 - X3"``; the zero vector is ``"0"``."""
    parts = []
    for idx, comp in enumerate(u, start=1):
        if comp.is_zero:
            continue
        text = str(comp)
        if len(comp.nums) > 1:
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


class CheckResult(Record):
    """Outcome of an exhaustive identity check.

    ``violations`` holds one entry per failing identity instance, each a
    tuple of the offending 1-based indices followed by the nonzero
    residual (a Poly or a Vector of Poly).
    """

    __slots__ = ("ok", "violations")

    def __init__(self, ok: bool, violations: tuple = ()):
        self._fill(ok, violations)

    def __bool__(self):
        return self.ok


class LieAlgebra(Frozen):
    """Finite-dimensional algebra over exact polynomial scalars.

    Jacobi's identity is *not* assumed; :meth:`check_jacobi` decides it.
    """

    def __init__(self, dim: int, params: Iterable[str], gamma: Tensor):
        """``gamma`` is the rank-3 :class:`~nordenlab.linalg.Tensor` of
        structure constants; :meth:`from_brackets` builds it from
        bracket rows."""
        if dim < 1:
            raise ValueError(f"dimension must be positive, got {dim}")
        params = tuple(params)
        if gamma.dim != dim or gamma.rank != 3:
            raise DimensionMismatchError(
                f"structure constants must fill a {dim}x{dim}x{dim} array")
        if gamma.params != params:
            raise ParameterMismatchError(f"structure constants are over "
                                         f"{gamma.params}, not {params}")
        # A violation has a nonzero side; report the first (i, j, k) with
        # i >= j in lexicographic order.
        broken = [(max(i, j), min(i, j), k)
                  for (i, j, k), v in gamma.nonzero
                  if gamma.at((j, i, k)) != -v]
        if broken:
            i, j, k = min(broken)
            raise StructureError(
                "antisymmetry violated: coefficient of "
                f"X{k + 1} in [X{i + 1},X{j + 1}] is "
                f"{gamma.at((i, j, k))} but in [X{j + 1},X{i + 1}] "
                f"is {gamma.at((j, i, k))}")
        self._set(dim=dim, params=params, gamma=gamma)

    def _args(self):
        return self.dim, self.params, self.gamma

    # -- constructors ------------------------------------------------------

    @classmethod
    def abelian(cls, dim: int, params: Iterable[str] = ()) -> LieAlgebra:
        return cls.from_brackets(dim, params, {})

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
        entries: dict[tuple[int, ...], Poly] = {}
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
                entries[(i - 1, j - 1, k - 1)] = p
                entries[(j - 1, i - 1, k - 1)] = -p
        return cls(dim, params, Tensor(params, dim, 3, entries))

    # -- accessors ---------------------------------------------------------

    def _check_index(self, i: int):
        if not (1 <= i <= self.dim):
            raise IndexError(
                f"basis index {i} out of range 1..{self.dim}")

    def structure_constant(self, i: int, j: int, k: int) -> Poly:
        """Coefficient of X_k in [X_i, X_j] (1-based indices)."""
        for idx in (i, j, k):
            self._check_index(idx)
        return self.gamma.component(i, j, k)

    def basis_vector(self, i: int) -> Vector:
        self._check_index(i)
        zero = Poly.zero(self.params)
        one = Poly.constant(1, self.params)
        return tuple(one if k == i - 1 else zero for k in range(self.dim))

    def bracket_rows(self):
        """Nonzero (i, j, {k: coeff}) rows with i < j, 1-based, sorted."""
        upper = ((idx, p) for idx, p in self.gamma.nonzero if idx[0] < idx[1])
        for (i, j), row in groupby(upper, lambda entry: entry[0][:2]):
            yield i + 1, j + 1, {k + 1: p for (_, _, k), p in row}

    # -- core operations ---------------------------------------------------

    def bracket(self, x: Vector, y: Vector) -> Vector:
        if len(x) != self.dim or len(y) != self.dim:
            raise DimensionMismatchError(
                f"bracket arguments must have length {self.dim}")
        acc = [Poly.zero(self.params)] * self.dim
        for (i, j, k), coeff in self.gamma.nonzero:
            acc[k] = acc[k] + x[i] * y[j] * coeff
        return tuple(acc)

    def bracket_basis(self, i: int, j: int) -> Vector:
        """[X_i, X_j] for 1-based basis indices, without building vectors."""
        self._check_index(i)
        self._check_index(j)
        return self._row(self.gamma, i - 1, j - 1)

    @cached_property
    def jacobiator_tensor(self) -> Tensor:
        """J_ijk^q = sum_p (c_ij^p c_pk^q + c_jk^p c_pi^q + c_ki^p c_pj^q)
        at i < j < k, computed once: one scatter over pairs of nonzero
        structure constants (c_ab^p, c_pc^q), read from ``gamma.flat``,
        each product handed to the batch kernel at the increasing
        rotation of (a, b, c).  Only the pairs that have one are made:
        c_ab^p meets the row of p, sorted by c, at c < a and c > b if
        a < b, and at b < c < a if a > b, found by bisection.  Any other
        triple permutes one of these or repeats an index."""
        entries = self.gamma.nonzero
        den, terms = self.gamma.flat
        by_first = [[] for _ in range(self.dim)]  # p -> (c, q, c_pc^q)
        for ((p, c, q), _), w in zip(entries, terms):
            by_first[p].append((c, q, w))

        def products():
            for ((a, b, p), _), v in zip(entries, terms):
                row = by_first[p]
                if a < b:
                    for c, q, w in row[:bisect_left(row, (a,))]:
                        yield (c, a, b, q), v, w
                    for c, q, w in row[bisect_left(row, (b + 1,)):]:
                        yield (a, b, c, q), v, w
                else:
                    for c, q, w in row[bisect_left(row, (b + 1,)):
                                       bisect_left(row, (a,))]:
                        yield (b, c, a, q), v, w

        return Tensor(self.params, self.dim, 4, _multiply_accumulate(
            {}, products(), den * den, self.gamma.params))

    def jacobiator(self, i: int, j: int, k: int) -> Vector:
        """Cyclic sum [[X_i,X_j],X_k] + [[X_j,X_k],X_i] + [[X_k,X_i],X_j].

        It is antisymmetric: the :attr:`jacobiator_tensor` row of the
        sorted triple times the sign of the permutation, and the row
        stored there is zero when an index repeats."""
        for idx in (i, j, k):
            self._check_index(idx)
        a, b, c = sorted((i, j, k))
        row = self._row(self.jacobiator_tensor, a - 1, b - 1, c - 1)
        if ((i > j) + (j > k) + (i > k)) % 2:
            return tuple(-v for v in row)
        return row

    def _row(self, T: Tensor, *head: int) -> Vector:
        """The components of ``T`` at 0-based ``head + (q,)``, q = 0..dim-1."""
        return tuple(T.at(head + (q,)) for q in range(self.dim))

    def check_jacobi(self) -> CheckResult:
        """Exhaustive Jacobi check over all C(dim, 3) basis triples: one
        violation per triple i < j < k whose row of
        :attr:`jacobiator_tensor` is nonzero, in lexicographic order."""
        J = self.jacobiator_tensor
        triples = dict.fromkeys(idx[:3] for idx, _ in J.nonzero)
        violations = tuple((i + 1, j + 1, k + 1, self._row(J, i, j, k))
                           for i, j, k in triples)
        return CheckResult(not violations, violations)

    def killing_form(self) -> PolyMatrix:
        """B_ij = trace(ad X_i · ad X_j) = sum_{p,q} c_iq^p c_jp^q.

        One scatter over pairs of nonzero structure constants, read from
        ``gamma.flat``: each c_iq^p meets the c_jp^q with the same (p, q)
        and j >= i in the batch kernel, found by bisection in the (p, q)
        row, sorted by j.  B is symmetric for any structure constants
        (a trace is invariant under cycling), so the entries at i > j are
        the mirrored entries at i < j.
        """
        entries = self.gamma.nonzero
        den, terms = self.gamma.flat
        by_pair: dict[tuple[int, int], list] = {}  # (p, q) -> (j, c_jp^q)
        for ((j, p, q), _), w in zip(entries, terms):
            by_pair.setdefault((p, q), []).append((j, w))
        products = (((i, j), v, w) for ((i, q, p), _), v in zip(entries, terms)
                    for row in [by_pair.get((p, q), ())]
                    for j, w in row[bisect_left(row, (i,)):])
        upper = Tensor(self.params, self.dim, 2, _multiply_accumulate(
            {}, products, den * den, self.gamma.params))._entries
        return PolyMatrix(self.params, self.dim, 2, {**upper, **{
            (j, i): v for (i, j), v in upper.items() if i != j}})

    # -- substitution ------------------------------------------------------

    def evaluate(self, assignment: Mapping[str, RationalLike]) -> LieAlgebra:
        """Numeric twin: every structure constant evaluated at ``assignment``.

        The result carries an empty parameter list, so all downstream
        arithmetic runs over plain rationals.
        """
        return LieAlgebra(self.dim, (), self.gamma.evaluate(assignment))

    # -- comparison --------------------------------------------------------

    def __hash__(self):
        return hash((self.dim, self.params, self.gamma.nonzero))

    def __repr__(self):
        nonzero = len(self.gamma.nonzero) // 2  # antisymmetric: half at i < j
        return (f"LieAlgebra(dim={self.dim}, params={self.params}, "
                f"{nonzero} nonzero bracket coefficients)")
