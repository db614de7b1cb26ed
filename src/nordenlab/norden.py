"""Almost complex structures with Norden metric on a Lie algebra.

The central object pairs a :class:`~nordenlab.lie.LieAlgebra` with two
constant rational matrices: a symmetric metric ``g`` and an almost-complex
structure ``J`` satisfying

    J^2 = -I          and          J^T g J = -g,

i.e. J is an anti-isometry of g (the Norden property), which forces the
neutral signature (n, n).  On top of that live:

* the associated metric  g~(x, y) = g(x, Jy),
* the invariance (Killing) condition  g([x,y],z) + g([x,z],y) = 0,
* the lowered Levi-Civita connection  T(x, y, z) = g(grad_x y, z), from
  the Koszul formula; one formula for every metric, invariant or not,
* the fundamental tensor  F(x, y, z) = g((grad_x J)y, z), read from T,
* the bracket Gram tensor  g([X_i, X_j], [X_k, X_l]), read by the eq22
  check (:func:`check_eq22`) and the invariant-metric curvature formula,
* the Lie form  theta(z) = g^{ij} F(X_i, X_j, z),
* membership tests for the classes W0, W1, W2, W3.

Everything is exact; class membership means the defining identity holds
as a polynomial identity on all basis triples (multilinearity then gives
it for all vectors).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import product
from typing import Mapping

from .errors import DimensionMismatchError, NonSymmetricMatrixError, StructureError
from .lie import CheckResult, LieAlgebra
from .linalg import RationalMatrix, Tensor, _over, _weighted_sum
from .poly import Poly, RationalLike, _first_nonzero, _multiply_accumulate
from .record import Frozen, Record

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
    for name, left, right in (
            ("J^2+I", J @ J, RationalMatrix.diagonal([1] * n)),
            ("J^T*g*J+g", J.transpose() @ g @ J, g)):
        for i in range(n):
            for j in range(n):
                if value := left[i][j] + right[i][j]:
                    violations.append((name, i + 1, j + 1, value))
    return CheckResult(not violations, tuple(violations))


class ClassFlags(Record):
    """Membership in each basic class (not mutually exclusive: the
    defining identities all hold vacuously when F = 0)."""

    __slots__ = ("w0", "w1", "w2", "w3")

    def __init__(self, w0: bool, w1: bool, w2: bool, w3: bool):
        self._fill(w0, w1, w2, w3)

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


def _cyclic_sum_vanishes(F: Tensor, M: RationalMatrix | None = None) -> bool:
    """F'_ijk + F'_jki + F'_kij = 0 for all i, j, k, F' = F or
    ``F.contract(2, M)``, summed in the batch kernel from ``F.flat``: each
    nonzero component, times M's weights at its third slot, goes to the
    sum of its rotation class min((i, j, k), (j, k, i), (k, i, j)), which
    holds F'_iii once (zero iff 3 F'_iii is), class by class up to the
    first left nonzero (:func:`~nordenlab.poly._first_nonzero`)."""
    den, terms = F.flat
    d, columns = (M.column_terms if M is not None else
                  (1, [((p, ((0, 1),)),) for p in range(F.dim)]))
    return _first_nonzero((
        (min((i, j, k), (j, k, i), (k, i, j)), w, v)
        for ((i, j, p), _), v in zip(F.nonzero, terms)
        for k, w in columns[p]), den * d, F.params) is None


class AlmostNordenAlgebra(Frozen):
    """Lie algebra + compatible (g, J) pair, validated at construction.

    ``g`` and ``J`` are constant rational matrices (left-invariant tensor
    fields have constant components in a left-invariant frame).  The
    inverse metric is computed eagerly; every derived tensor is a
    ``cached_property``, built on first read.
    """

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
        for name, M in (("metric", g), ("J", J)):
            if M.nrows != dim or M.ncols != dim:
                raise DimensionMismatchError(
                    f"{name} is {M.nrows}x{M.ncols}, algebra dimension {dim}")
        if not g.is_symmetric:
            raise NonSymmetricMatrixError("metric matrix must be symmetric")
        compat = check_norden(g, J)
        if not compat.ok:
            name, i, j, value = compat.violations[0]
            raise StructureError(
                f"(g, J) is not an almost Norden pair: {name} has entry "
                f"{value} at ({i}, {j})")
        g_inv = g.inverse()  # raises SingularMatrixError if degenerate
        # g needs no inertia test: J is an anti-isometry of g, so it maps
        # positive definite subspaces onto negative definite ones and back;
        # the two indices of the nondegenerate g agree, so both are n.
        self._set(algebra=algebra, g=g, J=J, g_inv=g_inv, _gJ=g @ J)

    def _args(self):
        return self.algebra, self.g, self.J

    __hash__ = None

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

    def associated_metric(self) -> RationalMatrix:
        """Matrix of g~(x, y) = g(x, Jy); again symmetric and Norden."""
        return self._gJ

    # -- structural checks -------------------------------------------------

    @cached_property
    def G(self) -> Tensor:
        """G_ijk = g([X_i, X_j], X_k): the structure constants with the
        upper index lowered.  Computed once; the invariance check and
        the connection :attr:`T` read from it."""
        return self.algebra.gamma.contract(2, self.g)

    @cached_property
    def T(self) -> Tensor:
        """T_ijk = g(grad_{X_i} X_j, X_k), the Levi-Civita connection
        lowered with g: by the Koszul formula the cyclic sum
        (G_ijk - G_jki + G_kij) / 2, one batch-kernel stream from
        ``G.flat`` over twice its denominator, against the constant
        operands 1 and -1.  Computed once; F, the raised
        connection (:func:`~nordenlab.curvature.levi_civita`) and R
        (:func:`~nordenlab.curvature.curvature_R`) read from it.  For an
        invariant metric it equals G / 2."""
        G = self.G
        den, terms = G.flat
        plus, minus = ((0, 1),), ((0, -1),)
        return Tensor(self.params, self.dim, 3, _multiply_accumulate({}, (
            item for ((i, j, k), _), v in zip(G.nonzero, terms)
            for item in (((i, j, k), v, plus), ((k, i, j), v, minus),
                         ((j, k, i), v, plus))), 2 * den, self.params))

    @cached_property
    def bracket_gram(self) -> Tensor:
        """g([X_i, X_j], [X_k, X_l]) = sum_p G_ijp c_kl^p: one scatter of
        the lowered constants :attr:`G` against the structure constants,
        both read flat, each G_ijp meeting every c_kl^p with the same p
        in the batch kernel.  Computed once; :func:`check_eq22` and
        :func:`~nordenlab.curvature.curvature_invariant_formula` read it."""
        G, gamma = self.G, self.algebra.gamma  # both over gamma.params
        (g_den, left), (c_den, right) = G.flat, gamma.flat
        by_target = [[] for _ in range(self.dim)]  # p -> (k, l, c_kl^p)
        for ((k, l, p), _), w in zip(gamma.nonzero, right):
            by_target[p].append((k, l, w))
        return Tensor(self.params, self.dim, 4, _multiply_accumulate({}, (
            ((i, j, k, l), v, w) for ((i, j, p), _), v in zip(G.nonzero, left)
            for k, l, w in by_target[p]), g_den * c_den, gamma.params))

    def check_invariant_metric(self) -> CheckResult:
        """g([X_i,X_j],X_k) + g([X_i,X_k],X_j) = 0 over all basis triples.

        Holding exactly, this is the Killing-metric condition that makes
        the connection collapse to half the bracket, and with Jacobi it
        gives grad R = 0 (Milnor 1976, section 7; O'Neill 1983, ch. 11).
        The result is computed once: ``ok`` is :attr:`_ad_skew`, and
        only a failing check lists its violations.
        """
        return self._invariance

    @cached_property
    def _ad_skew(self) -> bool:
        return next(self._residuals(), None) is None

    @cached_property
    def _invariance(self) -> CheckResult:
        ok = self._ad_skew
        return CheckResult(ok, () if ok else tuple(self._residuals()))

    def _residuals(self):
        """(i, j, k, G_ijk + G_ikj), 1-based, at each nonzero residual in
        order: only a nonzero G_ijk and its (i, k, j) partner can have one."""
        G = self.G
        for i, j, k in sorted({t for (i, j, k), _ in G.nonzero
                               for t in ((i, j, k), (i, k, j))}):
            if residual := G.at((i, j, k)) + G.at((i, k, j)):
                yield i + 1, j + 1, k + 1, residual

    # -- fundamental tensor ------------------------------------------------

    def tensor_F(self) -> Tensor:
        """All components F_ijk = g((grad_{X_i} J) X_j, X_k).

        With g(Jx, y) = g(x, Jy) (the Norden property),

            F_ijk = T(X_i, J X_j, X_k) - T(X_i, X_j, J X_k),

        one batch-kernel stream from ``T.flat``: each component of the
        lowered connection :attr:`T` meets J^T's entries, as constant
        operands (``column_terms``), in its second slot with weight w and
        in its third with -w.  Nothing is cached here:
        :class:`~nordenlab.report.Geometry` owns the reuse of F across
        stages.
        """
        T = self.T
        t_den, terms = T.flat
        d, columns = self.J.transpose().column_terms
        minus = [[(a, ((0, -n),)) for a, ((_, n),) in column]
                 for column in columns]

        def products():
            for ((i, j, k), _), v in zip(T.nonzero, terms):
                for a, w in columns[j]:
                    yield (i, a, k), v, w
                for a, w in minus[k]:
                    yield (i, j, a), v, w

        return Tensor(self.params, self.dim, 3, _multiply_accumulate(
            {}, products(), t_den * d, T.params))

    # -- Lie form and classification --------------------------------------

    def lie_form(self, F: Tensor) -> Covector:
        """theta_k = g^{ij} F_ijk, the metric trace of F."""
        _over(self, 3, F)
        theta = F.trace(0, 1, self.g_inv)
        return tuple(theta.at((k,)) for k in range(self.dim))

    def classify(self, F: Tensor,
                 theta: Covector | None = None) -> ClassFlags:
        """Exact membership in the four basic classes.

        * w0: F = 0.
        * w1: F is the pure-trace expression
          (1/4n){g(x,y)θ(z) + g(x,z)θ(y) + g(x,Jy)θ(Jz) + g(x,Jz)θ(Jy)},
          built as a tensor from the nonzero entries of g, gJ and θ.
        * w2: cyclic sum of F(x, y, Jz) vanishes and θ = 0.
        * w3: cyclic sum of F(x, y, z) vanishes.

        Identities are checked on all basis triples, which suffices by
        multilinearity.  Both cyclic sums are summed in the batch kernel
        from ``F.flat`` (:func:`_cyclic_sum_vanishes`), so w1's is the
        only tensor built here.  ``theta`` is the Lie form of F, computed
        here when the caller does not pass it.
        """
        _over(self, 3, F)
        if theta is None:
            theta = self.lie_form(F)
        jt = self.J.transpose()
        w0 = F.is_zero
        w3 = _cyclic_sum_vanishes(F)
        w2 = all(t.is_zero for t in theta) and _cyclic_sum_vanishes(F, jt)

        theta_j = jt.apply(theta)  # theta(J X_k) components
        scale = Fraction(1, 4 * self.n)
        w1 = F == _weighted_sum(self.params, self.dim, 3, [
            (idx, t, m * scale)
            for M, form in ((self.g, theta), (self._gJ, theta_j))
            for i, row in enumerate(M.rows) for j, m in enumerate(row) if m
            for k, t in enumerate(form) if t
            for idx in ((i, j, k), (i, k, j))])  # M(x,y)θ(z) + M(x,z)θ(y)

        return ClassFlags(w0=w0, w1=w1, w2=w2, w3=w3)

    # -- substitution ------------------------------------------------------

    def evaluate(self, assignment: Mapping[str, RationalLike]
                 ) -> AlmostNordenAlgebra:
        """Numeric twin with structure constants evaluated first."""
        return AlmostNordenAlgebra(self.algebra.evaluate(assignment),
                                   self.g, self.J)

    def __repr__(self):
        return (f"AlmostNordenAlgebra(dim={self.dim}, "
                f"params={self.params})")


def check_eq22(f) -> CheckResult:
    """Commutator orthogonality and isotropy conditions.

    ok iff g([X_i,X_j], [X_k,X_l]) = 0 for every quadruple of pairwise
    distinct indices, and g([X_i, JX_i], [X_i, JX_i]) = 0 for every i —
    each commutator of a basis vector with its J-image is an isotropic
    vector.  Accepts an almost Norden algebra, or the family wrapper
    :class:`~nordenlab.family.Table1Family` that holds one.

    Both read the bracket Gram tensor ``a.bracket_gram``: orthogonality
    is its nonzero components at pairwise distinct quadruples, in
    row-major order, and with J X_i = sum_b J_bi X_b the isotropy
    residual of i is sum_{b,d} J_bi J_di g([X_i,X_b],[X_i,X_d]).
    """
    a = f if isinstance(f, AlmostNordenAlgebra) else f.algebra
    gram = a.bracket_gram
    violations = [("orthogonality", i + 1, j + 1, k + 1, l + 1, residual)
                  for (i, j, k, l), residual in gram.nonzero
                  if len({i, j, k, l}) == 4]
    isotropy = _weighted_sum(a.params, a.dim, 1, [
        ((i,), gram.at((i, b, i, d)), jb * jd)
        for i, column in enumerate(a.J.nonzero_columns)  # J X_i
        for (b, jb), (d, jd) in product(column, repeat=2)]).nonzero
    violations += [("isotropy", i + 1, v) for (i,), v in isotropy]
    return CheckResult(not violations, tuple(violations))
