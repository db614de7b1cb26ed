"""Levi-Civita connection and the full curvature apparatus.

All tensor fields here are left-invariant, so their components in the
chosen basis are constants (polynomials in the structure-constant
parameters) and directional derivatives of components vanish.  That makes
every operation a finite exact contraction:

* the connection comes from the Koszul formula
      2 g(grad_x y, z) = g([x,y],z) - g([y,z],x) + g([z,x],y),
  which for an invariant metric collapses to grad_x y = (1/2)[x, y];
* the curvature convention is
      R(x, y)z = grad_x grad_y z - grad_y grad_x z - grad_{[x,y]} z,
      R(x, y, z, u) = g(R(x, y)z, u);
* Ricci and the scalar curvature are g-traces of R;
* sectional curvature of a plane spanned by constant rational vectors is
  R(x,y,y,x) / (g(x,x)g(y,y) - g(x,y)^2);
* grad R is a scatter: each nonzero component of R meets each nonzero
  connection coefficient whose upper index sits in one of its slots;
* the square norm of grad J is the triple g-contraction of the
  fundamental tensor with itself — zero exactly when the structure is
  isotropic Kähler.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DegeneratePlaneError, DimensionMismatchError
from .lie import Vector
from .linalg import PolyMatrix, rational_rank
from .norden import (AlmostNordenAlgebra, Tensor, _accumulate, _columns,
                     _scatter)
from .poly import Poly, as_fraction

Array5 = tuple  # 5 levels of nested tuples of Poly


class ConnectionCoeffs(Tensor):
    """Components of a connection: coeffs[i][j][k] is the X_{k+1}-component
    of grad_{X_{i+1}} X_{j+1} (raw storage 0-based, accessors 1-based)."""

    __slots__ = ()

    @property
    def coeffs(self):
        return self.components

    def vector(self, i: int, j: int) -> Vector:
        """grad_{X_i} X_j as a component vector (1-based i, j)."""
        return tuple(self.component(i, j, k) for k in range(1, self.dim + 1))


def levi_civita(a: AlmostNordenAlgebra) -> ConnectionCoeffs:
    """The unique torsion-free metric connection, from the Koszul formula.

    The lowered coefficients g(grad_i X_j, X_k) are the cyclic sum
    (G_ijk - G_jki + G_kij) / 2 of the lowered structure constants
    G_ijk = g([X_i, X_j], X_k); the upper index is then raised with the
    exact inverse metric.  When the metric is invariant the result equals
    half the bracket — verified in the tests, not assumed here.
    """
    lowered: dict[tuple[int, ...], Poly] = {}
    for (i, j, k), v in a.G.nonzero():
        half = v / 2
        _accumulate(lowered, (i, j, k), half)
        _accumulate(lowered, (k, i, j), -half)
        _accumulate(lowered, (j, k, i), half)
    raised = Tensor.from_entries(a.params, a.dim, 3, lowered).contract(
        2, a.g_inv)
    return ConnectionCoeffs(a.params, raised.components)


def curvature_R(a: AlmostNordenAlgebra, c: ConnectionCoeffs) -> Tensor:
    """All components R_ijkl = g(R(X_i, X_j)X_k, X_l).

    Composed from the nonzero connection coefficients: the upper
    component

        R_ijk^q = sum_p (Gamma_jk^p Gamma_ip^q - Gamma_ik^p Gamma_jp^q
                         - c_ij^p Gamma_pk^q)

    (Gamma the connection, c the structure constants) is scattered pair by
    pair and then lowered with g.  Never computed from the
    invariant-metric bracket formula, which stays a separate routine
    (:func:`curvature_invariant_formula`) so the two can be compared as
    independent routes.
    """
    dim = a.dim
    gamma = c.nonzero()
    by_first = [[] for _ in range(dim)]   # p -> (k, q, Gamma_pk^q)
    by_second = [[] for _ in range(dim)]  # p -> (i, q, Gamma_ip^q)
    for (i, p, q), v in gamma:
        by_first[i].append((p, q, v))
        by_second[p].append((i, q, v))
    upper: dict[tuple[int, ...], Poly] = {}
    for (j, k, p), v in gamma:
        for i, q, w in by_second[p]:
            if i != j:
                term = v * w
                _accumulate(upper, (i, j, k, q), term)
                _accumulate(upper, (j, i, k, q), -term)
    for (i, j, p), v in Tensor(a.params, a.algebra.gamma).nonzero():
        minus_v = -v
        for k, q, w in by_first[p]:
            _accumulate(upper, (i, j, k, q), minus_v * w)
    return Tensor.from_entries(a.params, dim, 4, upper).contract(3, a.g)


def curvature_invariant_formula(a: AlmostNordenAlgebra) -> Tensor:
    """R_ijkl = -(1/4) g([X_i, X_j], [X_k, X_l]).

    Valid only over an invariant (Killing) metric; used as the
    independent second route for curvature, not as a fast path inside
    :func:`curvature_R`.
    """
    alg = a.algebra
    dim = a.dim
    brackets = [[alg.bracket_basis(i, j) for j in range(1, dim + 1)]
                for i in range(1, dim + 1)]
    comp = [[[[(a.metric(brackets[i][j], brackets[k][l])) / -4
               for l in range(dim)] for k in range(dim)]
             for j in range(dim)] for i in range(dim)]
    return Tensor(a.params, comp)


def ricci_and_scalar(a: AlmostNordenAlgebra,
                     R: Tensor) -> tuple[PolyMatrix, Poly]:
    """Ricci matrix rho[y][z] = g^{ij} R_iyzj and scalar tau = g^{ij} rho_ij."""
    rho = R.trace(0, 3, a.g_inv)
    return (PolyMatrix(a.params, rho.components),
            rho.trace(0, 1, a.g_inv).components)


@dataclass(frozen=True)
class PlaneSpec:
    """A 2-plane spanned by two constant rational vectors."""

    x: tuple[Fraction, ...]
    y: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(as_fraction(v) for v in self.x))
        object.__setattr__(self, "y", tuple(as_fraction(v) for v in self.y))
        if len(self.x) != len(self.y):
            raise DimensionMismatchError(
                f"spanning vectors have lengths {len(self.x)} and "
                f"{len(self.y)}")


def coordinate_plane(dim: int, i: int, j: int) -> PlaneSpec:
    """The plane span{X_i, X_j} for 1-based basis indices."""
    for idx in (i, j):
        if not (1 <= idx <= dim):
            raise IndexError(f"index {idx} out of range 1..{dim}")
    if i == j:
        raise ValueError(f"coordinate plane needs two distinct indices, "
                         f"got ({i}, {j})")
    x = tuple(Fraction(int(k == i - 1)) for k in range(dim))
    y = tuple(Fraction(int(k == j - 1)) for k in range(dim))
    return PlaneSpec(x, y)


def _metric_product(a: AlmostNordenAlgebra, u: Sequence[Fraction],
                    v: Sequence[Fraction]) -> Fraction:
    return sum((coeff * u[i] * v[j]
                for i, row in enumerate(a.g.rows)
                for j, coeff in enumerate(row) if coeff),
               Fraction(0))


def plane_discriminant(a: AlmostNordenAlgebra, p: PlaneSpec) -> Fraction:
    """pi_1(x, y, y, x) = g(x,x) g(y,y) - g(x,y)^2 — the denominator of
    sectional curvature; zero exactly for degenerate planes."""
    gxx = _metric_product(a, p.x, p.x)
    gyy = _metric_product(a, p.y, p.y)
    gxy = _metric_product(a, p.x, p.y)
    return gxx * gyy - gxy * gxy


def plane_type(a: AlmostNordenAlgebra, p: PlaneSpec) -> str:
    """One of "holomorphic", "totally_real", "degenerate", "generic".

    * holomorphic: J maps the plane to itself (exact rank test on
      {x, y, Jx, Jy});
    * totally_real: J maps the plane into its g-orthogonal complement
      (the four products g(Ju, v) vanish);
    * degenerate: the discriminant pi_1 vanishes;
    * generic: none of the above.

    The labels are tested in that order, so a plane that is both
    holomorphic and metrically degenerate reports "holomorphic".
    Linearly dependent spanning vectors are an error, not a type.
    """
    if len(p.x) != a.dim:
        raise DimensionMismatchError(
            f"plane vectors have length {len(p.x)}, algebra dimension "
            f"{a.dim}")
    if rational_rank([p.x, p.y]) != 2:
        raise ValueError("spanning vectors are linearly dependent")
    jx = a.J.apply(p.x)
    jy = a.J.apply(p.y)
    if rational_rank([p.x, p.y, jx, jy]) == 2:
        return "holomorphic"
    if all(_metric_product(a, ju, v) == 0
           for ju in (jx, jy) for v in (p.x, p.y)):
        return "totally_real"
    if plane_discriminant(a, p) == 0:
        return "degenerate"
    return "generic"


def sectional_curvature(a: AlmostNordenAlgebra, R: Tensor,
                        p: PlaneSpec) -> Poly:
    """k(span{x, y}) = R(x, y, y, x) / pi_1(x, y, y, x).

    The spanning vectors are rational, so the denominator is an exact
    rational scalar; a zero denominator is the degenerate-plane error,
    never a division attempt.
    """
    if len(p.x) != a.dim:
        raise DimensionMismatchError(
            f"plane vectors have length {len(p.x)}, algebra dimension "
            f"{a.dim}")
    disc = plane_discriminant(a, p)
    if disc == 0:
        raise DegeneratePlaneError(
            "sectional curvature of a degenerate plane (discriminant 0)")

    def outer(v):  # v v^T; coordinate planes make most products zero
        return [[s * t if s and t else 0 for t in v] for s in v]

    return R.trace(0, 3, outer(p.x)).trace(0, 1, outer(p.y)).components / disc


def nabla_R(a: AlmostNordenAlgebra, c: ConnectionCoeffs, R: Tensor) -> Array5:
    """(grad_{X_i} R)(X_j, X_k, X_l, X_m) for all 1-based index tuples.

    The components of R are constants, so the directional-derivative term
    drops and only the four slot corrections survive:

        -R(grad_i X_j, ., ., .) - R(., grad_i X_k, ., .) - ...

    Computed by scatter, one direction i at a time: each nonzero R entry
    meets each negated coefficient -Gamma_ix^p whose upper index p sits in
    one of its four slots, and adds the product at x in that slot.
    """
    entries = R.nonzero()
    out = []
    for plane in c.coeffs:
        columns = _columns([[-v for v in row] for row in plane], a.dim)
        acc: dict[tuple[int, ...], Poly] = {}
        for slot in range(4):
            _scatter(acc, entries, slot, columns)
        out.append(Tensor.from_entries(a.params, a.dim, 4, acc).components)
    return tuple(out)


def is_locally_symmetric(nabla_r: Array5) -> bool:
    """True when every component of grad R is the zero polynomial."""
    return all(v.is_zero
               for block_i in nabla_r for block_j in block_i
               for block_k in block_j for row in block_k for v in row)


def square_norm_nabla_J(a: AlmostNordenAlgebra, F: Tensor) -> Poly:
    """The scalar g^{ij} g^{kl} g^{pq} F_ikp F_jlq.

    Vanishing of this norm with F itself nonzero is only possible over an
    indefinite metric — the isotropic Kähler phenomenon.
    """
    raised = F.contract(0, a.g_inv).contract(1, a.g_inv).contract(2, a.g_inv)
    total = Poly.zero(a.params)
    for (i, j, k), u in raised.nonzero():
        v = F.components[i][j][k]
        if v.terms:
            total = total + u * v
    return total
