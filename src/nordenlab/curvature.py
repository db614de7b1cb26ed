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
* grad R reduces to the four connection-contraction terms;
* the square norm of grad J is the triple g-contraction of the
  fundamental tensor with itself — zero exactly when the structure is
  isotropic Kähler.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DegeneratePlaneError, DimensionMismatchError
from .lie import Vector, vec_sub
from .linalg import PolyMatrix, rational_rank
from .norden import AlmostNordenAlgebra, Tensor
from .poly import Poly, as_fraction

Array5 = tuple  # 5 levels of nested tuples of Poly


class ConnectionCoeffs:
    """Components of a connection: coeffs[i][j][k] is the X_{k+1}-component
    of grad_{X_{i+1}} X_{j+1} (raw storage 0-based, accessors 1-based)."""

    __slots__ = ("dim", "params", "coeffs")

    def __init__(self, params, coeffs: Sequence[Sequence[Sequence[Poly]]]):
        params = tuple(params)
        grid = tuple(tuple(tuple(row) for row in plane) for plane in coeffs)
        dim = len(grid)
        if any(len(plane) != dim or any(len(row) != dim for row in plane)
               for plane in grid):
            raise DimensionMismatchError(
                "connection coefficients must fill a cube")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "coeffs", grid)

    def __setattr__(self, name, value):
        raise AttributeError("ConnectionCoeffs is immutable")

    def vector(self, i: int, j: int) -> Vector:
        """grad_{X_i} X_j as a component vector (1-based i, j)."""
        for idx in (i, j):
            if not (1 <= idx <= self.dim):
                raise IndexError(f"index {idx} out of range 1..{self.dim}")
        return self.coeffs[i - 1][j - 1]

    def component(self, i: int, j: int, k: int) -> Poly:
        return self.vector(i, j)[k - 1]

    def derive_constant_field(self, i: int, w: Vector) -> Vector:
        """grad_{X_i} w for a constant-coefficient field w = sum w_p X_p."""
        acc = [Poly.zero(self.params)] * self.dim
        plane = self.coeffs[i - 1]
        for p, wp in enumerate(w):
            if not wp.terms:
                continue
            for k, comp in enumerate(plane[p]):
                if comp.terms:
                    acc[k] = acc[k] + wp * comp
        return tuple(acc)

    def derive_in_direction(self, x: Vector, j: int) -> Vector:
        """grad_x X_j — the connection is tensorial in the direction slot."""
        acc = [Poly.zero(self.params)] * self.dim
        for q, xq in enumerate(x):
            if not xq.terms:
                continue
            for k, comp in enumerate(self.coeffs[q][j - 1]):
                if comp.terms:
                    acc[k] = acc[k] + xq * comp
        return tuple(acc)

    def __eq__(self, other):
        if not isinstance(other, ConnectionCoeffs):
            return NotImplemented
        return self.dim == other.dim and self.coeffs == other.coeffs

    def __repr__(self):
        return f"ConnectionCoeffs(dim={self.dim})"


def levi_civita(a: AlmostNordenAlgebra) -> ConnectionCoeffs:
    """The unique torsion-free metric connection, from the Koszul formula.

    For each basis pair (i, j) the covector w_k = g(grad_i X_j, X_k) is
    assembled from three brackets and then raised with the exact inverse
    metric.  When the metric is invariant the result equals half the
    bracket — verified in the tests, not assumed here.
    """
    alg = a.algebra
    dim = a.dim
    basis = [alg.basis_vector(i) for i in range(1, dim + 1)]
    coeffs = []
    for i in range(1, dim + 1):
        plane = []
        for j in range(1, dim + 1):
            w = []
            for k in range(1, dim + 1):
                val = (a.metric(alg.bracket_basis(i, j), basis[k - 1])
                       - a.metric(alg.bracket_basis(j, k), basis[i - 1])
                       + a.metric(alg.bracket_basis(k, i), basis[j - 1]))
                w.append(val / 2)
            # Raise the index: (grad_i X_j)^p = g^{pk} w_k.
            plane.append([
                sum((coeff * w[k] for k, coeff in enumerate(a.g_inv[p])
                     if coeff), Poly.zero(a.params))
                for p in range(dim)
            ])
        coeffs.append(plane)
    return ConnectionCoeffs(a.params, coeffs)


def curvature_R(a: AlmostNordenAlgebra, c: ConnectionCoeffs) -> Tensor:
    """All components R_ijkl = g(R(X_i, X_j)X_k, X_l).

    Computed from the connection by composing covariant derivatives —
    never from the invariant-metric bracket formula, which stays a
    separate routine (:func:`curvature_invariant_formula`) so the two can
    be compared as independent routes.
    """
    alg = a.algebra
    dim = a.dim
    zero = Poly.zero(a.params)
    basis = [alg.basis_vector(i) for i in range(1, dim + 1)]
    comp = [[[[zero for _ in range(dim)] for _ in range(dim)]
             for _ in range(dim)] for _ in range(dim)]
    for i in range(1, dim + 1):
        for j in range(i + 1, dim + 1):
            bij = alg.bracket_basis(i, j)
            for k in range(1, dim + 1):
                vec = vec_sub(
                    vec_sub(c.derive_constant_field(i, c.vector(j, k)),
                            c.derive_constant_field(j, c.vector(i, k))),
                    c.derive_in_direction(bij, k))
                for l in range(1, dim + 1):
                    val = a.metric(vec, basis[l - 1])
                    comp[i - 1][j - 1][k - 1][l - 1] = val
                    comp[j - 1][i - 1][k - 1][l - 1] = -val
    return Tensor(a.params, comp)


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
    dim = a.dim
    rows = []
    for y in range(dim):
        row = []
        for z in range(dim):
            acc = Poly.zero(a.params)
            for i in range(dim):
                for j in range(dim):
                    coeff = a.g_inv[i][j]
                    if coeff:
                        val = R.components[i][y][z][j]
                        if val.terms:
                            acc = acc + coeff * val
            row.append(acc)
        rows.append(row)
    rho = PolyMatrix(a.params, rows)
    tau = Poly.zero(a.params)
    for i in range(dim):
        for j in range(dim):
            coeff = a.g_inv[i][j]
            if coeff and rho.grid[i][j].terms:
                tau = tau + coeff * rho.grid[i][j]
    return rho, tau


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
    # Contract R with (x, y, y, x) one index at a time.
    dim = a.dim
    zero = Poly.zero(a.params)
    numerator = zero
    for i, xi in enumerate(p.x):
        if not xi:
            continue
        for j, yj in enumerate(p.y):
            if not yj:
                continue
            plane_ij = R.components[i][j]
            for k, yk in enumerate(p.y):
                if not yk:
                    continue
                for l, xl in enumerate(p.x):
                    if not xl:
                        continue
                    val = plane_ij[k][l]
                    if val.terms:
                        numerator = numerator + (xi * yj * yk * xl) * val
    return numerator / disc


def nabla_R(a: AlmostNordenAlgebra, c: ConnectionCoeffs, R: Tensor) -> Array5:
    """(grad_{X_i} R)(X_j, X_k, X_l, X_m) for all 1-based index tuples.

    The components of R are constants, so the directional-derivative term
    drops and only the four slot corrections survive:

        -R(grad_i X_j, ., ., .) - R(., grad_i X_k, ., .) - ...

    each a single contraction of R against a connection vector.
    """
    dim = a.dim
    comp = R.components

    def slot_contraction(direction: Vector, fixed: tuple[int, int, int],
                         slot: int) -> Poly:
        acc = Poly.zero(a.params)
        for p, dp in enumerate(direction):
            if not dp.terms:
                continue
            idx = fixed[:slot] + (p,) + fixed[slot:]
            val = comp[idx[0]][idx[1]][idx[2]][idx[3]]
            if val.terms:
                acc = acc + dp * val
        return acc

    out = []
    for i in range(dim):
        plane_i = c.coeffs[i]
        block_i = []
        for j in range(dim):
            block_j = []
            for k in range(dim):
                block_k = []
                for l in range(dim):
                    row = []
                    for m in range(dim):
                        total = -(
                            slot_contraction(plane_i[j], (k, l, m), 0)
                            + slot_contraction(plane_i[k], (j, l, m), 1)
                            + slot_contraction(plane_i[l], (j, k, m), 2)
                            + slot_contraction(plane_i[m], (j, k, l), 3))
                        row.append(total)
                    block_k.append(tuple(row))
                block_j.append(tuple(block_k))
            block_i.append(tuple(block_j))
        out.append(tuple(block_i))
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
    dim = a.dim
    ginv = a.g_inv
    zero = Poly.zero(a.params)

    # Raise all three indices of F one at a time, then contract with F.
    def raise_index(grid, axis):
        out = [[[zero for _ in range(dim)] for _ in range(dim)]
               for _ in range(dim)]
        for t in range(dim):
            for u in range(dim):
                for v in range(dim):
                    acc = zero
                    for s in range(dim):
                        coeff = (ginv[s][t], ginv[s][u],
                                 ginv[s][v])[axis]
                        if not coeff:
                            continue
                        idx = [t, u, v]
                        idx[axis] = s
                        val = grid[idx[0]][idx[1]][idx[2]]
                        if val.terms:
                            acc = acc + coeff * val
                    out[t][u][v] = acc
        return out

    raised = F.components
    for axis in range(3):
        raised = raise_index(raised, axis)
    total = zero
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                u = raised[i][j][k]
                v = F.components[i][j][k]
                if u.terms and v.terms:
                    total = total + u * v
    return total

