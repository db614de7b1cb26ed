"""Levi-Civita connection and the full curvature apparatus.

All tensor fields here are left-invariant, so their components in the
chosen basis are constants (polynomials in the structure-constant
parameters) and directional derivatives of components vanish.  That makes
every operation a finite exact contraction:

* the connection is the lowered Koszul tensor
      T(x, y, z) = g(grad_x y, z),
      2 T(x, y, z) = g([x,y],z) - g([y,z],x) + g([z,x],y),
  of :class:`~nordenlab.norden.AlmostNordenAlgebra`, raised with g^-1;
  for an invariant metric it collapses to grad_x y = (1/2)[x, y];
* the curvature convention is
      R(x, y)z = grad_x grad_y z - grad_y grad_x z - grad_{[x,y]} z,
      R(x, y, z, u) = g(R(x, y)z, u),
  read in one pass from the connection and T, never raised or lowered:
      R_ijkl = sum_p (Gamma_jk^p T_ipl - Gamma_ik^p T_jpl - c_ij^p T_pkl),
  each product made once, at i < j, and the i > j half filled by
  negation;
  over an invariant metric the independent second route
  R = -(1/4) g([x,y],[z,u]) reads the bracket Gram tensor, never the
  connection;
* Ricci and the scalar curvature are g-traces of R;
* sectional curvature of a plane spanned by constant rational vectors is
  R(x,y,y,x) / (g(x,x)g(y,y) - g(x,y)^2);
* grad R is built one direction block at a time, at its canonical
  components j < k, l < m, (j, k) <= (l, m) only: R's nonzeros are
  bucketed once by the index in each slot, each nonzero connection
  coefficient visits the bucket of its upper index, and a product is
  made only where it lands on a canonical component.  The rest of each
  block is copied by the slot symmetries R_jklm = -R_kjlm = -R_jkml =
  R_lmjk, which R is checked for first; an R without them raises
  StructureError;
* the square norm of grad J is the triple g-contraction of the
  fundamental tensor with itself — zero exactly when the structure is
  isotropic Kähler.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Iterator, Sequence

from .errors import (DegeneratePlaneError, DimensionMismatchError,
                     StructureError)
from .linalg import PolyMatrix, Tensor, _accumulate, _eliminate, _support
from .norden import AlmostNordenAlgebra
from .poly import Poly, RationalLike, as_fraction
from .record import Record

Array5 = tuple  # 5 levels of nested tuples of Poly


class ConnectionCoeffs(Tensor):
    """Components of a connection: coeffs[i][j][k] is the X_{k+1}-component
    of grad_{X_{i+1}} X_{j+1} (raw storage 0-based, accessors 1-based)."""

    @property
    def coeffs(self):
        return self.components


def levi_civita(a: AlmostNordenAlgebra) -> ConnectionCoeffs:
    """The unique torsion-free metric connection, from the Koszul formula.

    The lowered coefficients g(grad_i X_j, X_k) are
    :attr:`~nordenlab.norden.AlmostNordenAlgebra.T`, built once per
    algebra; the upper index is raised here with the exact inverse
    metric.  When the metric is invariant the result equals half the
    bracket — verified in the tests, not assumed here.
    """
    raised = a.T.contract(2, a.g_inv)
    return ConnectionCoeffs(a.params, a.dim, 3, dict(raised.nonzero))


def curvature_R(a: AlmostNordenAlgebra, c: ConnectionCoeffs) -> Tensor:
    """All components R_ijkl = g(R(X_i, X_j)X_k, X_l), in one pass.

    g lowers Gamma_ip^q to the Koszul tensor T_ipl, so R is read from the
    connection and T directly, with no upper-index tensor between:

        R_ijkl = sum_p (Gamma_jk^p T_ipl - Gamma_ik^p T_jpl - c_ij^p T_pkl)

    (Gamma the connection, c the structure constants), with T bucketed
    by its contracted index p.  Each product Gamma_jk^p T_ipl belongs at
    (i, j, k, l) and, negated, at (j, i, k, l); it is made once and
    added at whichever of the two has the smaller first index, and
    c_ij^p T_pkl is made at i < j only.  The i > j half is then the
    negation of the finished i < j half (c is antisymmetric, which
    :class:`~nordenlab.lie.LieAlgebra` checks).  Never computed from the
    invariant-metric bracket formula, which stays a separate routine
    (:func:`curvature_invariant_formula`) so the two can be compared as
    independent routes.
    """
    by_first = [[] for _ in range(a.dim)]   # p -> (k, l, T_pkl)
    by_second = [[] for _ in range(a.dim)]  # p -> (i, l, T_ipl)
    for (i, p, l), w in a.T.nonzero:
        by_first[i].append((p, l, w))
        by_second[p].append((i, l, w))
    acc: dict[tuple[int, ...], list] = {}
    for (j, k, p), v in c.nonzero:
        minus_v = -v
        for i, l, w in by_second[p]:
            if i < j:
                _accumulate(acc, (i, j, k, l), v, w)
            elif i > j:
                _accumulate(acc, (j, i, k, l), minus_v, w)
    for (i, j, p), v in a.algebra.gamma.nonzero:
        if i < j:
            minus_v = -v
            for k, l, w in by_first[p]:
                _accumulate(acc, (i, j, k, l), minus_v, w)
    half = Tensor(a.params, a.dim, 4, acc).nonzero
    return Tensor(a.params, a.dim, 4, dict(
        half + tuple(((j, i, k, l), -v) for (i, j, k, l), v in half)))


def curvature_invariant_formula(a: AlmostNordenAlgebra) -> Tensor:
    """R_ijkl = -(1/4) g([X_i, X_j], [X_k, X_l]), read from
    :attr:`~nordenlab.norden.AlmostNordenAlgebra.bracket_gram`.

    Valid only over an invariant (Killing) metric; used as the
    independent second route for curvature, not as a fast path inside
    :func:`curvature_R`: it never reads the connection.
    """
    return Tensor(a.params, a.dim, 4, {
        idx: v / -4 for idx, v in a.bracket_gram.nonzero})


def ricci_and_scalar(a: AlmostNordenAlgebra,
                     R: Tensor) -> tuple[PolyMatrix, Poly]:
    """Ricci matrix rho[y][z] = g^{ij} R_iyzj and scalar tau = g^{ij} rho_ij."""
    rho = R.trace(0, 3, a.g_inv)
    return (PolyMatrix(a.params, a.dim, 2, dict(rho.nonzero)),
            rho.trace(0, 1, a.g_inv).at(()))


class PlaneSpec(Record):
    """A 2-plane spanned by two constant rational vectors."""

    __slots__ = ("x", "y")

    def __init__(self, x: Sequence[RationalLike], y: Sequence[RationalLike]):
        x = tuple(as_fraction(v) for v in x)
        y = tuple(as_fraction(v) for v in y)
        if len(x) != len(y):
            raise DimensionMismatchError(
                f"spanning vectors have lengths {len(x)} and {len(y)}")
        self._fill(x, y)


def coordinate_plane(dim: int, i: int, j: int) -> PlaneSpec:
    """The plane span{X_i, X_j} for 1-based basis indices."""
    for idx in (i, j):
        if not (1 <= idx <= dim):
            raise IndexError(f"index {idx} out of range 1..{dim}")
    if i == j:
        raise ValueError(f"coordinate plane needs two distinct indices, "
                         f"got ({i}, {j})")
    zero, one = Fraction(0), Fraction(1)
    return PlaneSpec(tuple(one if k == i - 1 else zero for k in range(dim)),
                     tuple(one if k == j - 1 else zero for k in range(dim)))


def _image(M, u: dict[int, Fraction]) -> dict[int, Fraction]:
    """The nonzero components of M u, visiting only the nonzero u_p and
    the nonzero entries of their columns of M."""
    columns = M.nonzero_columns
    out: dict[int, Fraction] = {}
    for p, up in u.items():
        for a, m in columns[p]:
            out[a] = out.get(a, 0) + m * up
    return {a: v for a, v in out.items() if v}


def _metric_product(a: AlmostNordenAlgebra, u: dict[int, Fraction],
                    v: dict[int, Fraction]) -> Fraction:
    """g(u, v) for vectors given by their nonzero components, visiting
    only the nonzero u_i, v_j and g_ij."""
    rows = a.g.rows
    return sum((rows[i][j] * ui * vj
                for i, ui in u.items() for j, vj in v.items() if rows[i][j]),
               Fraction(0))


def _discriminant(a: AlmostNordenAlgebra, x: dict[int, Fraction],
                  y: dict[int, Fraction]) -> Fraction:
    """pi_1(x, y, y, x) = g(x,x) g(y,y) - g(x,y)^2, the denominator of
    sectional curvature; zero exactly for degenerate planes."""
    gxy = _metric_product(a, x, y)
    return _metric_product(a, x, x) * _metric_product(a, y, y) - gxy * gxy


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
    J is applied, and both rank tests run, on the nonzero components of
    x and y only, so a coordinate plane costs about the nonzero entries
    of two columns of J.
    """
    if len(p.x) != a.dim:
        raise DimensionMismatchError(
            f"plane vectors have length {len(p.x)}, algebra dimension "
            f"{a.dim}")
    x, y = _support(p.x), _support(p.y)
    if len(_eliminate([x, y], a.dim)) != 2:
        raise ValueError("spanning vectors are linearly dependent")
    jx, jy = _image(a.J, x), _image(a.J, y)
    if len(_eliminate([x, y, jx, jy], a.dim)) == 2:
        return "holomorphic"
    if all(_metric_product(a, ju, v) == 0
           for ju in (jx, jy) for v in (x, y)):
        return "totally_real"
    if _discriminant(a, x, y) == 0:
        return "degenerate"
    return "generic"


def sectional_curvature(a: AlmostNordenAlgebra, R: Tensor,
                        p: PlaneSpec) -> Poly:
    """k(span{x, y}) = R(x, y, y, x) / pi_1(x, y, y, x).

    The spanning vectors are rational, so the denominator is an exact
    rational scalar; a zero denominator is the degenerate-plane error,
    never a division attempt.  The numerator sum_{ijkl} x_i y_j y_k x_l
    R_ijkl reads R only where x_i, y_j, y_k and x_l are all nonzero: one
    component for a coordinate plane.
    """
    if len(p.x) != a.dim:
        raise DimensionMismatchError(
            f"plane vectors have length {len(p.x)}, algebra dimension "
            f"{a.dim}")
    x, y = _support(p.x), _support(p.y)
    disc = _discriminant(a, x, y)
    if disc == 0:
        raise DegeneratePlaneError(
            "sectional curvature of a degenerate plane (discriminant 0)")
    acc: dict[tuple[int, ...], list] = {}
    for (i, xi), (l, xl) in product(x.items(), repeat=2):
        for (j, yj), (k, yk) in product(y.items(), repeat=2):
            v = R.at((i, j, k, l))
            if v:
                _accumulate(acc, (), v, xi * yj * yk * xl)
    return Tensor(a.params, a.dim, 0, acc).at(()) / disc


def _check_slot_symmetries(R: Tensor) -> None:
    """Raise :class:`StructureError` naming the first slot symmetry that
    R breaks.  Each symmetry is an involution, so testing it at the
    nonzero components suffices."""
    for (j, k, l, m), v in R.nonzero:
        minus_v = -v
        for partner, value, identity in (
                (R.at((k, j, l, m)), minus_v, "R(j,k,l,m) = -R(k,j,l,m)"),
                (R.at((j, k, m, l)), minus_v, "R(j,k,l,m) = -R(j,k,m,l)"),
                (R.at((l, m, j, k)), v, "R(j,k,l,m) = R(l,m,j,k)")):
            if partner != value:
                raise StructureError(
                    f"curvature tensor violates {identity} at (j,k,l,m) = "
                    f"({j + 1}, {k + 1}, {l + 1}, {m + 1})")


def nabla_R_blocks(a: AlmostNordenAlgebra, c: ConnectionCoeffs,
                   R: Tensor) -> Iterator[Tensor]:
    """The rank-4 blocks grad_{X_i} R for i = 1..dim, built one at a time.

    The components of R are constants, so the directional-derivative term
    drops and only the four slot corrections survive:

        -R(grad_i X_j, ., ., .) - R(., grad_i X_k, ., .) - ...

    grad_i acts as a derivation on every slot, so each block keeps the
    slot symmetries of R: R_jklm = -R_kjlm = -R_jkml = R_lmjk.  A block
    is therefore computed only at its canonical components, j < k,
    l < m and (j, k) <= (l, m).  Before the first block, each nonzero R
    entry goes into the bucket of the index in each of its four slots,
    with the range of x for which the entry with x in that slot is a
    canonical index (none when the pair the slot leaves is not
    increasing).  Each negated coefficient -Gamma_ix^p of direction i
    walks the bucket at p, and a product is made only for the entries
    whose range holds x.  Each canonical value is then copied to
    the rest of its orbit with the signs above.  The copy is only sound
    for an R with those symmetries, so R is checked once, before the
    first block, and a violation raises :class:`StructureError`.
    """
    _check_slot_symmetries(R)
    # p -> (lo, hi, head, tail, R entry): the entry holds p in the slot
    # between head and tail, and head + (x,) + tail is canonical exactly
    # for lo <= x < hi
    dim = a.dim
    bucket = [[] for _ in range(dim)]
    for (j, k, l, n), v in R.nonzero:
        if l < n:
            # (x, k, l, n): x < k and (x, k) <= (l, n)
            bucket[j].append((0, min(k, l + (k <= n)), (), (k, l, n), v))
            if j <= l:  # (j, x, l, n): j < x and (j, x) <= (l, n)
                bucket[k].append((j + 1, dim if j < l else n + 1, (j,),
                                  (l, n), v))
        if j < k:
            # (j, k, x, n): x < n and (j, k) <= (x, n)
            bucket[l].append((j + (k > n), n, (j, k), (n,), v))
            if j <= l:  # (j, k, l, x): l < x and (j, k) <= (l, x)
                bucket[n].append((k if j == l else l + 1, dim, (j, k, l),
                                  (), v))
    coeffs_of = [[] for _ in range(dim)]  # i -> (x, p, -Gamma_ix^p)
    for (i, x, p), v in c.nonzero:
        coeffs_of[i].append((x, p, -v))
    for coeffs in coeffs_of:
        acc: dict[tuple[int, ...], list] = {}
        for x, p, m in coeffs:
            for lo, hi, head, tail, v in bucket[p]:
                if lo <= x < hi:
                    _accumulate(acc, head + (x,) + tail, v, m)
        orbits: dict[tuple[int, ...], Poly] = {}
        for (j, k, l, m), v in Tensor(a.params, dim, 4, acc).nonzero:
            minus_v = -v
            for key, value in (((j, k, l, m), v), ((k, j, l, m), minus_v),
                               ((j, k, m, l), minus_v), ((k, j, m, l), v)):
                orbits[key] = orbits[key[2:] + key[:2]] = value
        yield Tensor(a.params, dim, 4, orbits)


def nabla_R(a: AlmostNordenAlgebra, c: ConnectionCoeffs, R: Tensor) -> Array5:
    """(grad_{X_i} R)(X_j, X_k, X_l, X_m) for all index tuples, as nested
    tuples with raw 0-based storage: every block of :func:`nabla_R_blocks`."""
    return tuple(block.components for block in nabla_R_blocks(a, c, R))


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
    acc: dict[tuple[int, ...], list] = {}
    for idx, u in raised.nonzero:
        v = F.at(idx)
        if v:
            _accumulate(acc, (), u, v)
    return Tensor(a.params, a.dim, 0, acc).at(())
