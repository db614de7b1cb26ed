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
  each product made once, at i < j and, where Jacobi gives R pair
  symmetry, at k < l, (i, j) <= (k, l) too, where R is then stored
  (T's row of p, sorted by l, is walked at l > k alone there);
  over an invariant metric the independent second route
  R = -(1/4) g([x,y],[z,u]) reads the bracket Gram tensor, never the
  connection;
* Ricci and the scalar curvature are g-traces of R;
* sectional curvature of a plane spanned by constant rational vectors is
  R(x,y,y,x) / (g(x,x)g(y,y) - g(x,y)^2); the report's table of the
  coordinate planes reads R_ijji, g and J directly, and the plane
  routines serve arbitrary planes;
* grad R = 0 by theorem where Jacobi holds and g is ad-skew (Milnor 1976,
  section 7; O'Neill 1983, ch. 11), so the report builds none of it there;
  else its verdict stops at the first nonzero component
  (:func:`nabla_R_witness`); a block is made and stored at j < k, l < m
  and (j, k) <= (l, m) only, once an R stored in full passes its check:
      (grad_i R)_jklm = Q_jklm - Q_kjlm + Q_lmjk - Q_mljk,
      Q_jklm = -sum_x Gamma_ij^x R_xklm;
* the square norm of grad J is the triple g-contraction of the
  fundamental tensor with itself — zero exactly when the structure is
  isotropic Kähler; it is summed in the batch kernel from ``F.flat``,
  building no tensor but the rank-0 result.

Every stage here sums its products in the batch kernel
:func:`~nordenlab.poly._multiply_accumulate`, reading c, T, the
connection and F from the ``flat`` form each tensor computes once and
R's stored entries flattened per call; Ricci, the scalar curvature and
the sectional curvatures weight R by rationals there as constant
operands.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product
from math import lcm
from typing import Iterator, Sequence

from .errors import (DegeneratePlaneError, DimensionMismatchError,
                     StructureError)
from .linalg import (PolyMatrix, RationalMatrix, Tensor, _over, _support,
                     _weighted_sum, rational_rank)
from .norden import AlmostNordenAlgebra
from .poly import (Poly, RationalLike, _first_nonzero, _flatten,
                   _multiply_accumulate, as_fraction)
from .record import Record

Array5 = tuple  # 5 levels of nested tuples of Poly


class ConnectionCoeffs(Tensor):
    """Components of a connection: coeffs[i][j][k] is the X_{k+1}-component
    of grad_{X_{i+1}} X_{j+1} (raw storage 0-based, accessors 1-based)."""

    @property
    def coeffs(self):
        return self.components


#: The members of the orbit of a representative (j, k, l, m) as the
#: positions they read it at, each with 1 where it is negated: the first
#: four alone where (j, k) = (l, m).
_ORBIT = (((0, 1, 2, 3), 0), ((1, 0, 2, 3), 1), ((0, 1, 3, 2), 1),
          ((1, 0, 3, 2), 0), ((2, 3, 0, 1), 0), ((3, 2, 0, 1), 1),
          ((2, 3, 1, 0), 1), ((3, 2, 1, 0), 0))


class _SlotSymmetric(Tensor):
    """A rank-4 tensor with T_jklm = -T_kjlm = -T_jkml = T_lmjk, stored at
    its canonical components j < k, l < m, (j, k) <= (l, m) only.  ``at``
    reads an index at its orbit's representative, negated after an odd
    number of swaps (each negation made once); ``nonzero`` is the full
    row-major view, built on first read; ``trace`` builds only the
    members its weights keep; ``==`` compares full tensors."""

    def at(self, idx: tuple[int, ...]) -> Poly:
        j, k, l, m = idx
        p, q = (j, k) if j < k else (k, j), (l, m) if l < m else (m, l)
        rep = p + q if p <= q else q + p
        if j == k or l == m or rep not in self._entries:
            return self._zero
        return self._minus[rep] if (j > k) != (l > m) else self._entries[rep]

    @cached_property
    def _minus(self) -> dict[tuple[int, ...], Poly]:
        return {rep: -v for rep, v in self._entries.items()}

    def _items(self) -> Iterator[tuple[tuple[int, ...], Poly]]:
        for rep, v in self._entries.items():
            values = v, self._minus[rep]
            for (p, q, r, s), odd in _ORBIT[:4 if rep[:2] == rep[2:] else 8]:
                yield (rep[p], rep[q], rep[r], rep[s]), values[odd]

    def trace(self, a: int, b: int, M: RationalMatrix) -> Tensor:
        """:meth:`Tensor.trace`, reading each member's slots ``a`` and
        ``b`` from its representative and building only the members
        whose weight is nonzero, from the stored entries flattened and
        negated once each."""
        self._check_weights((a, b), M)
        kept = [s for s in range(4) if s not in (a, b)]
        orbit = [(at[a], at[b], at[kept[0]], at[kept[1]], odd)
                 for at, odd in _ORBIT]
        den, terms = _flatten(list(self._entries.values()))
        d, grid = M.operands

        def products():
            for rep, v in zip(self._entries, terms):
                values = v, _scaled(v, -1)
                for p, q, r, s, odd in orbit[:4 if rep[:2] == rep[2:] else 8]:
                    w = grid[rep[p]][rep[q]]
                    if w:
                        yield (rep[r], rep[s]), values[odd], w

        return Tensor(self.params, self.dim, 2, _multiply_accumulate(
            {}, products(), den * d, self.params))

    def __eq__(self, other):
        if isinstance(other, _SlotSymmetric) or not isinstance(other, Tensor):
            return super().__eq__(other)
        size = sum(4 if rep[:2] == rep[2:] else 8 for rep in self._entries)
        return (self.rank == other.rank and self.dim == other.dim
                and len(other._entries) == size and all(
                    self.at(idx) == v for idx, v in other._entries.items()))


def levi_civita(a: AlmostNordenAlgebra) -> ConnectionCoeffs:
    """The unique torsion-free metric connection, from the Koszul formula.

    The lowered coefficients g(grad_i X_j, X_k) are
    :attr:`~nordenlab.norden.AlmostNordenAlgebra.T`, built once per
    algebra; the upper index is raised here with the exact inverse
    metric.  When the metric is invariant the result equals half the
    bracket — verified in the tests, not assumed here.
    """
    raised = a.T.contract(2, a.g_inv)
    return ConnectionCoeffs(a.params, a.dim, 3, raised._entries)


def curvature_R(a: AlmostNordenAlgebra, c: ConnectionCoeffs) -> Tensor:
    """All components R_ijkl = g(R(X_i, X_j)X_k, X_l), in one pass.

    g lowers Gamma_ip^q to the Koszul tensor T_ipl, so R is read from the
    connection and T directly, with no upper-index tensor between:

        R_ijkl = sum_p (Gamma_jk^p T_ipl - Gamma_ik^p T_jpl - c_ij^p T_pkl)

    (Gamma the connection, c the structure constants), with T bucketed
    by its contracted index p.  Each product Gamma_jk^p T_ipl belongs at
    (i, j, k, l) and, negated, at (j, i, k, l); it is made once and
    added at whichever of the two has the smaller first index, and
    c_ij^p T_pkl is made at i < j only (c is antisymmetric, which
    :class:`~nordenlab.lie.LieAlgebra` checks).  As R_ijkl = -R_ijlk,
    and R_ijkl = R_klij where the cached Jacobiator vanishes (first
    Bianchi identity), products are then made at k < l, (i, j) <= (k, l)
    only, and R is stored there alone, read through its symmetries;
    otherwise the i > j half is the negation of the i < j half, and R is
    stored in full.  The products, Gamma's then c's, read ``flat`` forms
    (scaled to one denominator as they are negated) in the batch kernel.
    Never computed from the invariant-metric bracket formula, which stays
    a separate routine (:func:`curvature_invariant_formula`): the two are
    independent routes.
    """
    _over(a, 3, c)
    canonical = a.algebra.jacobiator_tensor.is_zero  # check_jacobi().ok
    streams = (c, _connection_products), (a.algebra.gamma, _bracket_products)
    # both streams add to one set of accumulators, over one denominator
    den = lcm(*(left.flat[0] for left, _ in streams))
    acc: dict[tuple[int, ...], list] = {}
    for left, products in streams:
        (d, terms), (t_den, t_terms) = left.flat, a.T.flat
        _multiply_accumulate(acc, products(
            a.dim, canonical, den // d, zip(left.nonzero, terms),
            zip(a.T.nonzero, t_terms)), den * t_den, a.params)
    if canonical:
        return _SlotSymmetric(a.params, a.dim, 4, acc)
    half = Tensor(a.params, a.dim, 4, acc)._entries  # i < j
    return Tensor(a.params, a.dim, 4, {**half, **{
        (j, i, k, l): -v for (i, j, k, l), v in half.items()}})


def _connection_products(dim, canonical, up, connection, T):
    """Gamma_jk^p T_ipl, Gamma's terms times ``up``, at (i, j, k, l) if
    i < j, negated at (j, i, k, l) if j < i, for T bucketed by p.  If
    ``canonical``, each bucket is sorted by l and a Gamma_jk^p walks only
    its l > k, found by bisection, keeping {i, j} <= (k, l) by comparing
    i and j with k."""
    by_second = [[] for _ in range(dim)]  # p -> (l, i, T_ipl)
    for ((i, p, l), _), w in T:
        by_second[p].append((l, i, w))
    if canonical:
        for row in by_second:
            row.sort()  # (l, i) is unique in a row: w is never compared
    for ((j, k, p), _), v in connection:
        v, minus_v = v if up == 1 else _scaled(v, up), _scaled(v, -up)
        if canonical:
            row = by_second[p]
            for l, i, w in row[bisect_left(row, (k + 1,)):]:
                if i < j:
                    if i < k or i == k and j <= l:
                        yield (i, j, k, l), v, w
                elif j < i and (j < k or j == k and i <= l):
                    yield (j, i, k, l), minus_v, w
            continue
        for l, i, w in by_second[p]:
            pair, u = ((i, j), v) if i < j else ((j, i), minus_v)
            if i != j:
                yield pair + (k, l), u, w


def _bracket_products(dim, canonical, up, bracket, T):
    """-c_ij^p T_pkl, c's terms times ``up``, at (i, j, k, l) for i < j,
    with T bucketed by p (at k < l alone if ``canonical``)."""
    by_first = [[] for _ in range(dim)]  # p -> (k, l, T_pkl)
    for ((p, k, l), _), w in T:
        if not canonical or k < l:
            by_first[p].append((k, l, w))
    for ((i, j, p), _), v in bracket:
        if i > j:
            continue
        minus_v = _scaled(v, -up)
        for k, l, w in by_first[p]:
            if not canonical or (i, j) <= (k, l):
                yield (i, j, k, l), minus_v, w


def _scaled(terms: tuple, factor: int) -> tuple:
    """Flattened terms, times ``factor``."""
    return tuple([(e, n * factor) for e, n in terms])


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
    _over(a, 4, R)
    rho = R.trace(0, 3, a.g_inv)
    return (PolyMatrix(a.params, a.dim, 2, rho._entries),
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


def _metric_product(a: AlmostNordenAlgebra, u: Sequence[Fraction],
                    v: Sequence[Fraction]) -> Fraction:
    """g(u, v) = u . (g v) for rational component vectors."""
    return sum((ui * gv for ui, gv in zip(u, a.g.apply(v))), Fraction(0))


def _discriminant(a: AlmostNordenAlgebra, x: Sequence[Fraction],
                  y: Sequence[Fraction]) -> Fraction:
    """pi_1(x, y, y, x) = g(x,x) g(y,y) - g(x,y)^2, the denominator of
    sectional curvature; zero exactly for degenerate planes."""
    gxy = _metric_product(a, x, y)
    return _metric_product(a, x, x) * _metric_product(a, y, y) - gxy * gxy


def _spanning(a: AlmostNordenAlgebra, p: PlaneSpec) -> tuple[tuple, tuple]:
    """The vectors spanning ``p``, which must have the algebra's
    dimension and be linearly independent."""
    if len(p.x) != a.dim:
        raise DimensionMismatchError(
            f"plane vectors have length {len(p.x)}, algebra dimension "
            f"{a.dim}")
    if rational_rank([p.x, p.y]) != 2:
        raise ValueError("spanning vectors are linearly dependent")
    return p.x, p.y


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
    x, y = _spanning(a, p)
    jx, jy = a.J.apply(x), a.J.apply(y)
    if rational_rank([x, y, jx, jy]) == 2:
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
    never a division attempt; dependent vectors are refused as in
    :func:`plane_type`.  The numerator sum_{ijkl} x_i y_j y_k x_l R_ijkl
    reads R only where x_i, y_j, y_k and x_l are all nonzero.
    """
    _over(a, 4, R)
    x, y = _spanning(a, p)
    disc = _discriminant(a, x, y)
    if disc == 0:
        raise DegeneratePlaneError(
            "sectional curvature of a degenerate plane (discriminant 0)")
    x, y = _support(x), _support(y)
    return _weighted_sum(a.params, a.dim, 0, [
        ((), v, xi * yj * yk * xl)
        for (i, xi), (l, xl) in product(x.items(), repeat=2)
        for (j, yj), (k, yk) in product(y.items(), repeat=2)
        if (v := R.at((i, j, k, l)))]).at(()) / disc


def coordinate_sectional(a: AlmostNordenAlgebra, R: Tensor
                         ) -> tuple[tuple[int, int, str, Poly | None], ...]:
    """(i, j, type, k) for each coordinate plane span{X_i, X_j}, 0-based
    i < j, as :func:`plane_type` and :func:`sectional_curvature` give
    them (k None where g_ii g_jj - g_ij^2 = 0), read from g's rows, J's
    nonzero columns and R_ijji = -R_ijij: J keeps the plane exactly when
    its columns i and j are nonzero in rows i and j only, and
    g(J X_u, X_v) = sum_r J_ru g_rv, multiplied only where g_rv is
    nonzero.
    """
    _over(a, 4, R)
    g, columns = a.g.rows, a.J.nonzero_columns
    table = []
    for i, j in combinations(range(a.dim), 2):
        disc = g[i][i] * g[j][j]
        if g[i][j]:
            disc -= g[i][j] * g[i][j]
        if all(r in (i, j) for r, _ in columns[i] + columns[j]):
            ptype = "holomorphic"
        elif not any(sum(m * g[r][v] for r, m in columns[u] if g[r][v])
                     for u in (i, j) for v in (i, j)):
            ptype = "totally_real"
        else:
            ptype = "generic" if disc else "degenerate"
        k = R.at((i, j, i, j))  # a representative: no negation to read
        table.append((i, j, ptype, (k / -disc if k else k) if disc else None))
    return tuple(table)


def _representatives(R: Tensor) -> list[tuple[tuple[int, ...], Poly]]:
    """R's nonzero components at i < j, k < l, (i, j) <= (k, l), row-major,
    whether R is stored there alone or in full."""
    return sorted(((i, j, k, l), v) for (i, j, k, l), v in R._entries.items()
                  if i < j and k < l and (i, j) <= (k, l))


def _check_slot_symmetries(R: Tensor) -> None:
    """Raise :class:`StructureError` naming the first slot symmetry that
    R breaks, testing all three at every nonzero component, row-major."""
    for (j, k, l, m), v in R.nonzero:
        minus_v = -v
        for partner, value, identity in (
                ((k, j, l, m), minus_v, "R(j,k,l,m) = -R(k,j,l,m)"),
                ((j, k, m, l), minus_v, "R(j,k,l,m) = -R(j,k,m,l)"),
                ((l, m, j, k), v, "R(j,k,l,m) = R(l,m,j,k)")):
            if R.at(partner) != value:
                raise StructureError(
                    f"curvature tensor violates {identity} at (j,k,l,m) = "
                    f"({j + 1}, {k + 1}, {l + 1}, {m + 1})")


def nabla_R_blocks(a: AlmostNordenAlgebra, c: ConnectionCoeffs,
                   R: Tensor) -> Iterator[Tensor]:
    """The rank-4 blocks grad_{X_i} R for i = 1..dim, built one at a time.

    R's components are constants, so only the four slot corrections
    -R(grad_i X_j, ., ., .) - R(., grad_i X_k, ., .) - ... survive; grad_i
    is a derivation, so a block keeps R's slot symmetries and by them the
    four are one contraction read four ways (Q in the module docstring).
    A block is made and stored only at its canonical components, j < k,
    l < m and (j, k) <= (l, m), from the products of :func:`_block_streams`.
    """
    den, blocks = _block_streams(a, c, R)  # c and R checked at the call
    return (_SlotSymmetric(a.params, a.dim, 4, _multiply_accumulate(
        {}, products, den, a.params)) for products in blocks)


def nabla_R_witness(a: AlmostNordenAlgebra, c: ConnectionCoeffs,
                    R: Tensor) -> tuple[int, ...] | None:
    """The 0-based (i, j, k, l, m) of grad R's first nonzero component, in
    block then row-major canonical order, or None: the products of
    :func:`nabla_R_blocks`, each component summed whole, one at a time."""
    den, blocks = _block_streams(a, c, R)
    for i, products in enumerate(blocks):
        key = _first_nonzero(products, den, a.params)
        if key is not None:
            return (i, *key)
    return None


def _block_streams(a: AlmostNordenAlgebra, c: ConnectionCoeffs, R: Tensor):
    """``(den, blocks)``: each grad R block's products over
    ``den``, made lazily.  R's members with l < m, bucketed by first
    index x, are its canonical entries, flattened once: each at
    (j, k, l, m), (l, m, j, k) and, its sign on Gamma's side, at
    (k, j, l, m), (m, l, j, k).  An R stored in full must first pass the
    slot check these placements need, and is then kept at its canonical
    entries alone.  A product -Gamma_ij^x R_xklm, k != j (at k = j its
    two places cancel), is added, negated if k < j, at {j, k} + (l, m)
    and (l, m) + {j, k}, wherever that is canonical."""
    _over(a, 3, c)
    _over(a, 4, R)
    if not isinstance(R, _SlotSymmetric):
        _check_slot_symmetries(R)
        R = _SlotSymmetric(R.params, R.dim, 4, dict(_representatives(R)))
    r_den, r_terms = _flatten(list(R._entries.values()))
    g_den, g_terms = c.flat
    by_first = [[] for _ in range(a.dim)]  # x -> (k, (l, m), v, R_xklm < 0)
    for (j, k, l, m), v in zip(R._entries, r_terms):
        by_first[j].append((k, (l, m), v, 0))
        by_first[k].append((j, (l, m), v, 1))
        if (j, k) != (l, m):
            by_first[l].append((m, (j, k), v, 0))
            by_first[m].append((l, (j, k), v, 1))
    coeffs_of = [[] for _ in range(a.dim)]  # i -> (j, x, (-Gamma_ij^x, Gamma))
    for ((i, j, x), _), g in zip(c.nonzero, g_terms):
        coeffs_of[i].append((j, x, (_scaled(g, -1), g)))
    return r_den * g_den, (
        _block_products(coeffs, by_first) for coeffs in coeffs_of)


def _block_products(coeffs, by_first):
    """The products -Gamma_ij^x R_xklm of one block, k != j, at the
    canonical keys {j, k} + (l, m) and (l, m) + {j, k}."""
    for j, x, signed in coeffs:
        for k, tail, v, odd in by_first[x]:
            if j == k:
                continue
            pair, w = ((j, k), signed[odd]) if j < k else (
                (k, j), signed[1 - odd])
            if pair <= tail:
                yield pair + tail, v, w
            if tail <= pair:
                yield tail + pair, v, w


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
    """The scalar g^{ij} g^{kl} g^{pq} F_ikp F_jlq, summed in the batch
    kernel from ``F.flat``: three passes raise F's slots with g^-1's
    entries as constant operands over D (``g_inv.column_terms``), each
    reading the last one's sums unreduced, and a rank-0 stream multiplies
    the result with F, so the answer is the only Poly built.

    Vanishing of this norm with F itself nonzero is only possible over an
    indefinite metric — the isotropic Kähler phenomenon.
    """
    _over(a, 3, F)
    f_den, terms = F.flat
    d, columns = a.g_inv.column_terms
    own = {idx: v for (idx, _), v in zip(F.nonzero, terms)}
    raised, den = own.items(), f_den
    for axis in range(3):
        den *= d
        acc = _multiply_accumulate({}, (
            (idx[:axis] + (b,) + idx[axis + 1:], w, v)
            for idx, v in raised for b, w in columns[idx[axis]]),
            den, a.params)
        raised = [(idx, nums.items()) for idx, (nums, _) in acc.items()]
    return Tensor(a.params, a.dim, 0, _multiply_accumulate(
        {}, (((), u, own[idx]) for idx, u in raised if idx in own),
        den * f_den, a.params)).at(())
