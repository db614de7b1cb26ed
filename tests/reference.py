"""Dense reference implementations, kept as test oracles only.

These are the loop nests the library used before its contractions became
scatters over nonzero components: every index tuple is visited, zero or
not.  The tests require the library to reproduce them component for
component.  ``derive_constant_field`` and ``derive_in_direction`` are the
connection methods the dense curvature loop was written against.
``killing_form`` is the adjoint-matrix loop over the dense rows of each
ad matrix (``ad_matrix``).

``levi_civita``, ``tensor_f_invariant`` and ``tensor_f_general`` are the
two routes to F the library chose between at run time, before F read one
lowered Koszul tensor: G/2 for an invariant metric, and otherwise the
Levi-Civita connection lowered again with g.  They, ``contract`` and
``lowered_constants`` sum plain ``Poly`` products, never the library's kernel or
``Tensor.contract``.

``naive_sum`` is the oracle of the batch kernel
(``poly._multiply_accumulate``, with the ``Tensor`` constructor), a
rational weight included: it multiplies term by term on named exponents
and builds its one result through the validating ``Poly(...)``
constructor, never through a ring operation.
``format_terms`` is ``format_poly`` written against the tuple-keyed
``terms`` view, sorting exponent tuples rather than packed keys.
``rebased`` is the change of basis the dense and basis-change tests
apply to an algebra, and ``many_term_spec`` the seeded many-term
filiform chain they and the CLI goldens read; ``worst_spec`` is that
chain at every spec limit, the largest input a spec file may give.

``jacobiator``, ``check_jacobi``, ``check_eq22`` and
``curvature_invariant_formula`` are the per-tuple loops the structure
checks ran before they read the cached Jacobiator and bracket Gram
tensors: each tuple builds dense bracket vectors and calls ``metric``.
They are the library's loops, except that the vector helpers they used
(``vec_add``, ``vec_is_zero``, ``zero_vector``, ``j_basis``) are written
out inline.  ``check_invariant_metric`` is the per-triple loop over
every (i, j, k) that the invariance check ran before it walked the
nonzero lowered constants.

``plane_type`` is the plane classifier written against dense rows: J
applied to whole vectors, and two row reductions of full rows
(``dense_rank``).

``sectional_curvature`` reads R(x, y, y, x) from a dense R grid by
ring operations, with the discriminant from ``metric_product``.

``check_slot_symmetries`` is the guard ``nabla_R_blocks`` runs on an R
stored in full, written against ``at``: all three slot symmetries
tested at every nonzero component of R.

``gauss_jordan`` is the dense elimination ``RationalMatrix`` ran on full
rows, swapping rows to pivot column by column, before inverse,
determinant and rank shared one sparse routine; ``dense_solve`` reads
the inverse, determinant, rank and first pivot-free column from it.

The ``*_grid`` functions build dense nested lists, zeros included, by
loops that never call a library contraction: the lowered connection
from ``metric`` and ``bracket_basis``, then Gamma, F, Ricci and the
bracket Gram tensor.  ``square_norm_nabla_J`` contracts the F grid
with three inverse metrics over every index tuple, and ``classify``
tests the four class identities on it at every index triple.
``dense_at`` reads one of their entries, so a sparse tensor can be
compared with them at every index, and ``from_grid`` builds a tensor
from one.  ``vec_sub``, ``metric``,
``connection_vector`` and ``ad_matrix`` are the component-vector
helpers these loops use.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product

from nordenlab import (
    AlmostNordenAlgebra,
    CheckResult,
    ConnectionCoeffs,
    LieAlgebra,
    Poly,
    PolyMatrix,
    Tensor,
)
from nordenlab.errors import (DegeneratePlaneError, ParameterMismatchError,
                              StructureError)
from nordenlab.lie import Vector
from nordenlab.linalg import RationalMatrix
from nordenlab.specfile import MAX_DEGREE, MAX_TERMS

Array5 = tuple  # 5 levels of nested tuples of Poly


def grid(dim: int, rank: int, f, prefix: tuple = ()):
    """Nested lists of ``f(idx)`` over every 0-based index tuple."""
    if len(prefix) == rank:
        return f(prefix)
    return [grid(dim, rank, f, prefix + (i,)) for i in range(dim)]


def dense_at(dense, idx: tuple):
    """The entry of nested sequences ``dense`` at a 0-based index."""
    for i in idx:
        dense = dense[i]
    return dense


def from_grid(params, dense, cls=Tensor):
    """The tensor of class ``cls`` whose components are the nested
    sequences ``dense``, one nesting level per index."""
    rank, probe = 0, dense
    while not isinstance(probe, Poly):
        rank, probe = rank + 1, probe[0]
    return cls(params, len(dense), rank, {
        idx: dense_at(dense, idx)
        for idx in product(range(len(dense)), repeat=rank)})


def vec_sub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def metric(a: AlmostNordenAlgebra, x: Vector, y: Vector) -> Poly:
    """g(x, y) for component vectors of Poly."""
    acc = Poly.zero(a.params)
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, yj in enumerate(y):
            coeff = a.g[i][j]
            if coeff and yj:
                acc = acc + coeff * xi * yj
    return acc


def connection_vector(c: ConnectionCoeffs, i: int, j: int) -> Vector:
    """grad_{X_i} X_j as a component vector (1-based i, j)."""
    return tuple(c.component(i, j, k) for k in range(1, c.dim + 1))


def ad_matrix(alg: LieAlgebra, x: Vector) -> list:
    """Dense rows of ad(x) = [x, .]: column j holds [x, X_j]."""
    cols = [alg.bracket(x, alg.basis_vector(j))
            for j in range(1, alg.dim + 1)]
    return [[cols[j][i] for j in range(alg.dim)] for i in range(alg.dim)]


def derive_constant_field(c, i: int, w: Vector) -> Vector:
    """grad_{X_i} w for a constant-coefficient field w = sum w_p X_p."""
    acc = [Poly.zero(c.params)] * c.dim
    plane = c.coeffs[i - 1]
    for p, wp in enumerate(w):
        if not wp.terms:
            continue
        for k, comp in enumerate(plane[p]):
            if comp.terms:
                acc[k] = acc[k] + wp * comp
    return tuple(acc)


def derive_in_direction(c, x: Vector, j: int) -> Vector:
    """grad_x X_j — the connection is tensorial in the direction slot."""
    acc = [Poly.zero(c.params)] * c.dim
    for q, xq in enumerate(x):
        if not xq.terms:
            continue
        for k, comp in enumerate(c.coeffs[q][j - 1]):
            if comp.terms:
                acc[k] = acc[k] + xq * comp
    return tuple(acc)


def curvature_R(a: AlmostNordenAlgebra, c: ConnectionCoeffs) -> Tensor:
    """All components R_ijkl = g(R(X_i, X_j)X_k, X_l).

    Computed from the connection by composing covariant derivatives —
    never from the invariant-metric bracket formula, which stays a
    separate routine (:func:`curvature_invariant_formula`) so the two can
    be compared as independent routes.
    """
    return from_grid(a.params, curvature_R_grid(a, c))


def curvature_R_grid(a: AlmostNordenAlgebra, c: ConnectionCoeffs) -> list:
    """The dense components of :func:`curvature_R`."""
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
                    vec_sub(derive_constant_field(
                                c, i, connection_vector(c, j, k)),
                            derive_constant_field(
                                c, j, connection_vector(c, i, k))),
                    derive_in_direction(c, bij, k))
                for l in range(1, dim + 1):
                    val = metric(a, vec, basis[l - 1])
                    comp[i - 1][j - 1][k - 1][l - 1] = val
                    comp[j - 1][i - 1][k - 1][l - 1] = -val
    return comp


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


def check_slot_symmetries(R: Tensor) -> None:
    """Raise :class:`StructureError` naming the first slot symmetry that
    R breaks, comparing all three at every nonzero component."""
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


def killing_form(self: LieAlgebra) -> PolyMatrix:
    """B[i][j] = trace(ad X_i · ad X_j), a symmetric matrix of Poly."""
    return from_grid(self.params, killing_form_grid(self), PolyMatrix)


def killing_form_grid(self: LieAlgebra) -> list:
    """The dense rows of :func:`killing_form`."""
    ads = [ad_matrix(self, self.basis_vector(i))
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
    return rows


def contract(T: Tensor, axis: int, M: RationalMatrix) -> Tensor:
    """T'[.., a, ..] = sum_p M[a][p] T[.., p, ..], by Poly sums."""
    acc: dict[tuple[int, ...], Poly] = {}
    for idx, v in T.nonzero:
        for a in range(T.dim):
            m = M[a][idx[axis]]
            if m:
                key = idx[:axis] + (a,) + idx[axis + 1:]
                acc[key] = acc.get(key, Poly.zero(T.params)) + v * m
    return Tensor(T.params, T.dim, T.rank, acc)


def lowered_constants(a: AlmostNordenAlgebra) -> Tensor:
    """G_ijk = g([X_i, X_j], X_k), by :func:`contract`."""
    return contract(a.algebra.gamma, 2, a.g)


def levi_civita(a: AlmostNordenAlgebra) -> ConnectionCoeffs:
    """The unique torsion-free metric connection, from the Koszul formula.

    The lowered coefficients g(grad_i X_j, X_k) are the cyclic sum
    (G_ijk - G_jki + G_kij) / 2 of the lowered structure constants
    G_ijk = g([X_i, X_j], X_k); the upper index is then raised with the
    exact inverse metric.
    """
    lowered: dict[tuple[int, ...], Poly] = {}
    for (i, j, k), v in lowered_constants(a).nonzero:
        half = v / 2
        for key, term in (((i, j, k), half), ((k, i, j), -half),
                          ((j, k, i), half)):
            lowered[key] = lowered.get(key, Poly.zero(a.params)) + term
    raised = contract(Tensor(a.params, a.dim, 3, lowered), 2, a.g_inv)
    return from_grid(a.params, raised.components, ConnectionCoeffs)


def f_from(a: AlmostNordenAlgebra, T: Tensor, factor) -> Tensor:
    """factor * (T(X_i, J X_j, X_k) - T(X_i, X_j, J X_k))."""
    jt = a.J.transpose()
    left, right = contract(T, 1, jt), contract(T, 2, jt)
    return Tensor(a.params, a.dim, 3, {
        idx: (left.at(idx) - right.at(idx)) * factor
        for idx in product(range(a.dim), repeat=3)})


def tensor_f_invariant(a: AlmostNordenAlgebra) -> Tensor:
    """F from half the lowered bracket; valid for an invariant metric."""
    return f_from(a, lowered_constants(a), Fraction(1, 2))


def tensor_f_general(a: AlmostNordenAlgebra) -> Tensor:
    """F from the Levi-Civita connection lowered with g."""
    return f_from(a, contract(levi_civita(a), 2, a.g), 1)


def naive_sum(params, pairs) -> Poly:
    """sum of v * m over ``pairs`` of a Poly v and a Poly or rational m,
    as one Poly over ``params``."""
    coeffs: dict[tuple[int, ...], Fraction] = {}
    for v, m in pairs:
        if not isinstance(m, Poly):
            m = Poly((), {(): m})
        for e1, c1 in v.terms.items():
            for e2, c2 in m.terms.items():
                powers = Counter()
                for name, e in zip(v.params + m.params, e1 + e2):
                    powers[name] += e
                if set(+powers) - set(params):
                    raise ParameterMismatchError(
                        f"{sorted(+powers)} not all in {params}")
                expo = tuple(powers[name] for name in params)
                coeffs[expo] = coeffs.get(expo, 0) + c1 * c2
    return Poly(params, coeffs)


def format_terms(p: Poly) -> str:
    """The canonical text of ``p``, terms in descending lexicographic
    order of their exponent tuples."""
    pieces = []
    for expo in sorted(p.terms, reverse=True):
        coeff = p.terms[expo]
        factors = [name if e == 1 else f"{name}^{e}"
                   for name, e in zip(p.params, expo) if e]
        text = str(abs(coeff))
        if text != "1" or not factors:
            factors.insert(0, text)
        pieces.append(("-" if coeff < 0 else "+", "*".join(factors)))
    if not pieces:
        return "0"
    out = ("-" if pieces[0][0] == "-" else "") + pieces[0][1]
    return out + "".join(f" {sign} {body}" for sign, body in pieces[1:])


def many_term_spec(dim: int, n: int, rng: random.Random) -> str:
    """The filiform chain [X1, Xk] = p_k X(k+1), k = 2..dim-1, where each
    p_k has ``n`` distinct terms in a, b and c, exponents 0..5 and
    coefficients 1..9, drawn from ``rng`` and written by the tuple-sorted
    reference formatter."""
    def exponents():
        return tuple(rng.randint(0, 5) for _ in range(3))
    return _chain_spec(dim, ("a", "b", "c"), n, exponents, rng)


def worst_spec(dim: int, rng: random.Random) -> str:
    """The chain of :func:`many_term_spec` at the spec limits: p_k in
    six parameters a..f, with ``MAX_TERMS`` distinct terms, each of total
    degree ``MAX_DEGREE``."""
    def exponents():
        cuts = sorted(rng.randint(0, MAX_DEGREE) for _ in range(5))
        return tuple(b - a for a, b in zip((0, *cuts), (*cuts, MAX_DEGREE)))
    return _chain_spec(dim, tuple("abcdef"), MAX_TERMS, exponents, rng)


def _chain_spec(dim: int, params: tuple, n: int, exponents,
                rng: random.Random) -> str:
    """The spec text of [X1, Xk] = p_k X(k+1), k = 2..dim-1, each p_k
    with ``n`` distinct exponent vectors drawn by ``exponents`` and
    coefficients 1..9 drawn from ``rng``."""
    lines = [f"dimension = {dim}", f"parameters = {', '.join(params)}", "",
             "[brackets]"]
    for k in range(2, dim):
        expos = set()
        while len(expos) < n:
            expos.add(exponents())
        p = Poly(params, {e: rng.randint(1, 9) for e in sorted(expos)})
        lines.append(f"1 {k} -> {k + 1}: {format_terms(p)}")
    return "\n".join(lines) + "\n"


def rebased(a: AlmostNordenAlgebra, P: RationalMatrix) -> AlmostNordenAlgebra:
    """``a`` written in the basis E_b = sum_i P[i][b] X_i: the brackets,
    g' = P^T g P and J' = P^-1 J P."""
    dim, params = a.dim, a.params
    P_inv = P.inverse()
    columns = [tuple(Poly.constant(P[i][b], params) for i in range(dim))
               for b in range(dim)]
    brackets = {(x + 1, y + 1): dict(enumerate(
                    P_inv.apply(a.algebra.bracket(columns[x], columns[y])),
                    start=1))
                for x in range(dim) for y in range(x + 1, dim)}
    lie = LieAlgebra.from_brackets(dim, params, brackets)
    return AlmostNordenAlgebra(lie, P.transpose() @ a.g @ P,
                               P_inv @ a.J @ P)


def jacobiator(alg: LieAlgebra, i: int, j: int, k: int) -> Vector:
    """Cyclic sum [[X_i,X_j],X_k] + [[X_j,X_k],X_i] + [[X_k,X_i],X_j]."""
    total = (Poly.zero(alg.params),) * alg.dim
    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
        term = alg.bracket(alg.bracket_basis(a, b), alg.basis_vector(c))
        total = tuple(s + t for s, t in zip(total, term))
    return total


def check_jacobi(alg: LieAlgebra) -> CheckResult:
    """Exhaustive Jacobi check over all C(dim, 3) basis triples."""
    violations = []
    for i, j, k in combinations(range(1, alg.dim + 1), 3):
        residual = jacobiator(alg, i, j, k)
        if not all(c.is_zero for c in residual):
            violations.append((i, j, k, residual))
    return CheckResult(not violations, tuple(violations))


def check_eq22(a: AlmostNordenAlgebra) -> CheckResult:
    """Commutator orthogonality and isotropy conditions."""
    alg = a.algebra
    dim = a.dim
    violations = []
    for i, j, k, l in permutations(range(1, dim + 1), 4):
        residual = metric(a, alg.bracket_basis(i, j),
                          alg.bracket_basis(k, l))
        if residual.terms:
            violations.append(("orthogonality", i, j, k, l, residual))
    for i in range(1, dim + 1):
        v = alg.bracket(alg.basis_vector(i), a.J.apply(alg.basis_vector(i)))
        residual = metric(a, v, v)
        if residual.terms:
            violations.append(("isotropy", i, residual))
    return CheckResult(not violations, tuple(violations))


def curvature_invariant_formula(a: AlmostNordenAlgebra) -> Tensor:
    """R_ijkl = -(1/4) g([X_i, X_j], [X_k, X_l])."""
    gram = bracket_gram_grid(a)
    return from_grid(a.params, grid(a.dim, 4,
                                    lambda idx: dense_at(gram, idx) / -4))


def bracket_gram_grid(a: AlmostNordenAlgebra) -> list:
    """g([X_i, X_j], [X_k, X_l]) at every 0-based (i, j, k, l)."""
    alg = a.algebra
    brackets = [[alg.bracket_basis(i, j) for j in range(1, a.dim + 1)]
                for i in range(1, a.dim + 1)]
    return grid(a.dim, 4, lambda idx: metric(a, brackets[idx[0]][idx[1]],
                                             brackets[idx[2]][idx[3]]))


def check_invariant_metric(a: AlmostNordenAlgebra) -> CheckResult:
    """g([X_i,X_j],X_k) + g([X_i,X_k],X_j) = 0 over all basis triples."""
    G = a.G
    violations = []
    for i, j, k in product(range(1, a.dim + 1), repeat=3):
        residual = G.component(i, j, k) + G.component(i, k, j)
        if residual.terms:
            violations.append((i, j, k, residual))
    return CheckResult(not violations, tuple(violations))


def lowered_connection_grid(a: AlmostNordenAlgebra) -> list:
    """T_ijk = g(grad_{X_i} X_j, X_k) by the Koszul formula
    (G_ijk - G_jki + G_kij) / 2, with G_ijk = g([X_i, X_j], X_k) from
    ``metric``."""
    alg = a.algebra
    basis = [alg.basis_vector(i) for i in range(1, a.dim + 1)]
    G = grid(a.dim, 3, lambda idx: metric(
        a, alg.bracket_basis(idx[0] + 1, idx[1] + 1), basis[idx[2]]))
    return grid(a.dim, 3, lambda idx: (
        G[idx[0]][idx[1]][idx[2]] - G[idx[1]][idx[2]][idx[0]]
        + G[idx[2]][idx[0]][idx[1]]) / 2)


def connection_grid(a: AlmostNordenAlgebra) -> list:
    """Gamma_ij^k = sum_l g^{kl} T_ijl."""
    T = lowered_connection_grid(a)
    zero = Poly.zero(a.params)

    def gamma(idx):
        i, j, k = idx
        return sum((T[i][j][l] * a.g_inv[k][l] for l in range(a.dim)
                    if a.g_inv[k][l]), zero)
    return grid(a.dim, 3, gamma)


def tensor_f_grid(a: AlmostNordenAlgebra) -> list:
    """F_ijk = T(X_i, J X_j, X_k) - T(X_i, X_j, J X_k), with
    J X_j = sum_b J_bj X_b."""
    T = lowered_connection_grid(a)
    zero = Poly.zero(a.params)

    def f(idx):
        i, j, k = idx
        return sum((T[i][b][k] * a.J[b][j] - T[i][j][b] * a.J[b][k]
                    for b in range(a.dim)), zero)
    return grid(a.dim, 3, f)


def square_norm_nabla_J(a: AlmostNordenAlgebra) -> Poly:
    """g^ij g^kl g^pq F_ikp F_jlq, summed over every index tuple of the
    dense F grid by ring operations."""
    F, g_inv = tensor_f_grid(a), a.g_inv
    total = Poly.zero(a.params)
    for i, j, k, l, p, q in product(range(a.dim), repeat=6):
        weight = g_inv[i][j] * g_inv[k][l] * g_inv[p][q]
        if weight:
            total += F[i][k][p] * F[j][l][q] * weight
    return total


def classify(a: AlmostNordenAlgebra) -> tuple[bool, bool, bool, bool]:
    """(w0, w1, w2, w3) read from the dense F grid by ring operations:
    theta_k = g^ij F_ijk; w1 compares F with the pure-trace expression at
    every (i, j, k); w3 sums F cyclically at every (i, j, k), and w2 (with
    theta = 0) sums F_ijk' = sum_p J_pk F_ijp, F(x, y, Jz), the same way."""
    F, g, J, dim = tensor_f_grid(a), a.g, a.J, a.dim
    zero = Poly.zero(a.params)
    triples = list(product(range(dim), repeat=3))
    theta = [sum((F[i][j][k] * a.g_inv[i][j] for i, j in
                  product(range(dim), repeat=2)), zero) for k in range(dim)]
    theta_j = [sum((theta[p] * J[p][k] for p in range(dim)), zero)
               for k in range(dim)]
    g_j = [[sum(g[x][b] * J[b][y] for b in range(dim)) for y in range(dim)]
           for x in range(dim)]
    f_j = grid(dim, 3, lambda idx: sum(
        (F[idx[0]][idx[1]][p] * J[p][idx[2]] for p in range(dim)), zero))

    def cyclic_zero(T):
        return all(not (T[i][j][k] + T[j][k][i] + T[k][i][j])
                   for i, j, k in triples)

    w0 = all(not F[i][j][k] for i, j, k in triples)
    w1 = all(F[i][j][k] == (
        theta[k] * g[i][j] + theta[j] * g[i][k] + theta_j[k] * g_j[i][j]
        + theta_j[j] * g_j[i][k]) * Fraction(1, 4 * a.n)
        for i, j, k in triples)
    w2 = all(not t for t in theta) and cyclic_zero(f_j)
    return w0, w1, w2, cyclic_zero(F)


def ricci_grid(a: AlmostNordenAlgebra, R: Tensor) -> list:
    """rho_yz = sum_{i,j} g^{ij} R_iyzj, read one component at a time."""
    zero = Poly.zero(a.params)

    def rho(idx):
        y, z = idx
        return sum((R.component(i + 1, y + 1, z + 1, j + 1) * a.g_inv[i][j]
                    for i in range(a.dim) for j in range(a.dim)
                    if a.g_inv[i][j]), zero)
    return grid(a.dim, 2, rho)


def dense_rank(vectors) -> int:
    """Rank of rational vectors by Gaussian elimination on full rows."""
    work = [[Fraction(v) for v in vec] for vec in vectors]
    rank = 0
    for col in range(len(work[0]) if work else 0):
        pivot = next((r for r in range(rank, len(work)) if work[r][col]),
                     None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for r in range(rank + 1, len(work)):
            factor = work[r][col] / work[rank][col]
            work[r] = [v - factor * p for v, p in zip(work[r], work[rank])]
        rank += 1
    return rank


def gauss_jordan(work: list[list[Fraction]], ncols: int
                 ) -> tuple[list[tuple[int, Fraction]], int]:
    """Reduce the rows ``work`` in place to reduced row echelon form in
    their first ``ncols`` columns, pivoting on the first nonzero row.

    Returns the ``(column, pivot value)`` of each pivot, before its row
    is scaled to 1, and the number of row swaps.  A column without a
    pivot is skipped.  Zero entries are neither scaled nor eliminated:
    only the nonzero entries of the pivot row are read.
    """
    pivots: list[tuple[int, Fraction]] = []
    swaps = 0
    for col in range(ncols):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(work)) if work[r][col]),
                     None)
        if pivot is None:
            continue
        if pivot != rank:
            work[rank], work[pivot] = work[pivot], work[rank]
            swaps += 1
        row = work[rank]
        value = row[col]
        support = [c for c, v in enumerate(row) if v]
        for c in support:
            row[c] /= value
        for r, other in enumerate(work):
            factor = other[col]
            if r != rank and factor:
                for c in support:
                    other[c] -= factor * row[c]
        pivots.append((col, value))
    return pivots, swaps


def dense_solve(rows) -> tuple:
    """``(inverse rows or None, determinant, rank, first column without
    a pivot, 1-based, or None)`` of a square rational matrix, from
    :func:`gauss_jordan` on the full rows of ``[rows | I]``."""
    n = len(rows)
    work = [[Fraction(v) for v in row] + [Fraction(int(i == j))
                                          for j in range(n)]
            for i, row in enumerate(rows)]
    pivots, swaps = gauss_jordan(work, n)
    cols = [c for c, _ in pivots]
    if len(cols) < n:
        missing = next(c for c in range(n) if c not in cols)
        return None, Fraction(0), len(cols), missing + 1
    det = Fraction((-1) ** swaps)
    for _, value in pivots:
        det *= value
    return [row[n:] for row in work], det, n, None


def metric_product(a: AlmostNordenAlgebra, u, v) -> Fraction:
    """g(u, v) = sum_ij u_i g_ij v_j over every index pair."""
    return sum((u[i] * a.g[i][j] * v[j] for i in range(a.dim)
                for j in range(a.dim)), Fraction(0))


def plane_type(a: AlmostNordenAlgebra, p) -> str:
    """The plane type from length-dim vectors: J applied to all of x and
    y, dense rank tests on {x, y} and {x, y, Jx, Jy}, then the four
    products g(Ju, v) and the discriminant."""
    if dense_rank([p.x, p.y]) != 2:
        raise ValueError("spanning vectors are linearly dependent")
    jx = a.J.apply(p.x)
    jy = a.J.apply(p.y)
    if dense_rank([p.x, p.y, jx, jy]) == 2:
        return "holomorphic"
    if all(metric_product(a, ju, v) == 0
           for ju in (jx, jy) for v in (p.x, p.y)):
        return "totally_real"
    gxy = metric_product(a, p.x, p.y)
    if metric_product(a, p.x, p.x) * metric_product(a, p.y, p.y) == gxy ** 2:
        return "degenerate"
    return "generic"


def sectional_curvature(a: AlmostNordenAlgebra, dense_R, p) -> Poly:
    """R(x, y, y, x) / pi_1(x, y, y, x) from the dense R grid, summed by
    ring operations over every index tuple whose coefficient
    x_i y_j y_k x_l is nonzero, with pi_1 from ``metric_product``."""
    if dense_rank([p.x, p.y]) != 2:
        raise ValueError("spanning vectors are linearly dependent")
    gxy = metric_product(a, p.x, p.y)
    disc = (metric_product(a, p.x, p.x) * metric_product(a, p.y, p.y)
            - gxy ** 2)
    if disc == 0:
        raise DegeneratePlaneError(
            "sectional curvature of a degenerate plane (discriminant 0)")
    terms = [dense_at(dense_R, (i, j, k, l)) * (xi * yj * yk * xl)
             for i, xi in enumerate(p.x) if xi
             for j, yj in enumerate(p.y) if yj
             for k, yk in enumerate(p.y) if yk
             for l, xl in enumerate(p.x) if xl]
    return sum(terms, Poly.zero(a.params)) / disc
