"""Dense reference implementations, kept as test oracles only.

These are the loop nests the library used before its contractions became
scatters over nonzero components: every index tuple is visited, zero or
not.  The tests require the library to reproduce them component for
component.  ``derive_constant_field`` and ``derive_in_direction`` are the
connection methods the dense curvature loop was written against.
"""

from nordenlab import (
    AlmostNordenAlgebra,
    ConnectionCoeffs,
    Poly,
    Tensor,
    Vector,
    vec_sub,
)

Array5 = tuple  # 5 levels of nested tuples of Poly


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
                    vec_sub(derive_constant_field(c, i, c.vector(j, k)),
                            derive_constant_field(c, j, c.vector(i, k))),
                    derive_in_direction(c, bij, k))
                for l in range(1, dim + 1):
                    val = a.metric(vec, basis[l - 1])
                    comp[i - 1][j - 1][k - 1][l - 1] = val
                    comp[j - 1][i - 1][k - 1][l - 1] = -val
    return Tensor(a.params, comp)


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
