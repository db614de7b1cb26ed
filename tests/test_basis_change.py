"""Invariance under a change of basis, and the algebraic identities of R
on every fixture.

Rewriting an algebra in the basis E_b = sum_i P[i][b] X_i (brackets
transformed, g' = P^T g P, J' = P^-1 J P) changes every component but no
geometric quantity: the scalar curvature, the norm of grad J, the class
flags (Ganchev-Borisov, C. R. Acad. Bulg. Sci. 39, 1986), local symmetry
and the rank of the Killing form must come out the same, and F, R and
grad R must transform as tensors.  P is drawn from a seeded
``random.Random``, so a failure reproduces.  Every rebased metric has the
neutral signature (n, n) that the Norden property forces, by Jacobi's
rule on its leading principal minors.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from reference import from_grid, rebased
from nordenlab import Tensor, nabla_R, parse_spec, rational_rank
from nordenlab.linalg import RationalMatrix
from nordenlab.report import Geometry

#: Off-diagonal cells drawn for each triangular factor of P.
CELLS = 3


def random_basis_change(rng: random.Random, dim: int) -> RationalMatrix:
    """P = U L with U (L) unit upper (lower) triangular, each with CELLS
    random off-diagonal entries: invertible, with small rational entries,
    and mixing the basis in both directions."""
    def unit_triangular(upper):
        rows = [[Fraction(int(i == j)) for j in range(dim)]
                for i in range(dim)]
        pairs = [(i, j) for i in range(dim) for j in range(dim)
                 if (i < j if upper else i > j)]
        for i, j in rng.sample(pairs, CELLS):
            rows[i][j] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]),
                                  rng.randint(1, 3))
        return RationalMatrix(rows)

    return unit_triangular(True) @ unit_triangular(False)


def killing_rank(a) -> int:
    """Rank of the Killing form, at l = 3/2 for every parameter."""
    B = a.algebra.killing_form().evaluate(
        {name: Fraction(3, 2) for name in a.params})
    return rational_rank([[v.constant_value() for v in row]
                          for row in B.components])


def invariants(geo: Geometry):
    return (geo.ricci_and_tau[1], geo.nabla_j_norm, geo.flags,
            geo.locally_symmetric, killing_rank(geo.algebra))


def pulled_back(T, P):
    """T(E_a, E_b, ...) from T(X_i, X_j, ...): P^T on every slot."""
    Pt = P.transpose()
    for axis in range(T.rank):
        T = T.contract(axis, Pt)
    return T


def nabla_r(geo: Geometry) -> Tensor:
    """The rank-5 grad R of one geometry."""
    a = geo.algebra
    return from_grid(a.params, nabla_R(a, geo.connection, geo.R))


def assert_curvature_identities(R):
    """First Bianchi identity and R_ijkl = -R_jikl = -R_ijlk = R_klij."""
    C = R.components
    for i, j, k, l in product(range(R.dim), repeat=4):
        v = C[i][j][k][l]
        assert (v + C[j][k][i][l] + C[k][i][j][l]).is_zero, (i, j, k, l)
        if v.terms:  # each symmetry is an involution: nonzeros suffice
            assert C[j][i][k][l] == -v, (i, j, k, l)
            assert C[i][j][l][k] == -v, (i, j, k, l)
            assert C[k][l][i][j] == v, (i, j, k, l)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", ["falg", "twin", "heisenberg6", "affine6",
                                  "filiform8"])
def test_geometry_is_basis_independent(name, seed, request):
    a = request.getfixturevalue(name)
    P = random_basis_change(random.Random(seed), a.dim)
    before, after = Geometry(a), Geometry(rebased(a, P))
    assert invariants(after) == invariants(before)
    assert after.F == pulled_back(before.F, P)
    assert after.R == pulled_back(before.R, P)
    assert nabla_r(after) == pulled_back(nabla_r(before), P)
    assert_curvature_identities(after.R)


@pytest.mark.parametrize("name", [
    "falg", "twin", "sheared", "abelian6", "heisenberg6", "affine6",
    "filiform8", "filiform10"])
def test_curvature_identities_on_every_fixture(name, request):
    assert_curvature_identities(Geometry(request.getfixturevalue(name)).R)


def leading_minors(m: RationalMatrix) -> list[Fraction]:
    """D_1, ..., D_n: the determinants of the leading k x k blocks."""
    return [RationalMatrix([row[:k] for row in m.rows[:k]]).determinant()
            for k in range(1, m.nrows + 1)]


@pytest.mark.parametrize("name", ["table1", "heisenberg6", "affine6",
                                  "filiform12"])
def test_rebased_metric_has_neutral_signature(name, spec_fixture_path):
    # Jacobi's rule: when D_1, ..., D_dim are all nonzero, the sign
    # changes in 1, D_1, ..., D_dim count the negative squares of g
    a = parse_spec(spec_fixture_path.parent / f"{name}.spec")
    rng = random.Random(name)
    checked = 0
    for _ in range(20):
        g = rebased(a, random_basis_change(rng, a.dim)).g
        minors = [Fraction(1)] + leading_minors(g)
        if not all(minors):
            continue
        changes = sum((x > 0) != (y > 0) for x, y in zip(minors, minors[1:]))
        assert changes == a.dim // 2
        checked += 1
    assert checked >= 10
