"""Connection, curvature tensor, sectional curvature, grad R, |grad J|^2."""

import re
from fractions import Fraction

import pytest

from nordenlab import (
    DegeneratePlaneError,
    PlaneSpec,
    Poly,
    StructureError,
    Tensor,
    coordinate_plane,
    curvature_R,
    curvature_invariant_formula,
    is_locally_symmetric,
    levi_civita,
    nabla_R,
    parse_poly,
    plane_type,
    ricci_and_scalar,
    sectional_curvature,
    square_norm_nabla_J,
)
from nordenlab import curvature
from nordenlab.curvature import nabla_R_blocks
from nordenlab.lie import format_vector
from reference import connection_vector as grad, metric, vec_sub

P3 = ("l1", "l2", "l3")


def curvature_of(a):
    return curvature_R(a, levi_civita(a))


def nabla_r_of(a):
    c = levi_civita(a)
    return nabla_R(a, c, curvature_R(a, c))


def half(v):
    return tuple(x * Fraction(1, 2) for x in v)


def assert_torsion_free_and_metric(a, c):
    alg = a.algebra
    for i in range(1, a.dim + 1):
        for j in range(1, a.dim + 1):
            torsion = vec_sub(vec_sub(grad(c, i, j), grad(c, j, i)),
                              alg.bracket_basis(i, j))
            assert all(v.is_zero for v in torsion), (i, j)
            for k in range(1, a.dim + 1):
                # X_i . g(X_j, X_k) = 0 for constant g, so compatibility is
                # g(grad_i X_j, X_k) + g(X_j, grad_i X_k) = 0
                residual = (metric(a, grad(c, i, j), alg.basis_vector(k))
                            + metric(a, alg.basis_vector(j), grad(c, i, k)))
                assert residual.is_zero, (i, j, k)


def comp5(nr, i, j, k, l, m):
    return nr[i - 1][j - 1][k - 1][l - 1][m - 1]


# -- Levi-Civita connection ------------------------------------------------

def test_connection_family_is_half_bracket(falg, fconn):
    alg = falg.algebra
    assert_torsion_free_and_metric(falg, fconn)
    for i in range(1, 7):
        for j in range(1, 7):
            assert grad(fconn, i, j) == half(alg.bracket_basis(i, j))


def test_connection_abelian_is_flat(abelian6):
    c = levi_civita(abelian6)
    for i in range(1, 7):
        for j in range(1, 7):
            assert all(v.is_zero for v in grad(c, i, j))


def test_connection_affine_fixture(affine6):
    c = levi_civita(affine6)
    assert_torsion_free_and_metric(affine6, c)
    assert format_vector(grad(c, 1, 1)) == "-X2"
    assert format_vector(grad(c, 1, 2)) == "X1"
    assert all(v.is_zero for v in grad(c, 2, 1))
    # here the metric is not invariant and grad is NOT half the bracket
    assert grad(c, 1, 1) != half(affine6.algebra.bracket_basis(1, 1))


def test_connection_heisenberg_fixture(heisenberg6):
    c = levi_civita(heisenberg6)
    assert_torsion_free_and_metric(heisenberg6, c)
    assert format_vector(grad(c, 1, 2)) == "1/2*X3"
    assert format_vector(grad(c, 2, 1)) == "-1/2*X3"
    assert format_vector(grad(c, 1, 3)) == "-1/2*X2"
    assert format_vector(grad(c, 2, 3)) == "1/2*X1"


# -- curvature tensor ------------------------------------------------------

def test_curvature_spot_values(fcurv):
    assert fcurv.component(1, 2, 2, 1) == parse_poly("-1/4*l2^2 - 1/4*l3^2", P3)
    assert fcurv.component(1, 3, 6, 1) == parse_poly("1/4*l1^2", P3)
    assert fcurv.component(1, 2, 3, 1) == parse_poly("1/4*l1*l2", P3)
    assert fcurv.component(2, 1, 4, 2) == parse_poly("1/4*l3^2", P3)


def test_curvature_symmetries(fcurv):
    dim = fcurv.dim
    for i in range(1, dim + 1):
        for j in range(1, dim + 1):
            for k in range(1, dim + 1):
                for l in range(1, dim + 1):
                    v = fcurv.component(i, j, k, l)
                    assert v == -fcurv.component(j, i, k, l)
                    assert v == -fcurv.component(i, j, l, k)
                    assert v == fcurv.component(k, l, i, j)


def test_curvature_first_bianchi(fcurv):
    dim = fcurv.dim
    for i in range(1, dim + 1):
        for j in range(1, dim + 1):
            for k in range(1, dim + 1):
                for l in range(1, dim + 1):
                    cyc = (fcurv.component(i, j, k, l)
                           + fcurv.component(j, k, i, l)
                           + fcurv.component(k, i, j, l))
                    assert cyc.is_zero, (i, j, k, l)


def test_curvature_components_are_quadratic(fcurv):
    for block in fcurv.components:
        for plane in block:
            for row in plane:
                for v in row:
                    assert v.is_homogeneous(2)


def test_curvature_makes_each_product_once_at_i_below_j(falg, fconn,
                                                      fcurv, monkeypatch):
    # each Gamma.T product belongs at (i, j, k, l) and, negated, at
    # (j, i, k, l): it is added once, at i < j, and the i > j half is
    # filled by negation (adding it at both makes 2208 calls)
    keys = []
    real = curvature._accumulate

    def counting(acc, key, v, m=1):
        assert key[0] < key[1], key
        keys.append(key)
        real(acc, key, v, m)

    monkeypatch.setattr(curvature, "_accumulate", counting)
    assert curvature_R(falg, fconn) == fcurv
    assert len(keys) == 1104


def test_curvature_two_routes_agree(falg, fcurv):
    assert curvature_invariant_formula(falg) == fcurv


def test_curvature_invariant_formula_needs_invariance(affine6):
    # with a non-invariant metric the bracket formula is simply wrong,
    # which is exactly why it serves as an independent cross-check
    honest = curvature_of(affine6)
    assert honest.component(1, 2, 1, 2) == Poly.constant(1)
    shortcut = curvature_invariant_formula(affine6)
    assert shortcut.component(1, 2, 1, 2) == Poly.constant(Fraction(-1, 4))
    assert honest != shortcut


def test_curvature_heisenberg_values(heisenberg6):
    R = curvature_of(heisenberg6)
    assert R.component(1, 2, 1, 2) == Poly.constant(Fraction(3, 4))
    assert R.component(1, 3, 1, 3) == Poly.constant(Fraction(-1, 4))
    assert R.component(2, 3, 2, 3) == Poly.constant(Fraction(-1, 4))


def test_curvature_abelian_flat(abelian6):
    assert curvature_of(abelian6).is_zero


# -- Ricci and scalar ------------------------------------------------------

def test_ricci_spot_values(fricci):
    rho, tau = fricci
    assert rho.components == tuple(zip(*rho.components))
    assert rho.entry(1, 1) == parse_poly("-l3^2", P3)
    assert rho.entry(2, 3) == parse_poly("l1*l2", P3)
    assert rho.entry(1, 4) == parse_poly("l3^2", P3)
    assert tau.is_zero


def test_ricci_abelian(abelian6):
    rho, tau = ricci_and_scalar(abelian6, curvature_of(abelian6))
    assert rho.is_zero
    assert tau.is_zero


# -- planes and sectional curvature ----------------------------------------

def test_plane_types(falg):
    assert plane_type(falg, coordinate_plane(6, 1, 4)) == "holomorphic"
    assert plane_type(falg, coordinate_plane(6, 2, 5)) == "holomorphic"
    assert plane_type(falg, coordinate_plane(6, 1, 2)) == "totally_real"
    assert plane_type(falg, coordinate_plane(6, 4, 5)) == "totally_real"
    # span{X1, X1+X4} is span{X1, X4} again, just in another basis
    rebased = PlaneSpec((1, 0, 0, 0, 0, 0), (1, 0, 0, 1, 0, 0))
    assert plane_type(falg, rebased) == "holomorphic"
    generic = PlaneSpec((1, 0, 0, 0, 0, 0), (0, 1, 0, 2, 0, 0))
    assert plane_type(falg, generic) == "generic"
    degenerate = PlaneSpec((1, 0, 0, 1, 0, 0), (0, 1, 0, 0, 0, 0))
    assert plane_type(falg, degenerate) == "degenerate"


def test_plane_type_rejects_dependent_vectors(falg):
    with pytest.raises(ValueError):
        plane_type(falg, PlaneSpec((1, 0, 0, 0, 0, 0), (2, 0, 0, 0, 0, 0)))


def test_coordinate_plane_validation():
    with pytest.raises(ValueError):
        coordinate_plane(6, 3, 3)
    with pytest.raises(IndexError):
        coordinate_plane(6, 0, 2)


def test_sectional_spot_values(falg, fcurv):
    k45 = sectional_curvature(falg, fcurv, coordinate_plane(6, 4, 5))
    assert k45 == parse_poly("1/4*l2^2 + 1/4*l3^2", P3)
    k12 = sectional_curvature(falg, fcurv, coordinate_plane(6, 1, 2))
    assert k12 == parse_poly("-1/4*l2^2 - 1/4*l3^2", P3)
    k26 = sectional_curvature(falg, fcurv, coordinate_plane(6, 2, 6))
    assert k26 == parse_poly("1/4*l1^2 - 1/4*l2^2", P3)
    k14 = sectional_curvature(falg, fcurv, coordinate_plane(6, 1, 4))
    assert k14.is_zero


def test_sectional_pairs_cancel(falg, fcurv):
    pairs = (((1, 2), (4, 5)), ((1, 3), (4, 6)), ((2, 3), (5, 6)),
             ((1, 5), (2, 4)), ((1, 6), (3, 4)), ((2, 6), (3, 5)))
    for (i, j), (p, q) in pairs:
        a_val = sectional_curvature(falg, fcurv, coordinate_plane(6, i, j))
        b_val = sectional_curvature(falg, fcurv, coordinate_plane(6, p, q))
        assert (a_val + b_val).is_zero, ((i, j), (p, q))


def test_sectional_is_basis_invariant(falg, fcurv):
    direct = sectional_curvature(falg, fcurv, coordinate_plane(6, 1, 2))
    rebased = sectional_curvature(
        falg, fcurv, PlaneSpec((1, 0, 0, 0, 0, 0), (1, 1, 0, 0, 0, 0)))
    assert direct == rebased


def test_sectional_degenerate_plane_raises(falg, fcurv):
    iso = PlaneSpec((1, 0, 0, 1, 0, 0), (0, 1, 0, 0, 0, 0))
    with pytest.raises(DegeneratePlaneError):
        sectional_curvature(falg, fcurv, iso)


# -- grad R and local symmetry ---------------------------------------------

def test_family_is_locally_symmetric(fnabla_r):
    assert is_locally_symmetric(fnabla_r)


def test_abelian_is_locally_symmetric(abelian6):
    assert is_locally_symmetric(nabla_r_of(abelian6))


def test_affine_fixture_is_locally_symmetric(affine6):
    # [X1,X2] = X1 carries a constant-curvature plane: grad R = 0 even
    # though the connection is not half the bracket
    assert is_locally_symmetric(nabla_r_of(affine6))


def test_heisenberg_is_not_locally_symmetric(heisenberg6):
    c = levi_civita(heisenberg6)
    R = curvature_R(heisenberg6, c)
    nr = nabla_R(heisenberg6, c, R)
    assert not is_locally_symmetric(nr)
    # (grad_{X1} R)(X1, X2, X1, X3):
    #   -R(grad_1 X1,...) = 0,  -R(X1, (1/2)X3, X1, X3) = -(1/2)R_1313,
    #   -R(X1, X2, grad_1 X1, X3) = 0,  -R(X1, X2, X1, -(1/2)X2) = (1/2)R_1212
    # = -(1/2)(-1/4) + (1/2)(3/4) = 1/2
    assert comp5(nr, 1, 1, 2, 1, 3) == Poly.constant(Fraction(1, 2))


def with_entries(R, changes):
    """R with the 0-based components in ``changes`` added to it."""
    entries = dict(R.nonzero)
    for idx, delta in changes.items():
        entries[idx] = entries.get(idx, Poly.zero(R.params)) + delta
    return Tensor(R.params, R.dim, 4, entries)


@pytest.mark.parametrize("changes, identity", [
    # one component of R_1212 = 3/4 moved: its antisymmetric partner lags
    ({(0, 1, 0, 1): 1}, "R(j,k,l,m) = -R(k,j,l,m)"),
    # antisymmetric in the first pair only
    ({(0, 1, 3, 4): 1, (1, 0, 3, 4): -1}, "R(j,k,l,m) = -R(j,k,m,l)"),
    # antisymmetric in both pairs, but the pair-swapped members dropped
    ({(0, 1, 3, 4): 1, (1, 0, 3, 4): -1, (0, 1, 4, 3): -1,
      (1, 0, 4, 3): 1}, "R(j,k,l,m) = R(l,m,j,k)"),
])
def test_nabla_r_rejects_a_curvature_without_its_symmetries(
        heisenberg6, changes, identity):
    # the blocks are filled from their canonical components by these
    # symmetries, so an R without them must not yield a grad R at all
    c = levi_civita(heisenberg6)
    R = with_entries(curvature_R(heisenberg6, c), changes)
    with pytest.raises(StructureError, match=re.escape(identity)):
        nabla_R(heisenberg6, c, R)
    with pytest.raises(StructureError, match=re.escape(identity)):
        next(nabla_R_blocks(heisenberg6, c, R))


@pytest.mark.parametrize("name", [
    "falg", "twin", "sheared", "sheared_family", "abelian6", "heisenberg6",
    "affine6", "filiform8", "filiform10"])
def test_levi_civita_curvature_passes_the_symmetry_guard(name, request):
    a = request.getfixturevalue(name)
    c = levi_civita(a)
    assert next(nabla_R_blocks(a, c, curvature_R(a, c))).rank == 4


def test_nabla_r_rejects_the_curvature_of_a_jacobi_violation(perturbed):
    # pair symmetry follows from the first Bianchi identity, which needs
    # the Jacobi identity: the Levi-Civita R of a non-Lie bracket lacks it
    assert not perturbed.algebra.check_jacobi().ok
    c = levi_civita(perturbed)
    with pytest.raises(StructureError, match=re.escape(
            "R(j,k,l,m) = R(l,m,j,k) at (j,k,l,m) = (1, 2, 2, 3)")):
        nabla_R(perturbed, c, curvature_R(perturbed, c))


def test_nabla_r_makes_products_only_at_canonical_components(falg, fconn,
                                                             fcurv,
                                                             monkeypatch):
    # 2832 of the 25344 products of a scatter over every slot land at
    # j < k, l < m, (j, k) <= (l, m); only those may be made
    calls = []
    real = curvature._accumulate

    def counting(acc, key, v, m=1):
        j, k, l, n = key
        assert j < k and l < n and (j, k) <= (l, n), key
        calls.append(key)
        real(acc, key, v, m)

    monkeypatch.setattr(curvature, "_accumulate", counting)
    blocks = list(nabla_R_blocks(falg, fconn, fcurv))
    assert len(blocks) == 6 and all(block.is_zero for block in blocks)
    assert 0 < len(calls) <= 2832


# -- |grad J|^2 ------------------------------------------------------------

def test_norm_nabla_j_family_is_isotropic(falg, ftensor):
    norm = square_norm_nabla_J(falg, ftensor)
    assert norm.is_zero
    assert not ftensor.is_zero  # isotropic, not integrable-trivial


def test_norm_nabla_j_affine_fixture(affine6):
    # definite restriction: nonzero F forces a nonzero norm here
    norm = square_norm_nabla_J(affine6, affine6.tensor_F())
    assert not norm.is_zero
