"""Almost complex structure + Norden metric layer."""

from fractions import Fraction

import pytest

from nordenlab import (
    AlmostNordenAlgebra,
    DimensionMismatchError,
    LieAlgebra,
    NonSymmetricMatrixError,
    Poly,
    RationalMatrix,
    SingularMatrixError,
    StructureError,
    Tensor,
    check_norden,
    default_J,
    default_metric,
    parse_poly,
    signature,
)

P3 = ("l1", "l2", "l3")


def test_default_j_shape():
    j1 = default_J(1)
    assert j1 == RationalMatrix([[0, -1], [1, 0]])
    j3 = default_J(3)
    e1 = [Fraction(1)] + [Fraction(0)] * 5
    assert j3.apply(e1) == (0, 0, 0, 1, 0, 0)  # X1 goes to X4
    for n in (1, 2, 3, 4):
        j = default_J(n)
        assert j @ j == RationalMatrix.identity(2 * n).scale(-1)


def test_default_metric_signature():
    for n in (1, 2, 3):
        g = default_metric(n)
        assert g == RationalMatrix.diagonal([1] * n + [-1] * n)
        assert signature(g) == (n, n)


def test_check_norden_accepts_default_pair():
    assert check_norden(default_metric(3), default_J(3)).ok


def test_check_norden_flags_bad_j():
    result = check_norden(default_metric(2), RationalMatrix.identity(4))
    assert not result.ok
    names = {v[0] for v in result.violations}
    assert "J^2+I" in names
    # I^2 + I = 2I: diagonal entries are off by 2
    assert ("J^2+I", 1, 1, Fraction(2)) in result.violations


def test_check_norden_flags_hermitian_metric():
    # the identity metric makes (g, J) Hermitian, not Norden
    result = check_norden(RationalMatrix.identity(6), default_J(3))
    assert not result.ok
    assert all(v[0] == "J^T*g*J+g" for v in result.violations)
    assert ("J^T*g*J+g", 1, 1, Fraction(2)) in result.violations


# -- construction ----------------------------------------------------------

def test_rejects_odd_dimension():
    with pytest.raises(StructureError):
        AlmostNordenAlgebra(LieAlgebra.abelian(3))


def test_rejects_non_symmetric_metric():
    g = RationalMatrix([[1, 1], [0, -1]])
    with pytest.raises(NonSymmetricMatrixError):
        AlmostNordenAlgebra(LieAlgebra.abelian(2), g=g)


def test_rejects_incompatible_pair():
    with pytest.raises(StructureError):
        AlmostNordenAlgebra(LieAlgebra.abelian(6),
                            g=RationalMatrix.identity(6))


def test_rejects_degenerate_metric():
    # compatible with J (lower block is minus the upper) but singular
    g = RationalMatrix.diagonal([1, 1, 0, -1, -1, 0])
    with pytest.raises(SingularMatrixError):
        AlmostNordenAlgebra(LieAlgebra.abelian(6), g=g)


def test_shape_properties(falg):
    assert falg.dim == 6
    assert falg.n == 3
    assert falg.params == P3


# -- associated metric -----------------------------------------------------

def test_associated_metric(abelian6):
    gt = abelian6.associated_metric()
    assert gt == abelian6.g @ abelian6.J
    assert gt.is_symmetric
    assert check_norden(gt, abelian6.J).ok  # itself a Norden metric for J
    assert signature(gt) == (3, 3)
    # explicitly: hyperbolic pairing of X_i with X_{3+i}
    for i in range(1, 4):
        assert gt.entry(i, i + 3) == -1
        assert gt.entry(i, i) == 0


# -- invariance of the metric ----------------------------------------------

def test_invariant_metric_family(falg):
    assert falg.check_invariant_metric().ok
    # result is cached: same object on repeat call
    assert falg.check_invariant_metric() is falg.check_invariant_metric()


def test_invariant_metric_abelian(abelian6):
    assert abelian6.check_invariant_metric().ok


def test_invariant_metric_violated(affine6):
    result = affine6.check_invariant_metric()
    assert not result.ok
    found = {v[:3]: v[3] for v in result.violations}
    one = Poly.constant(1)
    assert found[(1, 2, 1)] == one
    assert found[(1, 1, 2)] == one


# -- fundamental tensor ----------------------------------------------------

def test_tensor_f_spot_values(ftensor):
    assert ftensor.component(1, 1, 6) == parse_poly("1/2*l1", P3)
    assert ftensor.component(1, 1, 5) == parse_poly("-1/2*l2", P3)
    assert ftensor.component(1, 3, 3) == parse_poly("-l3", P3)
    assert ftensor.component(2, 1, 5) == parse_poly("-1/2*l3", P3)


def test_tensor_f_symmetries(falg, ftensor):
    dim = falg.dim
    J = falg.J
    for i in range(1, dim + 1):
        for j in range(1, dim + 1):
            for k in range(1, dim + 1):
                assert ftensor.component(i, j, k) == ftensor.component(i, k, j)
                twisted = Poly.zero(falg.params)
                for p in range(dim):
                    for q in range(dim):
                        c = J[p][j - 1] * J[q][k - 1]
                        if c:
                            twisted = twisted + c * ftensor.component(
                                i, p + 1, q + 1)
                assert twisted == ftensor.component(i, j, k)


def test_tensor_f_both_routes_agree(falg):
    # the invariant-metric shortcut against the honest Koszul route
    assert falg._tensor_f_general() == falg.tensor_F()


def test_tensor_f_abelian_vanishes(abelian6):
    assert abelian6.tensor_F().is_zero


@pytest.mark.parametrize("rank", [3, 4])
def test_tensor_access(rank):
    # the component at (i, j, ...) is the number with digits i, j, ...
    def grid(prefix):
        if len(prefix) == rank:
            return Poly.constant(int("".join(map(str, prefix))))
        return [grid(prefix + (i,)) for i in (1, 2)]

    t = Tensor((), grid(()))
    assert (t.rank, t.dim) == (rank, 2)
    assert t.component(*(1, 2, 1, 2)[:rank]) == int("1212"[:rank])
    assert t[(2, 1, 2, 1)[:rank]] == int("2121"[:rank])
    assert len(t.values()) == 2 ** rank
    assert t.evaluate({}) == t and not t.is_zero
    assert repr(t) == f"Tensor(rank={rank}, dim=2, {2 ** rank} nonzero components)"
    with pytest.raises(IndexError):
        t.component(*(0,) + (1,) * (rank - 1))
    with pytest.raises(IndexError):
        t.component(*(1,) * (rank - 1) + (3,))
    with pytest.raises(IndexError):
        t.component(*(1,) * (rank - 1))
    with pytest.raises(DimensionMismatchError):
        Tensor((), [grid(()), grid(())[:1]])


# -- Lie form and classification -------------------------------------------

def test_lie_form_vanishes_for_family(falg, ftensor):
    theta = falg.lie_form(ftensor)
    assert all(t.is_zero for t in theta)


def test_classify_family(falg, ftensor):
    flags = falg.classify(ftensor)
    assert (flags.w0, flags.w1, flags.w2, flags.w3) == (
        False, False, False, True)
    assert flags.label() == "W3 (quasi-Kähler with Norden metric)"


def test_classify_family_w2_residual(falg, ftensor):
    # the cyclic sum over (X1, X4, J X2) obstructing membership in W2
    def f_j(i, j, k):
        acc = Poly.zero(falg.params)
        for p in range(6):
            c = falg.J[p][k - 1]
            if c:
                acc = acc + c * ftensor.component(i, j, p + 1)
        return acc

    cyc = f_j(1, 4, 2) + f_j(4, 2, 1) + f_j(2, 1, 4)
    assert cyc == parse_poly("2*l2", P3)


def test_classify_abelian(abelian6):
    flags = abelian6.classify(abelian6.tensor_F())
    assert (flags.w0, flags.w1, flags.w2, flags.w3) == (
        True, True, True, True)
    assert flags.label() == "W0 (Kähler with Norden metric)"


def test_classify_family_at_origin(falg):
    # all three parameters zero: the bracket dies and so does F
    origin = falg.evaluate({"l1": 0, "l2": 0, "l3": 0})
    assert origin.classify(origin.tensor_F()).w0


def test_classify_survives_numeric_specialization(falg):
    member = falg.evaluate({"l1": 1, "l2": 1, "l3": 1})
    flags = member.classify(member.tensor_F())
    assert (flags.w0, flags.w1, flags.w2, flags.w3) == (
        False, False, False, True)
