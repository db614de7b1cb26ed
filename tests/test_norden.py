"""Almost complex structure + Norden metric layer."""

import random
from fractions import Fraction
from itertools import product

import pytest

from nordenlab import (
    AlmostNordenAlgebra,
    ClassFlags,
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
    levi_civita,
    parse_poly,
)
from nordenlab.norden import _cyclic_sum_vanishes
from reference import from_grid

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


def test_f_and_connection_share_one_koszul_tensor(filiform8, monkeypatch):
    # T is built once, reading G once, and neither F nor the connection
    # asks whether the metric is invariant
    a = AlmostNordenAlgebra(filiform8.algebra, filiform8.g, filiform8.J)
    reads = []
    G = AlmostNordenAlgebra.G
    monkeypatch.setattr(AlmostNordenAlgebra, "G", property(
        lambda self: reads.append(self) or G.func(self)))

    def refuse(self):
        raise AssertionError("check_invariant_metric called")

    monkeypatch.setattr(AlmostNordenAlgebra, "check_invariant_metric", refuse)
    a.tensor_F()
    T = a.T
    levi_civita(a)
    assert a.T is T and reads == [a]


def test_tensor_f_abelian_vanishes(abelian6):
    assert abelian6.tensor_F().is_zero


@pytest.mark.parametrize("rank", [3, 4])
def test_tensor_access(rank):
    # the component at (i, j, ...) is the number with digits i, j, ...
    def grid(prefix):
        if len(prefix) == rank:
            return Poly.constant(int("".join(map(str, prefix))))
        return [grid(prefix + (i,)) for i in (1, 2)]

    t = from_grid((), grid(()))
    assert (t.rank, t.dim) == (rank, 2)
    assert t.component(*(1, 2, 1, 2)[:rank]) == int("1212"[:rank])
    assert t[(2, 1, 2, 1)[:rank]] == int("2121"[:rank])
    assert len(t.nonzero) == 2 ** rank
    assert t.evaluate({}) == t and not t.is_zero
    assert repr(t) == f"Tensor(rank={rank}, dim=2, {2 ** rank} nonzero components)"
    with pytest.raises(IndexError):
        t.component(*(0,) + (1,) * (rank - 1))
    with pytest.raises(IndexError):
        t.component(*(1,) * (rank - 1) + (3,))
    with pytest.raises(IndexError):
        t.component(*(1,) * (rank - 1))


def test_from_entries_shares_one_zero():
    p = Poly.variable("t", ("t",))
    T = Tensor(("t",), 2, 2, {(0, 1): p - p, (1, 0): p})
    zero = T.components[0][0]
    assert zero.is_zero
    assert T.components[0][1] is zero and T.components[1][1] is zero
    assert T.nonzero == (((1, 0), p),)
    assert T.component(2, 1) == p
    # sum_{a,b} M[a][b] T[a][b] is a rank-0 tensor holding one Poly
    assert T.trace(0, 1, [[1, 0], [0, 1]]).components.is_zero
    assert T.trace(0, 1, [[0, 2], [3, 0]]).components == 3 * p


def test_contract_identity_and_metric_round_trip(falg, ftensor):
    assert ftensor.contract(1, RationalMatrix.identity(6)) == ftensor
    for axis in range(3):
        lowered = ftensor.contract(axis, falg.g)
        assert lowered != ftensor
        assert lowered.contract(axis, falg.g_inv) == ftensor


# -- Lie form and classification -------------------------------------------

def test_lie_form_vanishes_for_family(falg, ftensor):
    theta = falg.lie_form(ftensor)
    assert all(t.is_zero for t in theta)


def test_classify_family(falg, ftensor):
    flags = falg.classify(ftensor)
    assert (flags.w0, flags.w1, flags.w2, flags.w3) == (
        False, False, False, True)
    assert flags.label() == "W3 (quasi-Kähler with Norden metric)"


def test_label_names_w1_alone():
    assert ClassFlags(False, True, False, False).label() == "W1"


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


# -- the cyclic sums of classify, against their Poly-sum definition ---------

ST = ("s", "t")
PS, PT = (Poly.variable(name, ST) for name in ST)
#: a J-like matrix with non-unit rational entries: columns (2, 3/2, 0),
#: (-2/3, 0, 0) and (0, 0, 1/5)
WEIGHTS = RationalMatrix([[2, Fraction(-2, 3), 0], [Fraction(3, 2), 0, 0],
                          [0, 0, Fraction(1, 5)]])


def cyclic_definition(F, M=None):
    """F'_ijk + F'_jki + F'_kij == 0 at every (i, j, k) by Poly sums, with
    F'_ija = sum_p M[a][p] F_ijp, or F' = F without ``M``."""
    zero = Poly.zero(F.params)

    def f(i, j, a):
        if M is None:
            return F.at((i, j, a))
        return sum((F.at((i, j, p)) * M[a][p] for p in range(F.dim)), zero)
    return all(not (f(i, j, k) + f(j, k, i) + f(k, i, j))
               for i, j, k in product(range(F.dim), repeat=3))


def assert_cyclic(entries, expected, M=None):
    F = Tensor(ST, 3, 3, entries)
    assert cyclic_definition(F, M) is expected
    assert _cyclic_sum_vanishes(F, M) is expected


def test_a_cyclic_sum_only_at_i_i_i_is_found():
    # the (i, i, i) class holds F_iii once; the sum there is 3 F_iii
    assert_cyclic({(1, 1, 1): PT}, False)
    assert_cyclic({(1, 1, 1): PT, (0, 1, 2): PS, (1, 2, 0): -PS}, False)


def test_a_cyclic_sum_only_at_i_i_j_is_found():
    assert_cyclic({(0, 0, 2): PT}, False)
    assert_cyclic({(0, 0, 2): PT, (0, 2, 0): -PT}, True)
    assert_cyclic({(0, 0, 2): PT, (0, 2, 0): -PT, (2, 0, 0): PS}, False)


def test_three_rotations_that_cancel_vanish():
    assert_cyclic({(0, 1, 2): PS, (1, 2, 0): PT, (2, 0, 1): -PS - PT}, True)
    assert_cyclic({(0, 1, 2): PS, (1, 2, 0): PT, (2, 0, 1): -PS}, False)
    # the other orientation is a class of its own
    assert_cyclic({(0, 1, 2): PS, (0, 2, 1): -PS}, False)


def test_cyclic_sums_of_F_times_non_unit_rational_weights():
    # F.contract(2, W) is Fprime exactly when F = Fprime.contract(2, W^-1)
    Fprime = Tensor(ST, 3, 3, {(0, 1, 2): PS, (1, 2, 0): PT,
                               (2, 0, 1): -PS - PT, (1, 1, 0): PS * PT,
                               (1, 0, 1): -PS * PT})
    F = Fprime.contract(2, WEIGHTS.inverse())
    assert F.contract(2, WEIGHTS) == Fprime and F != Fprime
    assert_cyclic(F._entries, True, WEIGHTS)
    assert_cyclic(F._entries, False)
    assert_cyclic({(0, 1, 0): PT}, False, WEIGHTS)
    assert_cyclic({(2, 2, 2): PT}, False, WEIGHTS)


def test_the_zero_tensor_has_vanishing_cyclic_sums():
    assert_cyclic({}, True)
    assert_cyclic({}, True, WEIGHTS)


@pytest.mark.parametrize("seed", range(6))
def test_cyclic_sums_match_the_definition_on_seeded_tensors(seed):
    # G_ijk - G_jki has every cyclic sum zero; dropping or perturbing one
    # component of it breaks one class
    rng = random.Random(seed)

    def coeff():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    G = {idx: PS * coeff() + PT * PT * coeff() + coeff()
         for idx in product(range(3), repeat=3) if rng.random() < 0.4}
    zero = Poly.zero(ST)
    F = {(i, j, k): G.get((i, j, k), zero) - G.get((j, k, i), zero)
         for i, j, k in product(range(3), repeat=3)}
    weights = RationalMatrix([[coeff() if rng.random() < 0.6 else 0
                               for _ in range(3)] for _ in range(3)])
    for entries in (F, {**F, rng.choice(list(F)): PS * coeff()}):
        assert_cyclic(entries, cyclic_definition(Tensor(ST, 3, 3, entries)))
        assert_cyclic(entries, cyclic_definition(
            Tensor(ST, 3, 3, entries), weights), weights)
