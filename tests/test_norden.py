"""Almost complex structure + Norden metric layer."""

import copy
import pickle
import random
import re
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
    square_norm_nabla_J,
)
from nordenlab.norden import _cyclic_sum_vanishes, _FSymmetric
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


def test_f_keeps_its_storage_through_the_value_protocol(falg, ftensor):
    # copies, pickles and numeric twins stay stored at j <= k, and read as
    # the plain tensor of every component in both operand orders
    plain = Tensor(ftensor.params, ftensor.dim, 3, dict(ftensor.nonzero))
    assert type(ftensor) is _FSymmetric and type(plain) is Tensor
    assert ftensor == plain and plain == ftensor
    assert not ftensor != plain and not plain != ftensor
    for twin in (copy.copy(ftensor), copy.deepcopy(ftensor),
                 pickle.loads(pickle.dumps(ftensor))):
        assert type(twin) is _FSymmetric and twin._entries == ftensor._entries
        assert twin == plain and plain == twin
    point = {"l1": Fraction(2, 3), "l2": -1, "l3": 5}
    numeric = ftensor.evaluate(point)
    assert type(numeric) is _FSymmetric
    dense = plain.evaluate(point)
    assert numeric == dense and dense == numeric
    assert numeric == falg.evaluate(point).tensor_F()
    # one member at j > k changed: unequal, whichever side asks
    idx = next(idx for idx in plain._entries if idx[1] > idx[2])
    other = Tensor(plain.params, plain.dim, 3,
                   {**plain._entries, idx: plain._entries[idx] + 1})
    assert ftensor != other and other != ftensor


#: F's three readers, each given the algebra and a plain F.
READERS = {"lie_form": lambda a, F: a.lie_form(F),
           "classify": lambda a, F: a.classify(F),
           "square_norm_nabla_J": square_norm_nabla_J}


@pytest.mark.parametrize("reader", READERS)
def test_a_plain_f_not_symmetric_in_its_last_slots_is_refused(
        falg, ftensor, reader):
    # the first component row-major whose partner F(i,k,j) differs is named
    entries = dict(ftensor.nonzero)
    (i, j, k), v = next(item for item in ftensor.nonzero
                        if item[0][1] < item[0][2])
    entries[i, k, j] = v + 1
    F = Tensor(ftensor.params, ftensor.dim, 3, entries)
    with pytest.raises(StructureError, match=re.escape(
            f"fundamental tensor violates F(i,j,k) = F(i,k,j) at (i,j,k) = "
            f"({i + 1}, {j + 1}, {k + 1})")):
        READERS[reader](falg, F)


@pytest.mark.parametrize("name", ["falg", "sheared_family", "filiform8",
                                  "affine6", "null_heisenberg6"])
def test_a_symmetric_plain_f_reads_as_the_stored_one(name, request):
    a = request.getfixturevalue(name)
    F = a.tensor_F()
    plain = Tensor(F.params, F.dim, 3, dict(F.nonzero))
    for read in READERS.values():
        assert read(a, plain) == read(a, F)


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
    assert T.trace(0, 1, RationalMatrix([[1, 0], [0, 1]])).components.is_zero
    assert T.trace(0, 1, RationalMatrix([[0, 2], [3, 0]])).components == 3 * p


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


def test_w1_holds_for_the_pure_trace_tensor_of_theta(filiform8):
    # w1 compares F with the pure-trace tensor of the theta it is given,
    # read at j <= k: here built by Poly sums at every (i, j, k)
    a, zero = filiform8, Poly.zero(filiform8.params)
    t = Poly.variable("t", a.params)
    theta = tuple(t * (k + 1) if k % 3 else zero for k in range(a.dim))
    theta_j = [sum((a.J[p][k] * theta[p] for p in range(a.dim)), zero)
               for k in range(a.dim)]
    g, gJ = a.g, a.associated_metric()
    entries = {(i, j, k): (g[i][j] * theta[k] + g[i][k] * theta[j]
                           + gJ[i][j] * theta_j[k] + gJ[i][k] * theta_j[j])
               / (4 * a.n) for i, j, k in product(range(a.dim), repeat=3)}
    assert a.classify(Tensor(a.params, a.dim, 3, entries), theta).w1
    i, j, k = next(idx for idx, v in entries.items()
                   if v and idx[1] < idx[2])
    entries[i, j, k] = entries[i, k, j] = entries[i, j, k] + t
    assert not a.classify(Tensor(a.params, a.dim, 3, entries), theta).w1


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


def symmetric(entries):
    """``entries`` with each (i, j, k) also at (i, k, j), as F is."""
    return {**entries, **{(i, k, j): v for (i, j, k), v in entries.items()}}


def assert_cyclic(entries, expected, M=None):
    # F is symmetric in its last two slots and read from its stored
    # entries; the definition reads the full tensor
    F = Tensor(ST, 3, 3, symmetric(entries))
    assert cyclic_definition(F, M) is expected
    assert _cyclic_sum_vanishes(_FSymmetric.checked(F), M) is expected


def test_a_cyclic_sum_only_at_i_i_i_is_found():
    # the (i, i, i) class holds F_iii once; the sum there is 3 F_iii
    assert_cyclic({(1, 1, 1): PT}, False)
    assert_cyclic({(1, 1, 1): PT, (0, 1, 2): PS, (1, 0, 2): -PS}, False)


def test_a_cyclic_sum_only_at_i_i_j_is_found():
    # the sum at (i, i, j) is 2 F_iij + F_jii, at (i, j, j) F_ijj + 2 F_jij
    assert_cyclic({(0, 0, 2): PT}, False)
    assert_cyclic({(0, 0, 2): PT, (2, 0, 0): -2 * PT}, True)
    assert_cyclic({(0, 0, 2): PT, (2, 0, 0): -PT}, False)
    assert_cyclic({(0, 2, 2): PT, (2, 0, 2): -PT / 2}, True)
    assert_cyclic({(0, 2, 2): PT, (2, 0, 2): -PT}, False)


def test_three_rotations_that_cancel_vanish():
    assert_cyclic({(0, 1, 2): PS, (1, 0, 2): PT, (2, 0, 1): -PS - PT}, True)
    assert_cyclic({(0, 1, 2): PS, (1, 0, 2): PT, (2, 0, 1): -PS}, False)
    # both orientations of a triple read the same three stored entries
    assert_cyclic({(0, 1, 2): PS, (1, 0, 2): -PS}, True)


def test_cyclic_sums_of_F_times_non_unit_rational_weights():
    # a multiple of the identity keeps the vanishing sums; WEIGHTS mixes
    # the third slot and breaks them
    F = {(0, 1, 2): PS, (1, 0, 2): PT, (2, 0, 1): -PS - PT,
         (1, 0, 1): PS * PT, (0, 1, 1): -2 * PS * PT}
    assert_cyclic(F, True)
    assert_cyclic(F, True, RationalMatrix.diagonal([Fraction(3, 2)] * 3))
    assert_cyclic(F, False, WEIGHTS)
    assert_cyclic({(0, 0, 1): PT}, False, WEIGHTS)
    assert_cyclic({(2, 2, 2): PT}, False, WEIGHTS)


def test_the_zero_tensor_has_vanishing_cyclic_sums():
    assert_cyclic({}, True)
    assert_cyclic({}, True, WEIGHTS)


@pytest.mark.parametrize("seed", range(6))
def test_cyclic_sums_match_the_definition_on_seeded_tensors(seed):
    # X - S/3, S the cyclic sum of X, has every cyclic sum zero for X
    # symmetric in its last two slots; perturbing one stored entry of it
    # breaks one class
    rng = random.Random(seed)

    def coeff():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    X = symmetric({(i, j, k): PS * coeff() + PT * PT * coeff() + coeff()
                   for i, j, k in product(range(3), repeat=3)
                   if j <= k and rng.random() < 0.4})
    zero = Poly.zero(ST)

    def x(i, j, k):
        return X.get((i, j, k), zero)

    F = {(i, j, k): x(i, j, k) - (x(i, j, k) + x(j, k, i) + x(k, i, j)) / 3
         for i, j, k in product(range(3), repeat=3)}
    weights = RationalMatrix([[coeff() if rng.random() < 0.6 else 0
                               for _ in range(3)] for _ in range(3)])
    i, j, k = rng.choice(sorted(F))
    changed = F[i, j, k] + PS * coeff()
    for entries in (F, {**F, (i, j, k): changed, (i, k, j): changed}):
        assert_cyclic(entries, cyclic_definition(Tensor(ST, 3, 3, entries)))
        assert_cyclic(entries, cyclic_definition(
            Tensor(ST, 3, 3, entries), weights), weights)
