"""Rational and polynomial matrices: inversion, determinant, rank."""

import random
from fractions import Fraction

import pytest

from nordenlab import (
    DimensionMismatchError,
    LieAlgebra,
    ParameterMismatchError,
    Poly,
    PolyMatrix,
    RationalMatrix,
    SingularMatrixError,
    Tensor,
    parse_poly,
    rational_rank,
)
from nordenlab import linalg
from nordenlab.poly import _multiply_accumulate, as_poly
from reference import from_grid


def rand_invertible(rnd, n):
    """Random nonsingular rational matrix (retry until det != 0)."""
    while True:
        m = RationalMatrix(
            [[Fraction(rnd.randint(-5, 5), rnd.randint(1, 3)) for _ in range(n)]
             for _ in range(n)])
        if m.determinant() != 0:
            return m


def test_identity_and_diagonal():
    i3 = RationalMatrix.identity(3)
    assert i3.entry(1, 1) == 1 and i3.entry(1, 2) == 0
    d = RationalMatrix.diagonal([1, 1, 1, -1, -1, -1])
    assert d.entry(4, 4) == -1
    assert d.is_symmetric
    assert d @ d == RationalMatrix.identity(6)


def test_entry_is_one_based():
    m = RationalMatrix([[1, 2], [3, 4]])
    assert m.entry(1, 2) == 2
    assert m.entry(2, 1) == 3
    assert m[0] == (1, 2)  # raw row access stays zero-based
    with pytest.raises(IndexError):
        m.entry(0, 1)
    with pytest.raises(IndexError):
        m.entry(3, 1)


def test_inverse_examples():
    d = RationalMatrix.diagonal([1, 1, 1, -1, -1, -1])
    assert d.inverse() == d
    m = RationalMatrix([[2, 0], [0, 4]])
    assert m.inverse() == RationalMatrix([[Fraction(1, 2), 0], [0, Fraction(1, 4)]])


def test_inverse_singular_reports_column():
    m = RationalMatrix([[1, 2], [2, 4]])
    with pytest.raises(SingularMatrixError) as exc:
        m.inverse()
    assert exc.value.column == 2


def test_inverse_round_trip_random():
    rnd = random.Random(424242)
    for n in (2, 3, 5, 8):
        for _ in range(6):
            m = rand_invertible(rnd, n)
            inv = m.inverse()
            assert m @ inv == RationalMatrix.identity(n)
            assert inv.inverse() == m


def test_determinant_multiplicative():
    rnd = random.Random(5150)
    for _ in range(10):
        a = rand_invertible(rnd, 4)
        b = rand_invertible(rnd, 4)
        assert (a @ b).determinant() == a.determinant() * b.determinant()


def test_rational_rank():
    assert rational_rank([[1, 0], [0, 1]]) == 2
    assert rational_rank([[1, 2], [2, 4]]) == 1
    assert rational_rank([[0, 0]]) == 0
    assert rational_rank([[1, 0, 0], [1, 1, 0], [0, 1, 0], [1, 1, 1]]) == 3


def naive_matmul(a, b):
    """The textbook triple loop over every entry, zeros included."""
    return [[sum((a[i][p] * b[p][q] for p in range(a.ncols)), Fraction(0))
             for q in range(b.ncols)] for i in range(a.nrows)]


@pytest.mark.parametrize("density", [1.0, 0.3, 0.1, 0.0])
def test_matmul_matches_triple_loop(density):
    rnd = random.Random(int(density * 10) + 77)

    def random_matrix(nrows, ncols):
        return RationalMatrix(
            [[Fraction(rnd.randint(-5, 5), rnd.randint(1, 4))
              if rnd.random() < density else 0 for _ in range(ncols)]
             for _ in range(nrows)])

    for nrows, inner, ncols in [(1, 1, 1), (3, 3, 3), (2, 5, 4), (7, 7, 7)]:
        a, b = random_matrix(nrows, inner), random_matrix(inner, ncols)
        product = a @ b
        expected = naive_matmul(a, b)
        assert product.rows == tuple(map(tuple, expected))
        assert all(type(v) is Fraction for row in product.rows for v in row)


def test_apply_matches_matmul():
    rnd = random.Random(13)
    m = rand_invertible(rnd, 4)
    vec = [Fraction(rnd.randint(-4, 4)) for _ in range(4)]
    out = m.apply(vec)
    for i in range(4):
        assert out[i] == sum(m[i][j] * vec[j] for j in range(4))


P3 = ("l1", "l2", "l3")


def pm(rows):
    return from_grid(P3, [[as_poly(c, P3) for c in row] for row in rows],
                     PolyMatrix)


def is_symmetric(m):
    return m.components == tuple(zip(*m.components))


def test_poly_matrix_entry_and_trace():
    m = pm([["l1", "l2"], ["l3", "l1"]])
    assert m.entry(1, 2) == parse_poly("l2", P3)
    assert m.entry(2, 1) == m.component(2, 1) == parse_poly("l3", P3)
    trace = m.trace(0, 1, RationalMatrix([[1, 0], [0, 1]]))
    assert trace.components == parse_poly("2*l1", P3)
    with pytest.raises(IndexError):
        m.entry(3, 1)


#: Calls of a dim-2 tensor's contraction primitives with a matrix of the
#: wrong size or axes out of range, each with the error it must raise.
BAD_WEIGHTS = {
    "contract-3x3": (lambda m: m.contract(0, RationalMatrix.identity(3)),
                     DimensionMismatchError),
    "contract-1x1": (lambda m: m.contract(0, RationalMatrix([[2]])),
                     DimensionMismatchError),
    "contract-2x3": (lambda m: m.contract(1, RationalMatrix([[1, 0, 0]] * 2)),
                     DimensionMismatchError),
    "trace-3x3": (lambda m: m.trace(0, 1, RationalMatrix.identity(3)),
                  DimensionMismatchError),
    "contract-axis-2": (lambda m: m.contract(2, RationalMatrix.identity(2)),
                        IndexError),
    "contract-axis--1": (lambda m: m.contract(-1, RationalMatrix.identity(2)),
                         IndexError),
    "trace-1-0": (lambda m: m.trace(1, 0, RationalMatrix([[1, 1], [1, 1]])),
                  IndexError),
    "trace-0-0": (lambda m: m.trace(0, 0, RationalMatrix.identity(2)),
                  IndexError),
    "trace-0-2": (lambda m: m.trace(0, 2, RationalMatrix.identity(2)),
                  IndexError),
}


@pytest.mark.parametrize("case", BAD_WEIGHTS)
def test_contract_and_trace_refuse_a_bad_matrix_or_axis(case, monkeypatch):
    # refused once per call, before the kernel makes any product: a 3x3
    # matrix used to store components at index 2 of a dim-2 tensor, and
    # trace(1, 0) to return a "rank-0" tensor of two-index components
    call, error = BAD_WEIGHTS[case]
    m = pm([["l1", "l2"], ["l3", "l1"]])
    monkeypatch.setattr(linalg, "_multiply_accumulate", None)
    with pytest.raises(error):
        call(m)


def test_poly_matrix_determinant():
    m = pm([["l1", "l2"], ["l3", "l1"]])
    assert m.determinant() == parse_poly("l1^2 - l2*l3", P3)
    three = pm([["l1", "0", "0"], ["0", "l2", "0"], ["0", "0", "l3"]])
    assert three.determinant() == parse_poly("l1*l2*l3", P3)


def test_poly_matrix_matmul_and_evaluate():
    m = pm([["l1", "l2"], ["0", "l3"]])
    num = m.evaluate({"l1": 1, "l2": 2, "l3": 3})
    assert isinstance(num, PolyMatrix) and num.params == ()
    assert num.components == ((1, 2), (0, 3))


def test_poly_matrix_evaluate_commutes_with_determinant():
    rnd = random.Random(2089)
    for _ in range(6):
        rows = [[parse_poly(f"{rnd.randint(-3, 3)}*l1 + {rnd.randint(-3, 3)}*l2")
                 .with_params(P3) for _ in range(3)] for _ in range(3)]
        m = from_grid(P3, rows, PolyMatrix)
        point = {"l1": Fraction(rnd.randint(-4, 4), 3), "l2": rnd.randint(-4, 4),
                 "l3": 0}
        assert m.determinant().evaluate(point) == m.evaluate(point).determinant()


def test_poly_matrix_flags():
    z = pm([[0, 0], [0, 0]])
    assert z.is_zero
    assert is_symmetric(z)
    m = pm([["l1", "l2"], ["l2", "0"]])
    assert not m.is_zero
    assert is_symmetric(m)
    assert not is_symmetric(pm([["l1", "l2"], ["l3", "0"]]))


# -- sparse Tensor storage ---------------------------------------------------

T_PARAMS = ("t",)
T = Poly.variable("t", T_PARAMS)


def test_tensor_stores_no_zero_even_after_cancellation():
    acc, t = {}, tuple(T.nums.items())
    _multiply_accumulate(acc, [((0, 1), t, ((0, 2),))], 1, T_PARAMS)
    _multiply_accumulate(acc, [((0, 1), t, ((0, -2),))], 1,
                         T_PARAMS)  # cancels: the key is dropped
    _multiply_accumulate(acc, [((1, 0), t, ((0, 1),))], 1, T_PARAMS)
    tensor = Tensor(T_PARAMS, 2, 2, {**acc, (1, 1): T - T,
                                     (0, 0): [{}, 1]})
    assert tensor.nonzero == (((1, 0), T),)
    assert repr(tensor) == "Tensor(rank=2, dim=2, 1 nonzero components)"
    grid = Tensor(T_PARAMS, 2, 2, {(0, 0): T - T, (0, 1): T,
                                   (1, 0): Poly.zero(T_PARAMS), (1, 1): T * T})
    assert [idx for idx, _ in grid.nonzero] == [(0, 1), (1, 1)]
    # every other index reads the one shared zero
    assert grid.component(1, 1) is grid.component(2, 1) is grid.at((0, 0))
    assert grid.component(1, 1).is_zero


def test_nonzero_is_row_major_whatever_the_insertion_order():
    keys = [(2, 0, 1), (0, 2, 2), (1, 1, 0), (0, 0, 1), (2, 2, 2)]
    rng = random.Random(7)
    for _ in range(5):
        rng.shuffle(keys)
        tensor = Tensor(T_PARAMS, 3, 3, {k: T for k in keys})
        assert [idx for idx, _ in tensor.nonzero] == sorted(keys)


def test_equal_lie_algebras_hash_equal():
    direct = LieAlgebra(3, T_PARAMS, Tensor(T_PARAMS, 3, 3, {
        (0, 1, 2): T, (1, 0, 2): -T}))
    rows = LieAlgebra.from_brackets(3, T_PARAMS, {(1, 2): {3: "t"}})
    assert direct == rows and hash(direct) == hash(rows)
    twins = [alg.evaluate({"t": 2}) for alg in (direct, rows)]
    assert twins[0] == twins[1] and hash(twins[0]) == hash(twins[1])
    assert direct != LieAlgebra.abelian(3, T_PARAMS)


def test_tensors_share_one_zero_per_parameter_list():
    assert Tensor(T_PARAMS, 2, 1, {}).at((0,)) is Tensor(
        ("t",), 3, 2, {}).at((1, 2))
    for _ in range(2):  # a refused list is refused every time
        with pytest.raises(ValueError) as exc:
            Tensor(("t", "s", "t"), 2, 1, {})
        assert str(exc.value) == "parameter 't' is listed twice"


def test_term_width_mismatch_raises():
    with pytest.raises(ParameterMismatchError):
        Tensor(T_PARAMS, 2, 1, {(0,): Poly.variable("s", ("t", "s"))})
