"""Rational and polynomial matrices: inversion, signature, rank."""

import random
from fractions import Fraction

import pytest

from nordenlab import (
    DegenerateFormError,
    NonSymmetricMatrixError,
    PolyMatrix,
    RationalMatrix,
    SingularMatrixError,
    parse_poly,
    rational_rank,
    signature,
)


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


def test_signature_examples():
    assert signature(RationalMatrix.identity(4)) == (4, 0)
    assert signature(RationalMatrix.diagonal([1, 1, 1, -1, -1, -1])) == (3, 3)
    assert signature(RationalMatrix.diagonal([-2, -3])) == (0, 2)
    # zero diagonal forces the congruence repair step
    assert signature(RationalMatrix([[0, 1], [1, 0]])) == (1, 1)


def test_signature_hyperbolic_blocks():
    # three hyperbolic planes glued together
    rows = [[0] * 6 for _ in range(6)]
    for k in range(3):
        rows[2 * k][2 * k + 1] = rows[2 * k + 1][2 * k] = 1
    assert signature(RationalMatrix(rows)) == (3, 3)


def test_signature_is_congruence_invariant():
    rnd = random.Random(77)
    for _ in range(8):
        a = rand_invertible(rnd, 4)
        sym = a + a.transpose()  # symmetric, possibly degenerate
        try:
            expected = signature(sym)
        except DegenerateFormError:
            continue
        s = rand_invertible(rnd, 4)
        congruent = s.transpose() @ sym @ s
        assert signature(congruent) == expected


def test_signature_rejects_bad_input():
    with pytest.raises(NonSymmetricMatrixError):
        signature(RationalMatrix([[0, 1], [0, 0]]))
    with pytest.raises(DegenerateFormError):
        signature(RationalMatrix([[1, 0], [0, 0]]))
    with pytest.raises(DegenerateFormError):
        signature(RationalMatrix([[0] * 3] * 3))


def test_rational_rank():
    assert rational_rank([[1, 0], [0, 1]]) == 2
    assert rational_rank([[1, 2], [2, 4]]) == 1
    assert rational_rank([[0, 0]]) == 0
    assert rational_rank([[1, 0, 0], [1, 1, 0], [0, 1, 0], [1, 1, 1]]) == 3


def test_apply_matches_matmul():
    rnd = random.Random(13)
    m = rand_invertible(rnd, 4)
    vec = [Fraction(rnd.randint(-4, 4)) for _ in range(4)]
    out = m.apply(vec)
    for i in range(4):
        assert out[i] == sum(m[i][j] * vec[j] for j in range(4))


P3 = ("l1", "l2", "l3")


def pm(rows):
    return PolyMatrix(P3, [[parse_poly(c, P3) if isinstance(c, str) else c
                            for c in row] for row in rows])


def test_poly_matrix_entry_and_trace():
    m = pm([["l1", "l2"], ["l3", "l1"]])
    assert m.entry(1, 2) == parse_poly("l2", P3)
    assert m.trace() == parse_poly("2*l1", P3)
    assert m.transpose().entry(1, 2) == parse_poly("l3", P3)


def test_poly_matrix_determinant():
    m = pm([["l1", "l2"], ["l3", "l1"]])
    assert m.determinant() == parse_poly("l1^2 - l2*l3", P3)
    three = pm([["l1", "0", "0"], ["0", "l2", "0"], ["0", "0", "l3"]])
    assert three.determinant() == parse_poly("l1*l2*l3", P3)


def test_poly_matrix_matmul_and_evaluate():
    m = pm([["l1", "l2"], ["0", "l3"]])
    sq = m @ m
    assert sq.entry(1, 2) == parse_poly("l1*l2 + l2*l3", P3)
    num = sq.evaluate({"l1": 1, "l2": 2, "l3": 3})
    assert num == RationalMatrix([[1, 8], [0, 9]])


def test_poly_matrix_evaluate_commutes_with_determinant():
    rnd = random.Random(2089)
    for _ in range(6):
        rows = [[parse_poly(f"{rnd.randint(-3, 3)}*l1 + {rnd.randint(-3, 3)}*l2")
                 .with_params(P3) for _ in range(3)] for _ in range(3)]
        m = PolyMatrix(P3, rows)
        point = {"l1": Fraction(rnd.randint(-4, 4), 3), "l2": rnd.randint(-4, 4),
                 "l3": 0}
        assert m.determinant().evaluate(point) == m.evaluate(point).determinant()


def test_poly_matrix_flags():
    z = PolyMatrix(P3, [[0, 0], [0, 0]])
    assert z.is_zero
    assert z.is_symmetric
    m = pm([["l1", "l2"], ["l2", "0"]])
    assert m.is_symmetric
    assert not pm([["l1", "l2"], ["l3", "0"]]).is_symmetric
