"""Lie algebra layer: brackets, Jacobi, adjoint, Killing form."""

import random
from fractions import Fraction

import pytest

from nordenlab import (
    LieAlgebra,
    ParameterMismatchError,
    Poly,
    StructureError,
    Tensor,
    parse_poly,
)
from nordenlab.lie import format_vector
from reference import ad_matrix, vec_sub

P3 = ("l1", "l2", "l3")


def rand_vec(rnd, dim):
    return tuple(Fraction(rnd.randint(-4, 4), rnd.randint(1, 3))
                 for _ in range(dim))


def b_apply(form, u, v):
    """Evaluate a bilinear form given by a PolyMatrix on two vectors."""
    total = Poly.zero(form.params)
    for i, row in enumerate(form.components):
        for j, b in enumerate(row):
            total = total + u[i] * b * v[j]
    return total


# -- construction ----------------------------------------------------------

def test_rejects_non_antisymmetric_gamma():
    # mirror entry (1, 0, 0) left at 0
    gamma = Tensor((), 2, 3, {(0, 1, 0): Poly.constant(1)})
    with pytest.raises(StructureError):
        LieAlgebra(2, (), gamma)


def test_rejects_gamma_over_another_parameter_list():
    # the mismatch would otherwise surface only in a derived tensor
    a = Poly.variable("a", ("a",))
    gamma = Tensor(("a",), 3, 3, {(0, 1, 2): a, (1, 0, 2): -a})
    with pytest.raises(ParameterMismatchError,
                       match=r"over \('a',\), not \('x',\)"):
        LieAlgebra(3, ("x",), gamma)
    with pytest.raises(ParameterMismatchError):
        LieAlgebra(3, (), gamma)
    assert LieAlgebra(3, ["a"], gamma).params == ("a",)


def test_from_brackets_validation():
    with pytest.raises(StructureError):
        LieAlgebra.from_brackets(3, (), {(2, 1): {3: 1}})  # i >= j
    with pytest.raises(StructureError):
        LieAlgebra.from_brackets(3, (), {(1, 4): {3: 1}})  # j out of range
    with pytest.raises(StructureError):
        LieAlgebra.from_brackets(3, (), {(1, 2): {7: 1}})  # target out of range


def test_abelian():
    g = LieAlgebra.abelian(4)
    assert all(c.is_zero for c in g.bracket_basis(1, 2))
    assert g.check_jacobi().ok
    assert g.killing_form().is_zero


# -- bracket algebra -------------------------------------------------------

def test_bracket_basis_rows(falg):
    g = falg.algebra
    assert format_vector(g.bracket_basis(2, 3)) == "l1*X5 + l2*X6"
    assert format_vector(g.bracket_basis(3, 4)) == "l1*X1 - l3*X6"
    assert format_vector(g.bracket_basis(5, 6)) == "-l1*X2 - l2*X3"
    # mirror row
    assert g.bracket_basis(3, 2) == tuple(-v for v in g.bracket_basis(2, 3))


def test_structure_constant_accessor(falg):
    g = falg.algebra
    assert g.structure_constant(1, 2, 4) == parse_poly("l2", P3)
    assert g.structure_constant(2, 1, 4) == parse_poly("-l2", P3)
    assert g.structure_constant(1, 2, 1) == Poly.zero(P3)
    with pytest.raises(IndexError):
        g.structure_constant(0, 1, 2)


def test_bracket_is_antisymmetric_and_bilinear(falg):
    g = falg.algebra
    rnd = random.Random(314159)
    for _ in range(12):
        x, y, z = (rand_vec(rnd, 6) for _ in range(3))
        a = Fraction(rnd.randint(-3, 3), rnd.randint(1, 2))
        assert all(c.is_zero for c in g.bracket(x, x))
        assert g.bracket(x, y) == tuple(-v for v in g.bracket(y, x))
        left = g.bracket(tuple(a * xi + yi for xi, yi in zip(x, y)), z)
        split = vec_sub(left, tuple(v * a for v in g.bracket(x, z)))
        assert vec_sub(split, g.bracket(y, z)) == (Poly.zero(P3),) * 6


def test_bracket_rows_iteration(falg):
    rows = list(falg.algebra.bracket_rows())
    assert len(rows) == 15  # every i < j pair is nonzero for this family
    assert rows == sorted(rows, key=lambda r: (r[0], r[1]))
    i, j, targets = rows[0]
    assert (i, j) == (1, 2)
    assert set(targets) == {4, 5}


# -- Jacobi ----------------------------------------------------------------

def test_jacobi_holds_for_semidirect_example():
    # [X1,X2] = X3, [X1,X3] = X2 closes up: so(1,1) acting on a plane
    g = LieAlgebra.from_brackets(3, (), {(1, 2): {3: 1}, (1, 3): {2: 1}})
    assert g.check_jacobi().ok


def test_jacobi_violation_is_reported():
    g = LieAlgebra.from_brackets(3, (), {(1, 2): {3: 1}, (1, 3): {1: 1}})
    result = g.check_jacobi()
    assert not result.ok
    assert len(result.violations) == 1
    i, j, k, residual = result.violations[0]
    assert (i, j, k) == (1, 2, 3)
    assert format_vector(residual) == "-X3"
    assert g.jacobiator(1, 2, 3) == residual


def test_jacobi_family(falg):
    assert falg.algebra.check_jacobi().ok


# -- adjoint and Killing ---------------------------------------------------

def test_ad_matrix_columns_are_brackets(falg):
    g = falg.algebra
    for i in (1, 4, 6):
        ad = ad_matrix(g, g.basis_vector(i))
        for j in range(1, 7):
            col = tuple(ad[k][j - 1] for k in range(6))
            assert col == g.bracket_basis(i, j)


def test_ad_of_x_kills_x(falg):
    g = falg.algebra
    rnd = random.Random(271828)
    for _ in range(8):
        x = rand_vec(rnd, 6)
        image = [sum(row[j] * x[j] for j in range(6))
                 for row in ad_matrix(g, x)]
        assert all(c.is_zero for c in image)


def test_killing_form_symmetric_and_ad_invariant(falg):
    g = falg.algebra
    B = g.killing_form()
    assert B.components == tuple(zip(*B.components))
    for i in range(1, 7):
        for j in range(1, 7):
            for k in range(1, 7):
                lhs = b_apply(B, g.bracket_basis(i, j), g.basis_vector(k))
                rhs = b_apply(B, g.basis_vector(j), g.bracket_basis(i, k))
                assert (lhs + rhs).is_zero


def test_killing_form_of_nilpotent_vanishes(heisenberg6):
    assert heisenberg6.algebra.killing_form().is_zero


# -- evaluation ------------------------------------------------------------

def test_evaluate_specializes_brackets(falg):
    g = falg.algebra.evaluate({"l1": 1, "l2": 1, "l3": 1})
    assert g.params == ()
    assert format_vector(g.bracket_basis(1, 4)) == "X2 - X3 + X5 - X6"
    assert g.check_jacobi().ok


def test_evaluate_commutes_with_bracket(falg):
    g = falg.algebra
    point = {"l1": Fraction(2), "l2": Fraction(-1, 2), "l3": Fraction(3)}
    ge = g.evaluate(point)
    for i in range(1, 7):
        for j in range(1, 7):
            sym = tuple(c.evaluate(point) for c in g.bracket_basis(i, j))
            num = tuple(c.constant_value() for c in ge.bracket_basis(i, j))
            assert sym == num


# -- rendering -------------------------------------------------------------

def test_format_vector_cases(falg):
    g = falg.algebra
    assert format_vector((Poly.zero(P3),) * 6) == "0"
    assert format_vector(g.basis_vector(3)) == "X3"
    two_term = tuple(parse_poly(t, P3) for t in ("l1 + l2", "0", "0"))
    assert format_vector(two_term) == "(l1 + l2)*X1"
