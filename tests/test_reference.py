"""The scatter contractions against the dense reference loops.

Connection, curvature and grad R are compared component for component
with ``tests/reference.py`` on the three-parameter family, the
Heisenberg and affine fixtures, filiform chains and a dense input.  On
every invariant (ad-skew) metric grad R must vanish (Milnor, Curvatures
of left invariant metrics on Lie groups, Adv. Math. 21, 1976), whatever
the basis.
"""

from fractions import Fraction

import pytest

import reference
from nordenlab import (
    AlmostNordenAlgebra,
    LieAlgebra,
    Poly,
    curvature_R,
    is_locally_symmetric,
    levi_civita,
    nabla_R,
)
from nordenlab.linalg import RationalMatrix

#: Every structure constant and connection coefficient of the family at
#: this point is a plain rational, which keeps the dense case fast.
POINT = {"l1": Fraction(3, 2), "l2": -2, "l3": Fraction(5, 7)}


def filiform(dim):
    brackets = {(1, k): {k + 1: "t"} for k in range(2, dim)}
    return AlmostNordenAlgebra(LieAlgebra.from_brackets(dim, ("t",), brackets))


def rebased(a, P):
    """``a`` written in the basis E_b = sum_i P[i][b] X_i."""
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


@pytest.fixture(scope="module")
def sheared(falg):
    """The family at POINT in the basis given by P = U L, with U and L
    the unit triangular matrices of ones: every connection coefficient
    not forced to vanish is nonzero, so the scatter skips nothing."""
    U = RationalMatrix([[int(j >= i) for j in range(6)] for i in range(6)])
    P = U @ U.transpose()
    a = rebased(falg.evaluate(POINT), P)
    # grad_{X_i} X_i = 0 for an invariant metric: 36 of 216 must vanish
    assert len(levi_civita(a).nonzero()) == 216 - 36
    return a


@pytest.fixture(scope="module")
def filiform8():
    return filiform(8)


@pytest.fixture(scope="module")
def filiform10():
    return filiform(10)


@pytest.mark.parametrize("name, invariant", [
    ("falg", True), ("abelian6", True), ("sheared", True),
    ("heisenberg6", False), ("affine6", False), ("filiform8", False),
    ("filiform10", False)])
def test_curvature_and_nabla_match_dense_reference(name, invariant, request):
    a = request.getfixturevalue(name)
    c = levi_civita(a)
    R = curvature_R(a, c)
    assert R == reference.curvature_R(a, c)
    nabla_r = nabla_R(a, c, R)
    assert nabla_r == reference.nabla_R(a, c, R)
    assert a.check_invariant_metric().ok == invariant
    if invariant:  # Milnor: an ad-skew metric has grad R = 0
        assert is_locally_symmetric(nabla_r)
