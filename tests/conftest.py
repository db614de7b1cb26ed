"""Shared fixtures.

The symbolic pipeline on the three-parameter family (connection, curvature,
covariant derivative of R) takes a couple of seconds, so everything derived
from it is computed once per session and shared read-only across modules.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from reference import many_term_spec, rebased
from nordenlab import (
    AlmostNordenAlgebra,
    LieAlgebra,
    Table1Family,
    build_table1,
    curvature_R,
    levi_civita,
    nabla_R,
    parse_spec_text,
    ricci_and_scalar,
)
from nordenlab.linalg import RationalMatrix

DATA_DIR = Path(__file__).parent / "data"

#: Every structure constant and connection coefficient of the family at
#: this point is a plain rational, which keeps the dense case fast.
TWIN_POINT = {"l1": Fraction(3, 2), "l2": -2, "l3": Fraction(5, 7)}


@pytest.fixture(scope="session")
def family() -> Table1Family:
    return build_table1()


@pytest.fixture(scope="session")
def falg(family):
    return family.algebra


@pytest.fixture(scope="session")
def ftensor(falg):
    return falg.tensor_F()


@pytest.fixture(scope="session")
def fconn(falg):
    return levi_civita(falg)


@pytest.fixture(scope="session")
def fcurv(falg, fconn):
    return curvature_R(falg, fconn)


@pytest.fixture(scope="session")
def fricci(falg, fcurv):
    return ricci_and_scalar(falg, fcurv)


@pytest.fixture(scope="session")
def fnabla_r(falg, fconn, fcurv):
    return nabla_R(falg, fconn, fcurv)


@pytest.fixture(scope="session")
def twin(falg):
    """The numeric twin of the family at TWIN_POINT."""
    return falg.evaluate(TWIN_POINT)


@pytest.fixture(scope="session")
def sheared(twin):
    """The twin in the basis given by P = U U^T, with U the upper unit
    triangular matrix of ones: every connection coefficient not forced
    to vanish is nonzero, so the scatter skips nothing."""
    U = RationalMatrix([[int(j >= i) for j in range(6)] for i in range(6)])
    a = rebased(twin, U @ U.transpose())
    # grad_{X_i} X_i = 0 for an invariant metric: 36 of 216 must vanish
    assert len(levi_civita(a).nonzero) == 216 - 36
    return a


@pytest.fixture(scope="session")
def sheared_heisenberg6(heisenberg6):
    """heisenberg6 in the basis of the ``sheared`` fixture: a general,
    non-invariant metric whose lowered connection T (68 nonzero) and
    raised connection (118 nonzero) have different patterns."""
    U = RationalMatrix([[int(j >= i) for j in range(6)] for i in range(6)])
    return rebased(heisenberg6, U @ U.transpose())


@pytest.fixture(scope="session")
def sheared_family(falg):
    """The symbolic family under a two-cell shear of its basis: 116
    nonzero structure constants instead of 72, with up to three terms
    each, and 176 violations of the commutator orthogonality."""
    P = [[Fraction(int(i == j)) for j in range(6)] for i in range(6)]
    P[0][1], P[3][5] = Fraction(2, 3), Fraction(-5, 4)
    return rebased(falg, RationalMatrix(P))


@pytest.fixture(scope="session")
def abelian6() -> AlmostNordenAlgebra:
    return AlmostNordenAlgebra(LieAlgebra.abelian(6))


@pytest.fixture(scope="session")
def affine6() -> AlmostNordenAlgebra:
    # [X1, X2] = X1 padded to six dimensions; the default metric on it is
    # not invariant, so this exercises the general Koszul branch.
    return AlmostNordenAlgebra(LieAlgebra.from_brackets(6, (), {(1, 2): {1: 1}}))


@pytest.fixture(scope="session")
def heisenberg6() -> AlmostNordenAlgebra:
    # [X1, X2] = X3 padded to six dimensions; nilpotent, not locally
    # symmetric, useful wherever a nonzero nabla-R is needed.
    return AlmostNordenAlgebra(LieAlgebra.from_brackets(6, (), {(1, 2): {3: 1}}))


@pytest.fixture(scope="session")
def null_heisenberg6() -> AlmostNordenAlgebra:
    """heisenberg6 in a basis with a null vector, g(E4, E4) = 0: its
    coordinate planes take all four types, and a34 is degenerate with
    R_3443 = 1/4."""
    text = (DATA_DIR / "null_heisenberg6.spec").read_text(encoding="utf-8")
    return parse_spec_text(text).to_algebra()


@pytest.fixture(scope="session")
def scaled_table1() -> AlmostNordenAlgebra:
    """table1 with the metric diag(1/2, 1/3, 2, -1/2, -1/3, -2): g and
    g^-1 weigh every contraction over a denominator above 1, the metric
    is not invariant and grad R is nonzero."""
    text = (DATA_DIR / "scaled_table1.spec").read_text(encoding="utf-8")
    return parse_spec_text(text).to_algebra()


@pytest.fixture(scope="session")
def degenerate_plane() -> AlmostNordenAlgebra:
    # nondegenerate Norden metric whose a12 coordinate plane is null
    g = RationalMatrix([[1, 1, 1, 0], [1, 1, 0, 1],
                        [1, 0, -1, -1], [0, 1, -1, -1]])
    return AlmostNordenAlgebra(LieAlgebra.abelian(4), g=g)


def filiform(dim: int) -> AlmostNordenAlgebra:
    """The filiform chain [X1, Xk] = t*X(k+1), k = 2..dim-1."""
    brackets = {(1, k): {k + 1: "t"} for k in range(2, dim)}
    return AlmostNordenAlgebra(LieAlgebra.from_brackets(dim, ("t",), brackets))


@pytest.fixture(scope="session")
def filiform8() -> AlmostNordenAlgebra:
    return filiform(8)


@pytest.fixture(scope="session")
def filiform10() -> AlmostNordenAlgebra:
    return filiform(10)


@pytest.fixture(scope="session")
def filiform20() -> AlmostNordenAlgebra:
    return filiform(20)


def many_term(seed: int) -> AlmostNordenAlgebra:
    """The filiform chain of ``many_term_spec(8, 16, Random(seed))``:
    every structure constant has sixteen terms in three parameters."""
    return parse_spec_text(many_term_spec(8, 16, random.Random(seed))
                           ).to_algebra()


@pytest.fixture(scope="session")
def many_term0() -> AlmostNordenAlgebra:
    return many_term(0)


@pytest.fixture(scope="session")
def many_term1() -> AlmostNordenAlgebra:
    return many_term(1)


@pytest.fixture(scope="session")
def many_term2() -> AlmostNordenAlgebra:
    return many_term(2)


@pytest.fixture(scope="session")
def abelian20() -> AlmostNordenAlgebra:
    """A spec of twenty dimensions and no bracket: every derived tensor
    is empty."""
    return parse_spec_text("dimension = 20\nparameters = t\n").to_algebra()


@pytest.fixture(scope="session")
def spec_fixture_path() -> Path:
    return DATA_DIR / "table1.spec"


# -- inputs that fail a structure check --------------------------------------

@pytest.fixture(scope="session")
def jacobi_violator() -> LieAlgebra:
    # [X1,X2] = X3, [X1,X3] = X1: the Jacobiator of (1, 2, 3) is -X3
    return LieAlgebra.from_brackets(3, (), {(1, 2): {3: 1}, (1, 3): {1: 1}})


@pytest.fixture(scope="session")
def orthogonality_violator() -> AlmostNordenAlgebra:
    # g([X1,X2],[X4,X5]) = g(X3, X3) = 1
    return AlmostNordenAlgebra(LieAlgebra.from_brackets(
        6, (), {(1, 2): {3: 1}, (4, 5): {3: 1}}))


@pytest.fixture(scope="session")
def isotropy_violator() -> AlmostNordenAlgebra:
    # [X1, J X1] = [X1, X4] = X1 is not isotropic
    return AlmostNordenAlgebra(LieAlgebra.from_brackets(6, (), {(1, 4): {1: 1}}))


@pytest.fixture(scope="session")
def perturbed(spec_fixture_path) -> AlmostNordenAlgebra:
    """The family with the [X2,X3] row shifted off the identity: Jacobi,
    invariance and eq22 all fail."""
    text = spec_fixture_path.read_text(encoding="utf-8")
    return parse_spec_text(text.replace(
        "2 3 -> 5: l1; 6: l2\n", "2 3 -> 5: l1 + 1; 6: l2\n")).to_algebra()
