"""The scatter contractions against the dense reference loops.

Connection, curvature, grad R, the Killing form and F are compared
component for component with ``tests/reference.py`` on the
three-parameter family, its numeric twin and a symbolic shear of it, the
Heisenberg and affine fixtures, filiform chains, a dense input and a
sheared Heisenberg algebra.  On the last, a general metric whose lowered
and raised connections differ in pattern, the dense loops are the only
independent route to R.  F must equal G/2 on every invariant metric
and the Levi-Civita connection lowered with g on the others.  On every invariant (ad-skew) metric grad R
must vanish (Milnor, Curvatures of left invariant metrics on Lie groups,
Adv. Math. 21, 1976), whatever the basis.

The structure checks read the cached Jacobiator and bracket Gram
tensors; their results must equal the per-tuple loops whole, violations
in the same order, on the same inputs plus the numeric twin, the
symbolic sheared family and the inputs built to fail a check.

``plane_type`` reads only the nonzero components of its spanning
vectors; it must give the dense classifier's type on every coordinate
plane of every input and on seeded random rational planes, holomorphic
and dependent ones included.  The one sparse elimination behind it and
behind ``RationalMatrix.inverse``, ``determinant`` and ``rational_rank``
must match the dense Gauss-Jordan loop on seeded random matrices,
singular ones included: the same inverse, determinant and rank, and the
same first pivot-free column in ``SingularMatrixError``.

Tensors store only their nonzero components, so each one is also read
with ``component`` at every 1-based index, zeros included, against the
dense grids of ``reference``: Gamma, F, R, Ricci, the Killing form, each
grad R block, the Jacobiator and the bracket Gram tensor.
"""

import random
from fractions import Fraction
from itertools import combinations, product

import pytest

import reference
from nordenlab import (PlaneSpec, check_eq22, coordinate_plane,
                       curvature_invariant_formula, curvature_R,
                       is_locally_symmetric, levi_civita, nabla_R,
                       parse_spec_text, plane_type, ricci_and_scalar,
                       rational_rank)
from nordenlab.curvature import nabla_R_blocks
from nordenlab.errors import SingularMatrixError
from nordenlab.linalg import RationalMatrix


def assert_dense(T, dense):
    """``T.component`` equals the dense grid at every 1-based index."""
    for idx in product(range(T.dim), repeat=T.rank):
        assert T.component(*(i + 1 for i in idx)) == reference.dense_at(
            dense, idx), idx

FIXTURES = [("falg", True), ("abelian6", True), ("sheared", True),
            ("heisenberg6", False), ("affine6", False), ("filiform8", False),
            ("filiform10", False), ("twin", True), ("sheared_family", True),
            ("sheared_heisenberg6", False)]


def assert_curvature_matches_dense_reference(a):
    """R, its Ricci matrix and every grad R block equal the dense loops;
    returns grad R."""
    c = levi_civita(a)
    R = curvature_R(a, c)
    assert R == reference.curvature_R(a, c)
    assert_dense(R, reference.curvature_R_grid(a, c))
    assert_dense(ricci_and_scalar(a, R)[0], reference.ricci_grid(a, R))
    nabla_r = nabla_R(a, c, R)
    dense_nabla_r = reference.nabla_R(a, c, R)
    assert nabla_r == dense_nabla_r
    for block, dense in zip(nabla_R_blocks(a, c, R), dense_nabla_r,
                            strict=True):
        assert_dense(block, dense)
    return nabla_r


@pytest.mark.parametrize("name, invariant", FIXTURES)
def test_curvature_and_nabla_match_dense_reference(name, invariant, request):
    a = request.getfixturevalue(name)
    nabla_r = assert_curvature_matches_dense_reference(a)
    assert a.check_invariant_metric().ok == invariant
    if invariant:  # Milnor: an ad-skew metric has grad R = 0
        assert is_locally_symmetric(nabla_r)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_many_term_curvature_and_nabla_match_dense_reference(seed):
    # four terms in three parameters per bracket: every product of R and
    # grad R is a product of multi-term polynomials
    spec = reference.many_term_spec(6, 4, random.Random(seed))
    assert_curvature_matches_dense_reference(
        parse_spec_text(spec).to_algebra())


def test_curvature_of_a_jacobi_violation_matches_dense_reference(perturbed):
    # R is built at i < j and negated into i > j: that antisymmetry must
    # hold for a bracket that is no Lie bracket too (grad R refuses this R)
    c = levi_civita(perturbed)
    R = curvature_R(perturbed, c)
    assert R == reference.curvature_R(perturbed, c)
    assert_dense(R, reference.curvature_R_grid(perturbed, c))


@pytest.mark.parametrize("name", [name for name, _ in FIXTURES])
def test_killing_form_matches_dense_reference(name, request):
    alg = request.getfixturevalue(name).algebra
    B = alg.killing_form()
    dense = reference.killing_form(alg)
    assert B == dense
    assert_dense(B, reference.killing_form_grid(alg))
    assert B.determinant() == dense.determinant()


@pytest.mark.parametrize("name, invariant", FIXTURES)
def test_tensor_f_matches_both_reference_routes(name, invariant, request):
    a = request.getfixturevalue(name)
    route = (reference.tensor_f_invariant if invariant
             else reference.tensor_f_general)
    assert a.tensor_F() == route(a)
    assert levi_civita(a) == reference.levi_civita(a)
    assert_dense(a.tensor_F(), reference.tensor_f_grid(a))
    assert_dense(levi_civita(a), reference.connection_grid(a))


#: Every almost Norden input, and how many eq22 violations it has.
CHECKED = [("falg", 0), ("abelian6", 0), ("twin", 0), ("sheared", 365),
           ("sheared_family", 176), ("heisenberg6", 0), ("affine6", 0),
           ("filiform8", 2), ("filiform10", 2),
           ("orthogonality_violator", 8), ("isotropy_violator", 2),
           ("perturbed", 8)]


@pytest.mark.parametrize("name", [name for name, _ in CHECKED]
                         + ["jacobi_violator"])
def test_jacobiator_matches_per_tuple_reference(name, request):
    alg = request.getfixturevalue(name)
    alg = getattr(alg, "algebra", alg)
    assert alg.check_jacobi() == reference.check_jacobi(alg)
    # every ordered triple: odd permutations and repeated indices too
    for i, j, k in product(range(1, alg.dim + 1), repeat=3):
        assert alg.jacobiator(i, j, k) == reference.jacobiator(alg, i, j, k)
    zero = (0,) * alg.dim  # stored at i < j < k only
    assert_dense(alg.jacobiator_tensor, reference.grid(alg.dim, 3, lambda t: (
        reference.jacobiator(alg, *(i + 1 for i in t))
        if t[0] < t[1] < t[2] else zero)))


@pytest.mark.parametrize("name, count", CHECKED)
def test_eq22_and_bracket_curvature_match_per_tuple_reference(name, count,
                                                              request):
    a = request.getfixturevalue(name)
    result = check_eq22(a)
    assert result == reference.check_eq22(a)
    assert len(result.violations) == count
    assert (curvature_invariant_formula(a)
            == reference.curvature_invariant_formula(a))
    assert_dense(a.bracket_gram, reference.bracket_gram_grid(a))
    assert a.check_invariant_metric() == reference.check_invariant_metric(a)


def plane_type_or_error(classify, a, plane):
    try:
        return classify(a, plane)
    except ValueError as exc:
        return f"ValueError: {exc}"


@pytest.mark.parametrize("name", [name for name, _ in CHECKED])
def test_plane_types_match_dense_reference(name, request):
    a = request.getfixturevalue(name)
    for i, j in combinations(range(1, a.dim + 1), 2):
        plane = coordinate_plane(a.dim, i, j)
        assert plane_type(a, plane) == reference.plane_type(a, plane), (i, j)
    rng = random.Random(a.dim)
    types = set()
    for _ in range(60):
        # mostly-zero vectors, so supports of every size occur
        x = [Fraction(rng.randint(-3, 3), rng.randint(1, 4))
             if rng.random() < 0.4 else 0 for _ in range(a.dim)]
        y = [Fraction(rng.randint(-3, 3), rng.randint(1, 4))
             if rng.random() < 0.4 else 0 for _ in range(a.dim)]
        for second in (y, a.J.apply(x), [2 * v for v in x],
                       [u + v for u, v in zip(x, a.J.apply(x))]):
            plane = PlaneSpec(x, second)
            got = plane_type_or_error(plane_type, a, plane)
            assert got == plane_type_or_error(reference.plane_type, a, plane)
            types.add(got)
    assert {"holomorphic", "generic",
            "ValueError: spanning vectors are linearly dependent"} <= types


def test_rational_rank_matches_dense_reference():
    rng = random.Random(3)
    for _ in range(200):
        width = rng.randint(1, 6)
        rows = [[Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                 if rng.random() < 0.5 else 0 for _ in range(width)]
                for _ in range(rng.randint(1, 5))]
        if rng.random() < 0.3:  # a combination of the others
            rows.append([sum(r[c] for r in rows) for c in range(width)])
        assert rational_rank(rows) == reference.dense_rank(rows), rows
    # square matrices: inverse, determinant, rank and the pivot-free column
    regular = singular = 0
    for _ in range(300):
        n = rng.randint(1, 6)
        rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                 if rng.random() < 0.6 else Fraction(0) for _ in range(n)]
                for _ in range(n)]
        if n > 1 and rng.random() < 0.3:  # one row the sum of the others
            k = rng.randrange(n)
            rows[k] = [sum(r[c] for i, r in enumerate(rows) if i != k)
                       for c in range(n)]
        inverse, det, rank, column = reference.dense_solve(rows)
        m = RationalMatrix(rows)
        assert m.determinant() == det, rows
        assert rational_rank(rows) == rank, rows
        if column is None:
            regular += 1
            assert m.inverse() == RationalMatrix(inverse), rows
            assert m @ m.inverse() == RationalMatrix.identity(n)
        else:
            singular += 1
            with pytest.raises(SingularMatrixError) as caught:
                m.inverse()
            assert caught.value.column == column, rows
    assert regular > 50 and singular > 50
