"""The scatter contractions against the dense reference loops.

Connection, curvature, grad R, the Killing form, F and the square norm
of grad J are compared with ``tests/reference.py`` on the
three-parameter family, its numeric twin and a symbolic shear of it, the
Heisenberg and affine fixtures, filiform chains, a dense input,
Heisenberg in a basis with a null vector, and a sheared Heisenberg
algebra.  On the last, a general metric whose lowered
and raised connections differ in pattern, the dense loops are the only
independent route to R.  F must equal G/2 on every invariant metric
and the Levi-Civita connection lowered with g on the others.  On every invariant (ad-skew) metric grad R
must vanish (Milnor, Curvatures of left invariant metrics on Lie groups,
Adv. Math. 21, 1976), whatever the basis.  The report answers that
verdict by the theorem where Jacobi holds and g is ad-skew, so its
answer must equal the computed grad R blocks on every input, on seeded
shears and twins of the family, and on seeded ad-skew brackets that
fail Jacobi, where the theorem does not apply and grad R is nonzero.
The witness of that verdict, the first nonzero canonical component,
must be nonzero in its whole block, with every component before it zero
in that block and the earlier ones, on R stored canonically and in full.

The structure checks read the cached Jacobiator and bracket Gram
tensors; their results must equal the per-tuple loops whole, violations
in the same order, on the same inputs plus the numeric twin, the
symbolic sheared family and the inputs built to fail a check.  The
Killing form, the Jacobiator, the bracket Gram tensor and the norm of
grad J are also compared on three seeded filiform chains with sixteen
terms a structure constant, so every product they make is one of
many-term polynomials.  The Jacobiator and the Killing form are compared
on seeded random bracket tables of dimension 5 to 7 too, rational and
polynomial, all failing Jacobi, which between them reach every slice of
the Jacobiator's walk; the Killing form's kernel products are counted,
made at i <= j only.

``plane_type`` must give the dense classifier's type on every
coordinate plane of every input and on seeded random rational planes,
holomorphic and dependent ones included.  On the same seeded planes
``sectional_curvature``, which reads R only where x_i, y_j, y_k and x_l
are all nonzero, must equal R(x, y, y, x) summed over the dense R grid
and divided by the dense discriminant, and raise the same
``DegeneratePlaneError`` or ``ValueError`` exactly where that raises.  The one sparse elimination behind it and
behind ``RationalMatrix.inverse``, ``determinant`` and ``rational_rank``
must match the dense Gauss-Jordan loop on seeded random matrices,
singular ones included: the same inverse, determinant and rank, and the
same first pivot-free column in ``SingularMatrixError``.

The report's sectional table, read from R_ijji, g and J, must equal
``plane_type`` and ``sectional_curvature`` on every coordinate plane of
every input, a null coordinate plane and a Heisenberg basis with all
four plane types included.  The slot-symmetry guard must raise the
message of the reference loop, or pass with it, on seeded perturbed
copies of R and on crafted breaks.

Tensors store only their nonzero components, so each one is also read
with ``component`` at every 1-based index, zeros included, against the
dense grids of ``reference``: Gamma, F, R, Ricci, the Killing form, each
grad R block, the Jacobiator and the bracket Gram tensor.  R and each
grad R block are stored at their canonical components only, so they are
also read through ``nonzero``, ``==`` against a plain tensor in both
operand orders, ``evaluate``, ``copy`` and ``pickle``.
"""

import copy
import pickle
import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

import pytest

import reference
from nordenlab import (AlmostNordenAlgebra, Geometry, LieAlgebra, PlaneSpec,
                       Poly, Tensor, check_eq22, coordinate_plane,
                       curvature_invariant_formula, curvature_R,
                       is_locally_symmetric, levi_civita, lie, nabla_R,
                       parse_poly, parse_spec_text, plane_type,
                       ricci_and_scalar, rational_rank, sectional_curvature,
                       square_norm_nabla_J)
from nordenlab.curvature import (_SlotSymmetric, _check_slot_symmetries,
                                 coordinate_sectional, nabla_R_blocks,
                                 nabla_R_witness)
from nordenlab.errors import (DegeneratePlaneError, SingularMatrixError,
                              StructureError)
from nordenlab.linalg import RationalMatrix
from nordenlab.specfile import MAX_DEGREE, MAX_TERMS


def assert_dense(T, dense):
    """``T.component`` equals the dense grid at every 1-based index."""
    for idx in product(range(T.dim), repeat=T.rank):
        assert T.component(*(i + 1 for i in idx)) == reference.dense_at(
            dense, idx), idx

FIXTURES = [("falg", True), ("abelian6", True), ("sheared", True),
            ("heisenberg6", False), ("affine6", False), ("filiform8", False),
            ("filiform10", False), ("twin", True), ("sheared_family", True),
            ("sheared_heisenberg6", False), ("null_heisenberg6", False),
            ("scaled_table1", False)]

#: The sixteen-term chains of ``conftest.many_term``, seeds 0, 1 and 2.
MANY_TERMS = ["many_term0", "many_term1", "many_term2"]


def assert_canonical_reads_as_dense(T, dense, rebuilt=True):
    """``T`` is stored at its canonical components j < k, l < m,
    (j, k) <= (l, m) only, and reads as the dense grid at every index
    through ``at``, ``component``, ``nonzero``, ``repr``, ``==`` in both
    operand orders against a plain Tensor, ``copy`` and, if ``rebuilt``,
    ``deepcopy``, ``pickle`` and ``evaluate`` (seconds on thousand-term
    components)."""
    assert type(T) is _SlotSymmetric
    assert all(j < k and l < m and (j, k) <= (l, m)
               for j, k, l, m in T._entries)
    for idx in product(range(T.dim), repeat=4):
        want = reference.dense_at(dense, idx)
        assert T.at(idx) == want, idx
        assert T.component(*(i + 1 for i in idx)) == want, idx
    plain = reference.from_grid(T.params, dense)
    assert type(plain) is Tensor and T.nonzero == plain.nonzero
    assert repr(T) == repr(plain)
    assert T == plain and plain == T and not T != plain and not plain != T
    rebuilds = [copy.copy]
    if rebuilt:
        rebuilds += [copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))]
    for rebuild in rebuilds:
        twin = rebuild(T)
        assert type(twin) is _SlotSymmetric and twin._entries == T._entries
        assert twin == plain and plain == twin
    if not rebuilt:
        return
    point = {name: Fraction(n + 2, n + 3) for n, name in enumerate(T.params)}
    numeric, dense_numeric = T.evaluate(point), plain.evaluate(point)
    assert type(numeric) is _SlotSymmetric
    assert set(numeric._entries) <= set(T._entries)
    assert numeric == dense_numeric and dense_numeric == numeric


def assert_curvature_matches_dense_reference(a, rebuilt=True):
    """R, its Ricci matrix and every grad R block equal the dense loops,
    R and each block stored at their canonical components (each block
    read through ``rebuilt`` surfaces as well); returns grad R."""
    c = levi_civita(a)
    R = curvature_R(a, c)
    dense_R = reference.curvature_R_grid(a, c)
    assert_canonical_reads_as_dense(R, dense_R)
    assert_dense(ricci_and_scalar(a, R)[0], reference.ricci_grid(a, R))
    nabla_r = nabla_R(a, c, R)
    dense_nabla_r = reference.nabla_R(a, c,
                                      reference.from_grid(a.params, dense_R))
    assert nabla_r == dense_nabla_r
    for block, dense in zip(nabla_R_blocks(a, c, R), dense_nabla_r,
                            strict=True):
        assert_canonical_reads_as_dense(block, dense, rebuilt)
    return nabla_r


@pytest.mark.parametrize("name, invariant", FIXTURES)
def test_curvature_and_nabla_match_dense_reference(name, invariant, request):
    a = request.getfixturevalue(name)
    assert a.algebra.check_jacobi().ok  # so R takes its canonical route
    nabla_r = assert_curvature_matches_dense_reference(a)
    assert a.check_invariant_metric().ok == invariant
    if invariant:  # Milnor: an ad-skew metric has grad R = 0
        assert is_locally_symmetric(nabla_r)


def computed_verdict(a) -> bool:
    """grad R = 0 decided from every block, never by the theorem."""
    c = levi_civita(a)
    return all(block.is_zero
               for block in nabla_R_blocks(a, c, curvature_R(a, c)))


@pytest.mark.parametrize("name", [name for name, _ in FIXTURES]
                         + MANY_TERMS)
def test_local_symmetry_verdict_matches_the_computed_blocks(name, request):
    a = request.getfixturevalue(name)
    assert Geometry(a).locally_symmetric is computed_verdict(a)


@pytest.mark.parametrize("full", [False, True], ids=["canonical", "full"])
@pytest.mark.parametrize("name", [name for name, _ in FIXTURES]
                         + MANY_TERMS)
def test_nabla_R_witness_is_the_first_nonzero_component_of_the_blocks(
        name, full, request):
    # the whole blocks are the independent route: the witness is nonzero
    # there, every canonical component before it, in its block and in
    # every earlier one, is zero, and it is None exactly when they all
    # vanish; an R stored in full that passes the slot check gives the
    # answer of its canonical copy, and the report keeps the same one
    a = request.getfixturevalue(name)
    c = levi_civita(a)
    R = curvature_R(a, c)
    if full:
        R = Tensor(a.params, a.dim, 4, dict(R.nonzero))
    blocks = list(nabla_R_blocks(a, c, R))
    witness = nabla_R_witness(a, c, R)
    assert (witness is None) is all(block.is_zero for block in blocks)
    if witness is not None:
        i, j, k, l, m = witness
        assert j < k and l < m and (j, k) <= (l, m)
        assert not blocks[i].at((j, k, l, m)).is_zero
        assert all((n, *key) >= witness
                   for n, block in enumerate(blocks) for key in block._entries)
    assert Geometry(a).nabla_R_witness == witness


def test_worst_spec_sits_at_every_limit():
    # six parameters, and every coefficient of MAX_TERMS terms, each of
    # total degree MAX_DEGREE: the spec the limits allow at its largest
    a = parse_spec_text(reference.worst_spec(8, random.Random(1))).to_algebra()
    assert len(a.params) == 6
    constants = [v for (i, _, _), v in a.algebra.gamma.nonzero if i == 0]
    assert len(constants) == 6
    for v in constants:
        assert len(v.nums) == MAX_TERMS
        assert {sum(e) for e in v.terms} == {MAX_DEGREE}


def seeded_shear(falg, seed: int) -> AlmostNordenAlgebra:
    """The family in the basis P = I + N, N nonzero at (1, 2) and (4, 6)
    (1-based) with seeded rationals: the benchmark's sheared copy."""
    rng = random.Random(seed)
    P = [[Fraction(int(i == j)) for j in range(6)] for i in range(6)]
    for i, j in ((0, 1), (3, 5)):
        P[i][j] = Fraction(rng.choice([n for n in range(-9, 10) if n]),
                           rng.randint(1, 9))
    return reference.rebased(falg, RationalMatrix(P))


def ad_skew_brackets(seed: int) -> AlmostNordenAlgebra:
    """c_ij^k = g^kk G_ijk for a seeded totally antisymmetric G over
    g = diag(1, 1, 1, -1, -1, -1), all 20 of its values nonzero: g is
    ad-skew by construction, and Jacobi fails."""
    rng = random.Random(seed)
    brackets: dict = {}
    for i, j, k in combinations(range(6), 3):
        v = rng.choice([-3, -2, -1, 1, 2, 3])
        for (x, y, z), w in (((i, j, k), v), ((i, k, j), -v), ((j, k, i), v)):
            brackets.setdefault((x + 1, y + 1), {})[z + 1] = (
                w if z < 3 else -w)
    return AlmostNordenAlgebra(LieAlgebra.from_brackets(6, (), brackets))


@pytest.mark.parametrize("kind, seed", [("shear", s) for s in range(4)]
                         + [("twin", 0), ("twin", 1)]
                         + [("ad_skew", s) for s in range(4)])
def test_theorem_verdict_holds_only_where_jacobi_does(kind, seed, falg):
    # the theorem needs both conditions: the ad-skew brackets have the
    # invariant metric but not Jacobi, and a nonzero grad R
    if kind == "shear":
        a = seeded_shear(falg, seed)
    elif kind == "twin":
        a = falg.evaluate([{"l1": 2, "l2": Fraction(-1, 3), "l3": 7},
                           {"l1": Fraction(-5, 4), "l2": 3,
                            "l3": Fraction(1, 2)}][seed])
    else:
        a = ad_skew_brackets(seed)
    lie = kind != "ad_skew"
    assert a.check_invariant_metric().ok
    assert a.algebra.check_jacobi().ok is lie
    assert Geometry(a).locally_symmetric is computed_verdict(a) is lie


def test_theorem_verdict_leaves_the_jacobi_violation_refused(perturbed):
    assert not perturbed.algebra.check_jacobi().ok
    with pytest.raises(StructureError, match=r"R\(j,k,l,m\) = R\(l,m,j,k\) "
                       r"at \(j,k,l,m\) = \(1, 2, 2, 3\)"):
        Geometry(perturbed).locally_symmetric


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_many_term_curvature_and_nabla_match_dense_reference(seed):
    # four terms in three parameters per bracket: every product of R and
    # grad R is a product of multi-term polynomials
    spec = reference.many_term_spec(6, 4, random.Random(seed))
    assert_curvature_matches_dense_reference(
        parse_spec_text(spec).to_algebra())


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_canonical_curvature_matches_dense_reference_on_many_terms(seed):
    # sixteen terms per bracket at dim 8: R and each grad R block are
    # made and stored at their canonical components only, the dense
    # loops make every component; blocks of up to 1811 terms a component
    # are not rebuilt (every FIXTURES block is)
    a = parse_spec_text(reference.many_term_spec(
        8, 16, random.Random(seed))).to_algebra()
    assert a.algebra.check_jacobi().ok
    assert_curvature_matches_dense_reference(a, rebuilt=False)


def slot_symmetric_tensor(a, rng):
    """A rank-4 tensor over ``a``'s parameters with R_jklm = -R_kjlm =
    -R_jkml = R_lmjk and, in general, no first Bianchi identity: seeded
    values at about half the components j < k, l < m, (j, k) <= (l, m),
    each copied over its orbit."""
    entries = {}
    pairs = combinations(range(a.dim), 2)
    for (j, k), (l, m) in combinations_with_replacement(pairs, 2):
        if rng.random() < 0.5:
            continue
        v = Poly(a.params, {tuple(rng.randint(0, 1) for _ in a.params):
                            Fraction(rng.randint(1, 9), rng.randint(1, 4))})
        for key, value in (((j, k, l, m), v), ((k, j, l, m), -v),
                           ((j, k, m, l), -v), ((k, j, m, l), v)):
            entries[key] = entries[key[2:] + key[:2]] = value
    return Tensor(a.params, a.dim, 4, entries)


@pytest.mark.parametrize("name", ["heisenberg6", "sheared_heisenberg6",
                                  "falg"])
def test_nabla_r_needs_only_the_slot_symmetries_it_checks(name, request):
    # grad R is read from one contraction through R's slot symmetries,
    # not through the first Bianchi identity, which these tensors break
    a = request.getfixturevalue(name)
    c = levi_civita(a)
    R = slot_symmetric_tensor(a, random.Random(name))
    assert any(R.at((j, k, l, m)) + R.at((k, l, j, m)) + R.at((l, j, k, m))
               for j, k, l, m in product(range(a.dim), repeat=4))
    for block, dense in zip(nabla_R_blocks(a, c, R),
                            reference.nabla_R(a, c, R), strict=True):
        assert_dense(block, dense)


def guard_message(check, R):
    """The message of the StructureError ``check(R)`` raises, or None."""
    try:
        check(R)
    except StructureError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("name", ["heisenberg6", "sheared_heisenberg6",
                                  "null_heisenberg6", "falg"])
def test_slot_symmetry_guard_matches_the_reference_loop(name, request):
    # the guard must accept exactly what the reference loop accepts and,
    # where it refuses, name that loop's first violation
    a = request.getfixturevalue(name)
    R = curvature_R(a, levi_civita(a))
    rng = random.Random(name)
    messages = set()
    for _ in range(150):
        entries = dict(R.nonzero)
        for _ in range(rng.randint(1, 2)):
            idx = rng.choice(sorted(entries))
            delta = Poly.constant(
                Fraction(rng.randint(1, 5), rng.randint(1, 3)), a.params)
            kind = rng.choice(["add", "negate", "drop", "pair", "orbit"])
            if kind == "add":  # any index, stored or not
                idx = tuple(rng.randrange(a.dim) for _ in range(4))
                entries[idx] = entries.get(idx, Poly.zero(a.params)) + delta
            elif kind == "negate":
                entries[idx] = -entries[idx]
            elif kind == "drop":
                del entries[idx]
            elif kind == "pair":  # antisymmetric in both pairs, not swapped
                (j, k), (l, m) = (rng.sample(range(a.dim), 2),
                                  rng.sample(range(a.dim), 2))
                for key, sign in (((j, k, l, m), 1), ((k, j, l, m), -1),
                                  ((j, k, m, l), -1), ((k, j, m, l), 1)):
                    entries[key] = (entries.get(key, Poly.zero(a.params))
                                    + sign * delta)
            else:  # negate a whole orbit: every symmetry still holds
                j, k, l, m = idx
                orbit = {(j, k, l, m), (k, j, l, m),
                         (j, k, m, l), (k, j, m, l)}
                for key in orbit | {key[2:] + key[:2] for key in orbit}:
                    if key in entries:
                        entries[key] = -entries[key]
        perturbed = Tensor(a.params, a.dim, 4, entries)
        message = guard_message(_check_slot_symmetries, perturbed)
        assert message == guard_message(reference.check_slot_symmetries,
                                        perturbed)
        messages.add(message)
    assert None in messages
    for identity in ("-R(k,j,l,m)", "-R(j,k,m,l)", "= R(l,m,j,k)"):
        assert any(identity in m for m in messages if m), identity


@pytest.mark.parametrize("case", ["diagonal", "missing", "antisymmetric",
                                  "representative", "signs", "copies"])
@pytest.mark.parametrize("name", ["heisenberg6", "falg"])
def test_slot_symmetry_guard_on_crafted_tensors(name, case, request):
    # each break is of a kind the guard must catch; equal values stored
    # as distinct objects must pass it on equality alone
    a = request.getfixturevalue(name)
    R = curvature_R(a, levi_civita(a))
    entries = dict(R.nonzero)
    reps = [(idx, w) for idx, w in R.nonzero
            if idx[0] < idx[1] and idx[2] < idx[3] and idx[:2] <= idx[2:]]
    # an orbit of 8 where R has one, else of 4 (heisenberg6 has none of 8)
    (i, j, k, l), v = max(reps, key=lambda rep: rep[0][:2] != rep[0][2:])
    if case == "diagonal":  # a nonzero entry with j = k
        entries[(i, i, k, l)] = v
    elif case == "missing":  # an orbit missing one member
        del entries[(l, k, j, i)]
    elif case == "antisymmetric":  # R_klij right, R_lkij = +R_ijkl wrong
        entries[(l, k, i, j)] = v
    elif case == "representative":  # absent, its orbit-mates stored
        del entries[(i, j, k, l)]
    elif case == "signs":  # every -R_ijkl member agrees with the rest
        for key in ((j, i, k, l), (i, j, l, k), (l, k, i, j), (k, l, j, i)):
            entries[key] = v
    else:
        entries = {idx: -(-w) for idx, w in entries.items()}
    T = Tensor(a.params, a.dim, 4, entries)
    message = guard_message(_check_slot_symmetries, T)
    assert message == guard_message(reference.check_slot_symmetries, T)
    assert (message is None) == (case == "copies")


def test_curvature_of_a_jacobi_violation_matches_dense_reference(perturbed):
    # R is built at i < j and negated into i > j: that antisymmetry must
    # hold for a bracket that is no Lie bracket too (grad R refuses this
    # R); without pair symmetry R is stored in full
    c = levi_civita(perturbed)
    R = curvature_R(perturbed, c)
    assert type(R) is Tensor and len(R.nonzero) == 636
    assert R == reference.curvature_R(perturbed, c)
    assert_dense(R, reference.curvature_R_grid(perturbed, c))


@pytest.mark.parametrize("name", [name for name, _ in FIXTURES]
                         + MANY_TERMS + ["perturbed", "jacobi_violator"])
def test_killing_form_matches_dense_reference(name, request):
    # B is made at i <= j and mirrored, which needs no Jacobi identity:
    # the last two fail it
    alg = request.getfixturevalue(name)
    alg = getattr(alg, "algebra", alg)
    B = alg.killing_form()
    dense = reference.killing_form(alg)
    assert B == dense
    assert_dense(B, reference.killing_form_grid(alg))
    assert B.determinant() == dense.determinant()


@pytest.mark.parametrize("name, invariant", FIXTURES
                         + [(name, False) for name in MANY_TERMS]
                         + [("perturbed", False)])
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


def assert_jacobiator_matches_reference(alg):
    """``check_jacobi``, ``jacobiator`` at every ordered triple and every
    component of ``jacobiator_tensor`` equal the per-tuple loops."""
    assert alg.check_jacobi() == reference.check_jacobi(alg)
    # every ordered triple: odd permutations and repeated indices too
    for i, j, k in product(range(1, alg.dim + 1), repeat=3):
        assert alg.jacobiator(i, j, k) == reference.jacobiator(alg, i, j, k)
    zero = (0,) * alg.dim  # stored at i < j < k only
    assert_dense(alg.jacobiator_tensor, reference.grid(alg.dim, 3, lambda t: (
        reference.jacobiator(alg, *(i + 1 for i in t))
        if t[0] < t[1] < t[2] else zero)))


@pytest.mark.parametrize("name", [name for name, _ in CHECKED]
                         + ["jacobi_violator"] + MANY_TERMS)
def test_jacobiator_matches_per_tuple_reference(name, request):
    alg = request.getfixturevalue(name)
    assert_jacobiator_matches_reference(getattr(alg, "algebra", alg))


#: Seeded random bracket tables, as (dim, coefficient kind, seed).
RANDOM_TABLES = [(5, "rational", 0), (5, "polynomial", 1),
                 (6, "rational", 2), (6, "polynomial", 3),
                 (7, "rational", 4), (7, "polynomial", 5)]


def random_table(dim: int, kind: str, seed: int) -> LieAlgebra:
    """A seeded random bracket table: each [X_i, X_j], i < j < dim, is
    nonzero with probability 3/4 (1/3 at odd seeds), on about half the
    basis, with rational coefficients or polynomial ones in a and b.
    X_dim brackets to zero with everything, so its row of structure
    constants is empty though other brackets reach it."""
    rng = random.Random(seed)
    params = ("a", "b") if kind == "polynomial" else ()
    density = 1 / 3 if seed % 2 else 3 / 4

    def coefficient():
        if not params:
            return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]),
                            rng.randint(1, 3))
        return parse_poly(rng.choice(
            ["a", "-b", "a - 2*b", "a*b + 1/2", "3", "-a^2 + b"]), params)

    brackets = {}
    for i, j in combinations(range(1, dim), 2):
        row = {k: coefficient() for k in range(1, dim + 1)
               if rng.random() < 0.5}
        if row and rng.random() < density:
            brackets[i, j] = row
    return LieAlgebra.from_brackets(dim, params, brackets)


def jacobiator_slices(alg: LieAlgebra) -> set:
    """Where the Jacobiator's walk meets the row of p, sorted by c, for
    each c_ab^p: the slice kept (c < a or c > b if a < b, b < c < a if
    a > b) with each end of the row it holds, a c equal to a or b (a
    bisection bound, dropped) in either order of a and b, and an empty
    row."""
    rows: dict = {}
    for (p, c, _), _ in alg.gamma.nonzero:
        rows.setdefault(p, []).append(c)
    seen = set()
    for (a, b, p), _ in alg.gamma.nonzero:
        cs = rows.get(p)
        if cs is None:
            seen.add("empty row")
            continue
        for c in cs:
            if c in (a, b):
                seen.add(("bound", "a < b" if a < b else "a > b"))
            kept = ("c < a" if a < b and c < a else "c > b" if a < b < c
                    else "b < c < a" if b < c < a else None)
            for end, at in (("first", cs[0]), ("last", cs[-1])):
                if kept and c == at:
                    seen.add((kept, end))
    return seen


def test_random_tables_reach_every_jacobiator_slice():
    seen = set().union(*(jacobiator_slices(random_table(*t))
                         for t in RANDOM_TABLES))
    assert seen == {(kept, end) for kept in ("c < a", "c > b", "b < c < a")
                    for end in ("first", "last")} | {
        ("bound", "a < b"), ("bound", "a > b"), "empty row"}
    assert not any(random_table(*t).check_jacobi() for t in RANDOM_TABLES)


@pytest.mark.parametrize("dim, kind, seed", RANDOM_TABLES)
def test_jacobiator_matches_oracle_on_random_tables(dim, kind, seed):
    assert_jacobiator_matches_reference(random_table(dim, kind, seed))


@pytest.mark.parametrize("dim, kind, seed", RANDOM_TABLES)
def test_killing_form_matches_oracle_on_random_tables(dim, kind, seed):
    alg = random_table(dim, kind, seed)
    assert alg.killing_form() == reference.killing_form(alg)


@pytest.mark.parametrize("name, made", [("falg", 132),
                                        ("sheared_family", 251)])
def test_killing_form_makes_products_at_i_up_to_j_only(name, made, request,
                                                       monkeypatch):
    # B_ij = B_ji: products are made at i <= j only, then mirrored (192
    # and 410 at every (i, j)); the Jacobiator makes only the products at
    # an increasing rotation, 240 and 702
    alg = request.getfixturevalue(name).algebra
    keys = []
    real = lie._multiply_accumulate

    def counting(acc, products, den, params):
        products = list(products)
        keys.append([key for key, _, _ in products])
        return real(acc, products, den, params)

    monkeypatch.setattr(lie, "_multiply_accumulate", counting)
    assert alg.killing_form() == reference.killing_form(alg)
    fresh = LieAlgebra(alg.dim, alg.params, alg.gamma)
    assert fresh.jacobiator_tensor == alg.jacobiator_tensor
    killing, jacobiator = keys
    assert all(i <= j for i, j in killing) and len(killing) == made
    assert all(a < b < c for a, b, c, _ in jacobiator)
    assert len(jacobiator) == {"falg": 240, "sheared_family": 702}[name]


@pytest.mark.parametrize("name, count", CHECKED
                         + [(name, 2) for name in MANY_TERMS])
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


@pytest.mark.parametrize("name", [name for name, _ in FIXTURES]
                         + MANY_TERMS)
def test_square_norm_nabla_j_matches_dense_reference(name, request):
    # the library contracts the nonzero components of F raised three
    # times with F; the reference sums every index tuple of the dense grid
    a = request.getfixturevalue(name)
    norm = square_norm_nabla_J(a, a.tensor_F())
    assert norm == reference.square_norm_nabla_J(a)
    assert norm.params == a.params
    if name in MANY_TERMS:  # products of sixteen-term polynomials
        assert len(norm.nums) > 600


@pytest.mark.parametrize("name", [name for name, _ in FIXTURES]
                         + MANY_TERMS)
def test_classify_matches_dense_reference(name, request):
    # the library sums each rotation class of F's nonzero components in
    # the batch kernel; the reference sums every (i, j, k) of the dense grid
    a = request.getfixturevalue(name)
    F = a.tensor_F()
    flags = a.classify(F)
    assert (flags.w0, flags.w1, flags.w2, flags.w3) == reference.classify(a)
    assert a.classify(F, a.lie_form(F)) == flags


def outcome(f, *args):
    """``f(*args)``, or the type and message of the plane error it raises."""
    try:
        return f(*args)
    except (ValueError, DegeneratePlaneError) as exc:
        return f"{type(exc).__name__}: {exc}"


def seeded_planes(a):
    """240 seeded planes: 60 pairs of mostly-zero rational vectors x, y,
    so supports of every size occur, each x paired with y, Jx, 2x and
    x + Jx."""
    rng = random.Random(a.dim)
    for _ in range(60):
        x = [Fraction(rng.randint(-3, 3), rng.randint(1, 4))
             if rng.random() < 0.4 else 0 for _ in range(a.dim)]
        y = [Fraction(rng.randint(-3, 3), rng.randint(1, 4))
             if rng.random() < 0.4 else 0 for _ in range(a.dim)]
        for second in (y, a.J.apply(x), [2 * v for v in x],
                       [u + v for u, v in zip(x, a.J.apply(x))]):
            yield PlaneSpec(x, second)


@pytest.mark.parametrize("name", [name for name, _ in CHECKED])
def test_plane_types_match_dense_reference(name, request):
    a = request.getfixturevalue(name)
    for i, j in combinations(range(1, a.dim + 1), 2):
        plane = coordinate_plane(a.dim, i, j)
        assert plane_type(a, plane) == reference.plane_type(a, plane), (i, j)
    types = set()
    for plane in seeded_planes(a):
        got = outcome(plane_type, a, plane)
        assert got == outcome(reference.plane_type, a, plane)
        types.add(got)
    assert {"holomorphic", "generic",
            "ValueError: spanning vectors are linearly dependent"} <= types


@pytest.mark.parametrize("name", [name for name, _ in CHECKED])
def test_sectional_curvature_matches_dense_reference(name, request):
    # off the coordinate planes too: the library accumulates R where
    # x_i, y_j, y_k and x_l are all nonzero, the reference sums the dense
    # R grid by ring operations
    a = request.getfixturevalue(name)
    c = levi_civita(a)
    R, dense_R = curvature_R(a, c), reference.curvature_R_grid(a, c)
    kinds = set()
    for plane in seeded_planes(a):
        got = outcome(sectional_curvature, a, R, plane)
        assert got == outcome(reference.sectional_curvature, a, dense_R,
                              plane)
        if outcome(plane_type, a, plane) == "degenerate":
            assert got.startswith("DegeneratePlaneError: ")
        kinds.add(got.split(":")[0] if isinstance(got, str) else "value")
    assert {"value", "ValueError"} <= kinds


@pytest.mark.parametrize("name", [name for name, _ in FIXTURES]
                         + ["degenerate_plane"])
def test_coordinate_sectional_matches_the_plane_routines(name, request):
    # the report's table reads R_ijji, g and J directly; the general plane
    # routines are its independent route
    a = request.getfixturevalue(name)
    R = curvature_R(a, levi_civita(a))
    table = list(coordinate_sectional(a, R))
    assert [(i, j) for i, j, _, _ in table] == list(
        combinations(range(a.dim), 2))
    for i, j, ptype, value in table:
        plane = coordinate_plane(a.dim, i + 1, j + 1)
        try:
            expected = sectional_curvature(a, R, plane)
        except DegeneratePlaneError:
            expected = None
        assert (ptype, value) == (plane_type(a, plane), expected), (i, j)


def test_null_heisenberg6_has_every_plane_type(null_heisenberg6):
    # a degenerate coordinate plane with R_ijji != 0 reads None, not R/0
    a = null_heisenberg6
    R = curvature_R(a, levi_civita(a))
    table = list(coordinate_sectional(a, R))
    assert {ptype for _, _, ptype, _ in table} == {
        "holomorphic", "totally_real", "degenerate", "generic"}
    assert [(i, j) for i, j, ptype, value in table
            if ptype == "degenerate" and value is None and R.at((i, j, j, i))
            ] == [(2, 3)]


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
