"""The multiply-accumulate kernel against its naive oracle, and the
invariant that the trusted ``Poly._make`` path relies on.

``_accumulate`` adds products straight into term dicts and
``Tensor.from_entries`` wraps them without re-validation, so the tests
compare them with ``reference.naive_sum`` on seeded random inputs, and
check that every component of every pipeline stage would come out of the
validating constructor unchanged.
"""

import random
from fractions import Fraction

import pytest

import reference
from nordenlab import Poly, Tensor
from nordenlab.curvature import nabla_R_blocks
from nordenlab.errors import ParameterMismatchError
from nordenlab.linalg import _accumulate
from nordenlab.report import compute_report

PARAMS = ("a", "b", "c")
KEYS = [(k,) for k in range(4)]


def random_rational(rng):
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def random_poly(rng, params, max_terms=4):
    return Poly(params, {
        tuple(rng.randint(0, 2) for _ in params): random_rational(rng)
        for _ in range(rng.randint(0, max_terms))})


def fused(params, keyed_pairs):
    """The tensor the kernel builds from ``(key, v, m)`` triples; m is
    None for the default factor."""
    acc = {}
    for key, v, m in keyed_pairs:
        if m is None:
            _accumulate(acc, key, v)
        else:
            _accumulate(acc, key, v, m)
    return Tensor.from_entries(params, len(KEYS), 1, acc)


def assert_matches_oracle(params, keyed_pairs):
    T = fused(params, keyed_pairs)
    for key in KEYS:
        expected = reference.naive_sum(params, [
            (v, 1 if m is None else m)
            for k, v, m in keyed_pairs if k == key])
        got = T.components[key[0]]
        assert got.params == expected.params
        assert got.terms == expected.terms, key


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("kind", ["rational", "poly", "default", "mixed"])
def test_accumulate_matches_naive_sum(kind, seed):
    rng = random.Random(seed)
    triples = []
    for _ in range(40):
        v = random_poly(rng, PARAMS)
        choice = kind if kind != "mixed" else rng.choice(
            ["rational", "poly", "default"])
        m = {"rational": lambda: random_rational(rng),
             "poly": lambda: random_poly(rng, PARAMS),
             "default": lambda: None}[choice]()
        triples.append((rng.choice(KEYS), v, m))
    assert_matches_oracle(PARAMS, triples)


@pytest.mark.parametrize("seed", range(4))
def test_exact_cancellation_gives_the_shared_zero(seed):
    rng = random.Random(seed)
    triples = []
    for _ in range(12):
        v = random_poly(rng, PARAMS)
        m = random_poly(rng, PARAMS)
        q = random_rational(rng) or Fraction(1)
        # v*m + (-v)*m, v*q - v*q and v - v all cancel term by term
        triples += [((0,), v, m), ((0,), -v, m),
                    ((1,), v, q), ((1,), v, -q),
                    ((2,), v, None), ((2,), -v, None)]
    triples.append(((3,), Poly.variable("a", PARAMS), None))
    rng.shuffle(triples)
    T = fused(PARAMS, triples)
    zero = T.components[0]
    assert zero.is_zero and zero.params == PARAMS
    assert T.components[1] is zero and T.components[2] is zero
    assert T.components[3] == Poly.variable("a", PARAMS)
    assert_matches_oracle(PARAMS, triples)


def test_constants_over_no_parameters_mix_with_any():
    rng = random.Random(7)
    const = Poly.constant(Fraction(-3, 2))
    assert const.params == ()
    triples = []
    for key in KEYS:
        p = random_poly(rng, PARAMS) or Poly.variable("b", PARAMS)
        triples += [(key, p, const), (key, const, p), (key, p, 2)]
    assert_matches_oracle(PARAMS, triples)


def test_disjoint_parameter_lists_still_refuse_to_combine():
    u = Poly.variable("a", ("a",))
    x = Poly.variable("x", ("x",))
    with pytest.raises(ParameterMismatchError):
        _accumulate({}, (0,), u, x)
    with pytest.raises(ParameterMismatchError):
        reference.naive_sum(("a",), [(u, x)])


def test_products_must_land_on_the_tensor_parameters():
    # a matrix over more parameters than the tensor widens every
    # product; the terms cannot be read over the tensor's list
    t = Poly.variable("t", ("t",))
    s = Poly.variable("s", ("t", "s"))
    T = Tensor.from_entries(("t",), 1, 1, {(0,): t})
    assert T.contract(0, [[Poly.constant(2, ("t",))]]).component(1) == 2 * t
    with pytest.raises(ParameterMismatchError):
        T.contract(0, [[s]])


def stage_polys(geo):
    """Every Poly that the report of ``geo.algebra`` computes or reads."""
    a = geo.algebra
    tensors = [a.algebra.gamma, a.G, a.T, geo.F, geo.connection, geo.R,
               geo.ricci_and_tau[0], geo.killing_form]
    for block in nabla_R_blocks(a, geo.connection, geo.R):
        tensors.append(block)
        if not block.is_zero:
            break  # the report stops here too
    for T in tensors:
        yield from T.values()
    yield from geo.theta
    yield geo.ricci_and_tau[1]
    yield geo.nabla_j_norm
    yield from (value for _, _, value in geo.sectional if value is not None)
    yield geo.killing_form.determinant()


@pytest.mark.parametrize("name", [
    "falg", "twin", "sheared", "sheared_family", "heisenberg6", "affine6",
    "filiform8", "filiform10"])
def test_every_stage_satisfies_the_trusted_invariant(name, request):
    geo = compute_report(request.getfixturevalue(name))
    count = 0
    for p in stage_polys(geo):
        assert type(p.params) is tuple
        assert all(type(c) is Fraction for c in p.terms.values())
        assert Poly(p.params, p.terms).terms == p.terms
        count += 1
    assert count > 1000
