"""The multiply-accumulate kernel against its naive oracle, and the
invariant that the trusted ``Poly._make`` path relies on.

``_accumulate`` adds integer products straight into accumulators of
numerators over one denominator, rescaling to the lcm when a product
arrives over another, and the ``Tensor`` constructor reduces each one once
without re-validation.  So the tests compare them with
``reference.naive_sum`` on seeded random inputs, operands over mixed
denominators included, and check that every component of every pipeline
stage is in the canonical integer form and would come out of the
validating constructor unchanged.  Terms are keyed by packed exponent
vectors, so the tests also check that the keys round-trip, print in the
order of their exponent tuples, and raise instead of wrapping when a
product passes the field width.
"""

import random
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

import reference
from nordenlab import Poly, Tensor, parse_poly
from nordenlab.curvature import nabla_R_blocks
from nordenlab.cli import main
from nordenlab.errors import (ExponentOverflowError, NordenLabError,
                              ParameterMismatchError)
from nordenlab.linalg import _accumulate
from nordenlab.poly import MAX_EXPONENT, _guard, _pack, _unpack
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
    return Tensor(params, len(KEYS), 1, acc)


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


#: Denominators whose lcm moves as products arrive: 4 after 2, 6 after
#: 3 or 4, 7 coprime to every other.
DENOMINATORS = (1, 2, 3, 4, 6, 7)


def mixed_rational(rng):
    return Fraction(rng.choice([-5, -3, -2, -1, 1, 2, 3, 5]),
                    rng.choice(DENOMINATORS))


def mixed_poly(rng, params, max_terms=3):
    """A nonzero Poly whose coefficients have mixed denominators."""
    return Poly(params, {
        tuple(rng.randint(0, 2) for _ in params): mixed_rational(rng)
        for _ in range(rng.randint(1, max_terms))})


@pytest.mark.parametrize("seed", range(6))
def test_mixed_denominators_rescale_and_cancel_exactly(seed):
    rng = random.Random(100 + seed)
    triples = []
    for _ in range(30):
        v = mixed_poly(rng, PARAMS)
        m = rng.choice([mixed_poly(rng, PARAMS), mixed_rational(rng), None])
        key = rng.choice(KEYS[:3])
        triples.append((key, v, m))
        if rng.random() < 0.5:  # the same product again, negated: cancels
            triples.append((key, -v, m))
    # key (3,): products over 1/2, 1/3 and 1/7 that sum to zero exactly
    x = Poly.variable("a", PARAMS)
    triples += [((3,), x, Fraction(1, 2)), ((3,), x, Fraction(1, 3)),
                ((3,), x.scale(Fraction(1, 7)), Fraction(7, 6)),
                ((3,), x, Fraction(-3, 4)), ((3,), x, Fraction(-1, 4)),
                ((3,), x * x.scale(Fraction(2, 7)), Fraction(7, 6)),
                ((3,), x * x, Fraction(-1, 3))]
    rng.shuffle(triples)
    T = fused(PARAMS, triples)
    assert (3,) not in dict(T.nonzero)
    assert T.component(4).is_zero and T.component(4).den == 1
    assert_matches_oracle(PARAMS, triples)
    for _, p in T.nonzero:
        assert_canonical(p)


def test_rescale_moves_the_accumulator_only_when_needed():
    x = Poly.variable("a", PARAMS)
    acc = {}

    def reads(num, den):
        nums, d, params = acc[(0,)]
        assert params == PARAMS and d == den
        assert_packed(nums, PARAMS)
        assert {_unpack(k, 3): c for k, c in nums.items()} == {
            (1, 0, 0): num}

    _accumulate(acc, (0,), x, Fraction(1, 4))
    reads(1, 4)
    _accumulate(acc, (0,), x, Fraction(1, 2))  # 2 divides 4: no rescale
    reads(3, 4)
    _accumulate(acc, (0,), x, Fraction(1, 6))  # lcm(4, 6) = 12
    reads(11, 12)
    _accumulate(acc, (0,), x, Fraction(-11, 12))
    assert (0,) not in acc
    _accumulate(acc, (0,), x.scale(Fraction(3, 2)), Fraction(2, 3))
    reads(6, 6)  # reduced only when read
    assert Tensor(PARAMS, 1, 1, acc).component(1) == x


def assert_packed(nums, params):
    """Every key is an int of ``len(params)`` fields, no guard bit set."""
    width = len(params)
    for key in nums:
        assert type(key) is int and key >= 0 and not key & _guard[width]
        assert key >> 32 * width == 0
        assert len(_unpack(key, width)) == width
        assert _pack(_unpack(key, width)) == key


def assert_canonical(p):
    """The stored form: packed keys, int numerators, no zero, den >= 1,
    gcd 1, and den 1 for the zero polynomial."""
    assert type(p.den) is int and p.den >= 1
    assert all(type(c) is int and c for c in p.nums.values())
    assert_packed(p.nums, p.params)
    assert gcd(p.den, *p.nums.values()) == 1


def test_hash_of_a_constant_is_the_hash_of_its_value():
    for q in (Fraction(0), Fraction(3), Fraction(-7, 6), Fraction(5, 4)):
        assert hash(Poly.constant(q)) == hash(q)
        assert hash(Poly.constant(q, PARAMS)) == hash(q)
    assert hash(Poly.constant(3)) == hash(3) and Poly.constant(3) == 3


def test_equal_polynomials_from_different_routes_hash_equal():
    a, b = (Poly.variable(n, PARAMS) for n in "ab")
    half = Fraction(1, 2)
    routes = [
        (a + b) * (a - b),
        a * a - b * b,
        parse_poly("a^2 - b^2", PARAMS),
        Poly(PARAMS, {(2, 0, 0): Fraction(2, 2), (0, 2, 0): -1}),
        (a * a).scale(half) * 2 - (b * b) / half * half,
        reference.naive_sum(PARAMS, [(a, a), (b, -b)]),
        fused(PARAMS, [((0,), a * 3, a.scale(Fraction(1, 3))),
                       ((0,), b.scale(Fraction(1, 6)), -6 * b)]).component(1),
    ]
    for p in routes:
        assert p == routes[0] and hash(p) == hash(routes[0])
        assert_canonical(p)
    assert hash(a.scale(half) + a.scale(half)) == hash(a)
    assert hash((a + half) - a) == hash(half)


@pytest.mark.parametrize("seed", range(3))
def test_evaluate_matches_fraction_arithmetic(seed):
    # evaluate sums integer term values over the lcm of their
    # denominators; the oracle sums Fractions term by term
    rng = random.Random(200 + seed)
    for _ in range(200):
        p = mixed_poly(rng, PARAMS, max_terms=6) * rng.choice(
            [1, mixed_poly(rng, PARAMS)])
        point = {name: mixed_rational(rng) for name in PARAMS}
        expected = sum((c * point["a"] ** e[0] * point["b"] ** e[1]
                        * point["c"] ** e[2] for e, c in p.terms.items()),
                       Fraction(0))
        got = p.evaluate(point)
        assert type(got) is Fraction and got == expected


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
    # a weight over more parameters than the tensor widens every
    # product; the terms cannot be read over the tensor's list
    t = Poly.variable("t", ("t",))
    s = Poly.variable("s", ("t", "s"))
    assert fused(("t",), [((0,), t, Poly.constant(2, ("t",)))]).component(
        1) == 2 * t
    with pytest.raises(ParameterMismatchError):
        fused(("t",), [((0,), t, s)])


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
        yield from (T.at(idx)
                    for idx in product(range(T.dim), repeat=T.rank))
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
        assert_canonical(p)
        assert all(type(c) is Fraction for c in p.terms.values())
        assert Poly(p.params, p.terms).terms == p.terms
        count += 1
    assert count > 1000


def test_tensor_refuses_a_component_over_another_parameter_list():
    # a Poly over ("a",) stored in a tensor over ("x",) would read a as x
    a = Poly.variable("a", ("a",))
    with pytest.raises(ParameterMismatchError):
        Tensor(("x",), 1, 1, {(0,): a})
    assert Tensor(("a",), 1, 1, {(0,): a}).component(1) == a
    # one accumulator takes products over one parameter list only
    acc = {}
    _accumulate(acc, (0,), Poly.variable("b", ("a", "b")), 2)
    with pytest.raises(ParameterMismatchError):
        _accumulate(acc, (0,), a, 3)


def test_exponents_up_to_the_field_width():
    top = MAX_EXPONENT
    assert top == 2**31 - 1
    p = Poly(PARAMS, {(top, 0, top): 3, (0, top, 1): Fraction(1, 2)})
    assert_canonical(p)
    assert p.terms == {(top, 0, top): 3, (0, top, 1): Fraction(1, 2)}
    assert parse_poly(str(p), PARAMS) == p and p.total_degree() == 2 * top
    assert p.evaluate({"a": 1, "b": -1, "c": 1}) == Fraction(5, 2)
    hi = Poly(PARAMS, {(top, 0, 0): 3})
    assert (hi * Poly.variable("b", PARAMS)).terms == {(top, 1, 0): 3}
    for expo in [(top + 1, 0, 0), (0, 0, top + 1), (2**40, 0, 0)]:
        with pytest.raises(ExponentOverflowError):
            Poly(PARAMS, {expo: 1})
    with pytest.raises(NordenLabError):
        parse_poly(f"a^{top + 1}", PARAMS)
    with pytest.raises(TypeError):  # a key packs int exponents only
        Poly(PARAMS, {(1.5, 0, 0): 1})


def test_an_exponent_past_the_digit_limit_is_one_short_overflow_error():
    # str() of an int of more than 4300 digits raises ValueError, so the
    # message names the exponent by its bit length
    huge = 10**5000
    with pytest.raises(ExponentOverflowError) as caught:
        Poly(("t",), {(huge,): 1})
    message = str(caught.value)
    assert message == (f"exponent above {MAX_EXPONENT} in an exponent of "
                       f"{huge.bit_length()} bits")
    assert len(message.encode()) < 300


@pytest.mark.parametrize("params", [("a", "b"), ("b", "a")])
def test_squaring_past_the_field_width_raises_and_never_wraps(params):
    # a sits in the high field, then in the low field next to b
    a = Poly.variable("a", params)
    where = params.index("a")
    q = a
    for step in range(1, 31):
        q = q * q
        expo = [0, 0]
        expo[where] = 2**step
        assert q.terms == {tuple(expo): 1}
        assert_canonical(q)
    with pytest.raises(ExponentOverflowError):
        q * q  # 2**31
    top = Poly(params, {tuple(MAX_EXPONENT if i == where else 0
                              for i in range(2)): 1})
    with pytest.raises(ExponentOverflowError):
        top * a
    with pytest.raises(ExponentOverflowError):
        _accumulate({}, (0,), top, a)
    expo = [1, 1]
    expo[where] = MAX_EXPONENT
    assert (top * Poly.variable("b", params)).terms == {tuple(expo): 1}


def test_a_spec_past_the_field_width_exits_2(tmp_path, capsys):
    path = tmp_path / "huge.spec"
    path.write_text("dimension = 4\nparameters = a\n\n[brackets]\n"
                    f"1 2 -> 3: a^{MAX_EXPONENT + 1}\n", encoding="utf-8")
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: line 5: exponent above {MAX_EXPONENT} in "
        f"({MAX_EXPONENT + 1},)\n")


@pytest.mark.parametrize("width", [0, 1, 3, 12])
def test_packed_keys_match_tuple_keys(width):
    rng = random.Random(1000 + width)
    params = tuple(f"p{i}" for i in range(width))
    # small exponents, and ones whose sum stays just inside the field
    exponents = (0, 0, 1, 2, 3, 2**30 - 1)
    for _ in range(200):
        expo = tuple(rng.choice((0, 1, 7, MAX_EXPONENT)) for _ in params)
        assert _unpack(_pack(expo), width) == expo

    def draw():
        return Poly(params, {
            tuple(rng.choice(exponents) for _ in params): random_rational(rng)
            for _ in range(rng.randint(0, 6))})

    for _ in range(40):
        v, m = draw(), draw()
        for p in (v, m, v * m):
            assert_canonical(p)
            assert str(p) == reference.format_terms(p)
            assert Poly(params, p.terms) == p
        assert (v * m).terms == reference.naive_sum(params, [(v, m)]).terms
    pairs = [(draw(), rng.choice([draw(), random_rational(rng)]))
             for _ in range(30)]
    acc = {}
    for v, m in pairs:
        _accumulate(acc, (0,), v, m)
    got = Tensor(params, 1, 1, acc).component(1)
    assert got.terms == reference.naive_sum(params, pairs).terms
