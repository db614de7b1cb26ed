"""Exact multivariate polynomial arithmetic."""

import random
from fractions import Fraction

import pytest

from nordenlab import ParameterMismatchError, Poly, PolyParseError, parse_poly

P3 = ("l1", "l2", "l3")


def rand_poly(rnd, params=P3, max_terms=4, max_deg=3):
    p = Poly.zero(params)
    for _ in range(rnd.randint(0, max_terms)):
        exps = tuple(rnd.randint(0, max_deg) for _ in params)
        coeff = Fraction(rnd.randint(-6, 6), rnd.randint(1, 6))
        p = p + Poly(params, {exps: coeff})
    return p


def rand_assignment(rnd, params=P3):
    return {name: Fraction(rnd.randint(-5, 5), rnd.randint(1, 4)) for name in params}


def test_zero_and_constant():
    z = Poly.zero(P3)
    assert z.is_zero
    assert z.is_constant
    assert z.constant_value() == 0
    c = Poly.constant(Fraction(3, 7), P3)
    assert not c.is_zero
    assert c.constant_value() == Fraction(3, 7)


def test_variable_product_merges_exponents():
    l1 = Poly.variable("l1", P3)
    assert str(l1 * l1) == "l1^2"
    assert str(l1 * l1 * l1) == "l1^3"


def test_cancellation_drops_terms():
    a = parse_poly("l2^2 + l3^2")
    b = parse_poly("l2^2")
    assert str(a - b) == "l3^2"
    assert (a - a).is_zero


def test_difference_of_squares():
    a = parse_poly("l2 + l3")
    b = parse_poly("l2 - l3")
    assert a * b == parse_poly("l2^2 - l3^2")


def test_scale_and_divide():
    p = parse_poly("l2^2 + l3^2")
    q = p.scale(Fraction(1, 4))
    assert str(q) == "1/4*l2^2 + 1/4*l3^2"
    assert q / Fraction(1, 4) == p
    with pytest.raises(ZeroDivisionError):
        p / 0


def test_format_examples():
    assert str(parse_poly("0")) == "0"
    assert str(parse_poly("-l2")) == "-l2"
    assert str(parse_poly("l3^2 + 1/4*l2^2")) == "1/4*l2^2 + l3^2"
    assert str(parse_poly("l1*l2 - l1*l2")) == "0"


def test_format_descending_lex_order():
    p = parse_poly("l3 + l2 + l1 + l1*l2 + 1")
    assert str(p) == "l1*l2 + l1 + l2 + l3 + 1"


def test_evaluate_examples():
    p = parse_poly("1/4*l2^2 + 1/4*l3^2")
    assert p.evaluate({"l2": 1, "l3": 1}) == Fraction(1, 2)
    q = parse_poly("l1*l2")
    assert q.evaluate({"l1": 0, "l2": 7}) == 0
    r = parse_poly("l3^2")
    assert r.evaluate({"l3": Fraction(-2, 3)}) == Fraction(4, 9)


def test_evaluate_requires_occurring_params():
    p = parse_poly("l1 + l2", params=P3)
    with pytest.raises(KeyError):
        p.evaluate({"l1": 1})
    # l3 does not occur, so it need not be supplied
    assert p.evaluate({"l1": 1, "l2": 2}) == 3


def test_ring_laws_random():
    rnd = random.Random(20240817)
    one = Poly.constant(1, P3)
    for _ in range(60):
        a, b, c = (rand_poly(rnd) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + Poly.zero(P3) == a
        assert a * one == a
        assert (a - a).is_zero
        assert -(-a) == a


def test_evaluate_is_ring_homomorphism():
    rnd = random.Random(991)
    for _ in range(40):
        a, b = rand_poly(rnd), rand_poly(rnd)
        v = rand_assignment(rnd)
        assert (a + b).evaluate(v) == a.evaluate(v) + b.evaluate(v)
        assert (a * b).evaluate(v) == a.evaluate(v) * b.evaluate(v)


def test_str_round_trip_random():
    rnd = random.Random(7)
    for _ in range(50):
        p = rand_poly(rnd)
        assert parse_poly(str(p), params=P3) == p


def test_parse_coefficient_forms():
    assert parse_poly("3*l1") == Poly.variable("l1", ("l1",)).scale(3)
    assert parse_poly("-1/2*l1^2 + l1") == parse_poly("l1 - 1/2*l1*l1")
    assert parse_poly("- - l1") == parse_poly("l1")
    assert parse_poly("5/10") == Poly.constant(Fraction(1, 2))


def test_parse_errors():
    for bad in ("", "l1 +", "* l1", "l1 ^", "l1^-2", "l1 l2", "(l1)", "1/0"):
        with pytest.raises(PolyParseError):
            parse_poly(bad)


def test_parse_respects_declared_params():
    with pytest.raises(PolyParseError):
        parse_poly("mu", params=("l1",))


def test_promotion_of_constants():
    c = Poly.constant(2)
    p = Poly.variable("l1", ("l1",))
    assert c + p == parse_poly("l1 + 2")
    assert (c * p).params == ("l1",)


def test_disjoint_params_refuse_to_mix():
    a = Poly.variable("l1", ("l1",))
    b = Poly.variable("mu", ("mu",))
    with pytest.raises(ParameterMismatchError):
        a + b


def test_with_params_embedding():
    p = Poly.variable("l1", ("l1",))
    q = p.with_params(P3)
    assert q.params == P3
    assert q == Poly.variable("l1", P3)
    # unused parameters may be dropped, occurring ones may not
    assert q.with_params(("l1",)) == p
    with pytest.raises(ParameterMismatchError):
        parse_poly("l1 + l2", params=P3).with_params(("l1",))


def test_degree_and_homogeneity():
    assert parse_poly("l1*l2 + l3^2").total_degree() == 2
    assert parse_poly("l1*l2 + l3^2").is_homogeneous(2)
    assert not parse_poly("l1 + l3^2").is_homogeneous(2)
    assert Poly.zero(P3).is_homogeneous(0)
    assert Poly.zero(P3).is_homogeneous(5)


def test_hash_consistency():
    a = parse_poly("l1 + l2")
    b = parse_poly("l2 + l1")
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
