"""Exact multivariate polynomial arithmetic."""

import random
import time
import tracemalloc
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


def test_equality_with_each_kind_of_operand():
    two, l1 = Poly.constant(2, P3), Poly.variable("l1", P3)
    assert two == 2 and 2 == two and two != 3 and l1 != 2
    assert Poly.constant("1/2", P3) == Fraction(1, 2) != l1
    # a Poly over other parameters is aligned first, or unequal if it
    # has one that cannot be aligned
    assert l1 == Poly.variable("l1", ("l1",)) != two
    assert two == Poly.constant(2, ("mu",))
    assert l1 != Poly.variable("mu", ("mu",))
    # anything else is not a number to compare with
    assert two.__eq__("2") is NotImplemented
    assert two != "2" and two != None and two != [2]


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


def test_hash_agrees_with_equality_across_parameter_lists():
    a, ab, ba = (Poly.variable("a", params)
                 for params in (("a",), ("a", "b"), ("b", "a")))
    assert a == ab == ba
    assert hash(a) == hash(ab) == hash(ba)
    assert len({a, ab, ba}) == 1
    p = parse_poly("1/3*a*b^2 - 2*b + 5", ("a", "b"))
    q = p.with_params(("c", "b", "a"))
    assert p == q and hash(p) == hash(q)
    assert p != parse_poly("1/3*a^2*b - 2*b + 5", ("a", "b"))
    # a constant still hashes as its Fraction
    half = Poly.constant(Fraction(1, 2), ("a", "b"))
    assert hash(half) == hash(Fraction(1, 2)) == hash(Poly.constant("1/2"))


def test_parse_is_linear_in_the_number_of_terms():
    params = tuple(f"p{n}" for n in range(60))
    expected, pieces = {}, []
    for k in range(3000):
        a, e = k % 60, k // 60 + 1
        coeff = Fraction((-1) ** k * (k + 1), 7)
        expected[tuple(e if n == a else 0 for n in range(60))] = coeff
        pieces.append(f"{'-' if coeff < 0 else '+'} {abs(coeff)}*p{a}^{e}")
    text = " ".join(pieces)[2:]  # drop the leading "+ "
    start = time.perf_counter()
    p = parse_poly(text, params)
    elapsed = time.perf_counter() - start
    assert p.params == params
    assert p.terms == expected
    assert elapsed < 2.0  # a term-by-term Poly sum took tens of seconds


# -- the grammar -------------------------------------------------------------

SPACES = ("", "", " ", "  ", "\t")


def render_term(rnd, coeff, expo, names, minus):
    """One term of ``coeff * prod(names ** expo)`` as text: ``minus`` is
    how many '-' the separator before it gives, its own leading '-' run
    makes the total parity the sign, its coefficient is split across
    factors and each power is split into ``x`` and ``x^k`` pieces, all
    in random order with random spacing.  Returns the text and the names
    written."""
    def sp():
        return rnd.choice(SPACES)

    factors, written = [], set()
    for name, e in zip(names, expo):
        while e:
            k = rnd.randint(1, e)
            factors.append(name if k == 1 else f"{name}{sp()}^{sp()}{k}")
            e -= k
            written.add(name)
    if rnd.random() < 0.2:
        name = rnd.choice(names)
        factors.append(f"{name}^0")
        written.add(name)
    num, den = abs(coeff.numerator), coeff.denominator
    if num != den or not factors or rnd.random() < 0.3:
        split = rnd.choice([d for d in range(1, num + 1) if num % d == 0]
                           or [1])
        factors.append(f"{split}{sp()}/{sp()}{den}")
        if split != num or rnd.random() < 0.3:
            factors.append(str(num // split))
    rnd.shuffle(factors)
    run = rnd.choice([0, 2]) + (minus + (coeff < 0)) % 2
    body = f"{sp()}*{sp()}".join(factors)
    return "".join(f"-{sp()}" for _ in range(run)) + body, written


def test_parse_reads_random_renderings_of_known_terms():
    rnd = random.Random(20261018)
    names = ("b2", "a", "c_d")
    declared = names + ("unused",)
    for _ in range(300):
        expected: dict[tuple[int, ...], Fraction] = {}
        pieces, written = [], set()
        for n in range(rnd.randint(1, 5)):
            coeff = Fraction(rnd.randint(-9, 9), rnd.randint(1, 6))
            expo = tuple(rnd.choice([0, 0, 1, 2, 3, 5]) for _ in names)
            expected[expo] = expected.get(expo, 0) + coeff
            sep = rnd.choice(["+", "-", "+ -"]) if n else ""
            text, names_written = render_term(rnd, coeff, expo, names,
                                              sep.count("-"))
            pieces.append(f"{sep}{rnd.choice(SPACES)}{text}")
            written |= names_written
        text = rnd.choice(SPACES).join(pieces)
        want = Poly(names, expected)
        inferred = parse_poly(text)
        assert inferred == want, text
        assert inferred.params == tuple(sorted(written)), text
        exact = parse_poly(text, declared)
        assert exact == want and exact.params == declared, text


@pytest.mark.parametrize("text, column", [
    ("l1*", 1), ("2*", 1), ("l1 -", 5), ("+l1", 1), ("l1 -+ l2", 5),
    ("l1**l2", 1), ("l1^-2", 1), ("2l1", 1), ("l1/2", 1), ("1/2/3", 1),
    ("l1^2^3", 1), ("l1 & l2", 1),
], ids=["trailing-star", "trailing-star-after-coefficient", "dangling-sign",
        "leading-plus", "plus-after-minus", "double-star",
        "negative-exponent", "no-star-between-factors",
        "variable-over-integer", "two-slashes", "power-of-power",
        "unknown-character"])
def test_parse_refuses_text_outside_the_grammar(text, column):
    for params in (None, P3):
        with pytest.raises(PolyParseError) as exc:
            parse_poly(text, params)
        assert str(exc.value) == (f"cannot read the term at column {column} "
                                  f"of polynomial {text!r}")


@pytest.mark.parametrize("text, params, message", [
    (" \t", None, "empty polynomial text ' \\t'"),
    ("l1*2/0", None, "zero denominator in polynomial 'l1*2/0'"),
    ("l1 + mu", P3, "unknown parameter 'mu' in polynomial 'l1 + mu'"),
    ("1" * 5000 + "*l1", None,
     "integer of 5000 digits in polynomial is too long"),
    ("l1" + " " * 100 + "+ mu", P3, "unknown parameter 'mu' in polynomial "
     "'l1                  ' of 106 characters"),
], ids=["empty", "zero-denominator", "unknown-parameter", "long-integer",
        "long-text-cut"])
def test_parse_names_the_semantic_fault(text, params, message):
    with pytest.raises(PolyParseError) as exc:
        parse_poly(text, params)
    assert str(exc.value) == message


def test_parse_handles_megabyte_runs():
    # a '-' run of even length before a variable, and a space run before
    # a trailing '*': both read in linear time, with no recursion
    assert parse_poly("-" * (1 << 20) + "l1") == Poly.variable("l1", ("l1",))
    with pytest.raises(PolyParseError):
        parse_poly("l1" + " " * (1 << 20) + "*")


def test_parse_sums_repeated_terms_as_it_reads_them():
    # half a million terms share one monomial, so they share one sum
    text = "+".join(["x"] * (1 << 19))
    tracemalloc.start()
    try:
        p = parse_poly(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert p == Poly.variable("x", ("x",)) * 524288
    assert peak < 32 << 20
