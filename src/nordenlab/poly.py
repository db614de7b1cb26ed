"""Exact multivariate polynomials over the rationals.

The scalar domain for the whole package.  A polynomial is a map from
exponent vectors to nonzero rational coefficients:

    terms : Dict[Tuple[int, ...], Fraction]

with one exponent per parameter, in the order fixed by ``params``.  The
zero polynomial has an empty term map.  All arithmetic is exact; there is
no floating point anywhere in this module.

Coefficients are :class:`fractions.Fraction`, which the standard library
keeps reduced with a positive denominator, so the usual rational-number
invariants hold by construction.

Canonical text form
-------------------
``str(p)`` emits terms in descending lexicographic order of exponent
vectors, e.g. ``"1/4*l2^2 + 1/4*l3^2"`` or ``"-l2"``.  :func:`parse_poly`
reads the same grammar back:

    poly  := term (('+' | '-') term)*
    term  := coeff ('*' factor)* | factor ('*' factor)*
    factor:= var ('^' int)?
    coeff := int | int '/' int
    var   := [A-Za-z][A-Za-z0-9_]*

Whitespace is insignificant.

Trusted construction
--------------------
``Poly(params, terms)`` is the validating constructor: it copies the
term map, coerces every coefficient and checks every exponent vector.
The ring operations (``+``, ``-``, negation, ``*``, :meth:`Poly.scale`)
and :meth:`Poly.with_params` instead wrap a freshly built term map with
``Poly._make(params, terms)``, which copies and checks nothing.  It
relies on the invariant that every ``Poly`` already satisfies: ``params``
is a tuple, ``terms`` is a dict owned by this polynomial alone, its keys
are tuples of ``len(params)`` non-negative ints and its values are
nonzero :class:`~fractions.Fraction`.  Only code that builds such a dict
from ``Poly`` operands may call ``_make``: this module and the
multiply-accumulate kernel of :mod:`nordenlab.linalg` (``_accumulate``
and ``Tensor.from_entries``).  Everything else, user input included,
goes through ``Poly(...)``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import add
from typing import Iterable, Mapping, Union

from .errors import ParameterMismatchError, PolyParseError

#: Scalars accepted wherever a rational number is expected.
RationalLike = Union[Fraction, int, str]

_ZERO = Fraction(0)


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or string like ``"-2/3"`` to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise TypeError(f"not a rational value: {value!r}")
    return Fraction(value)


class Poly:
    """Immutable exact polynomial in named parameters.

    Instances should be built through :meth:`constant`, :meth:`variable`,
    :func:`parse_poly`, or arithmetic on existing polynomials.  The raw
    constructor normalizes (drops zero terms) and defensively copies.
    """

    __slots__ = ("params", "terms")

    def __init__(self, params: Iterable[str],
                 terms: Mapping[tuple[int, ...], RationalLike] = ()):
        object.__setattr__(self, "params", tuple(params))
        width = len(self.params)
        clean: dict[tuple[int, ...], Fraction] = {}
        for expo, coeff in dict(terms).items():
            expo = tuple(expo)
            if len(expo) != width:
                raise ValueError(
                    f"exponent vector {expo} has length {len(expo)}, "
                    f"expected {width}")
            if any(e < 0 for e in expo):
                raise ValueError(f"negative exponent in {expo}")
            coeff = as_fraction(coeff)
            if coeff != 0:
                clean[expo] = coeff
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def _make(cls, params: tuple[str, ...],
              terms: dict[tuple[int, ...], Fraction]) -> Poly:
        """Wrap a clean term map without copying or checking it (see the
        module docstring for the invariant the caller guarantees)."""
        p = object.__new__(cls)
        object.__setattr__(p, "params", params)
        object.__setattr__(p, "terms", terms)
        return p

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, params: Iterable[str] = ()) -> Poly:
        return cls(params)

    @classmethod
    def constant(cls, value: RationalLike, params: Iterable[str] = ()) -> Poly:
        params = tuple(params)
        return cls(params, {(0,) * len(params): as_fraction(value)})

    @classmethod
    def variable(cls, name: str, params: Iterable[str]) -> Poly:
        params = tuple(params)
        if name not in params:
            raise ValueError(f"unknown parameter {name!r} (have {params})")
        expo = tuple(1 if p == name else 0 for p in params)
        return cls(params, {expo: Fraction(1)})

    # -- basic queries -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        """True when no parameter actually occurs (includes zero)."""
        return all(not any(expo) for expo in self.terms)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial, as a Fraction."""
        if not self.terms:
            return _ZERO
        if not self.is_constant:
            raise ValueError(f"{self} is not constant")
        return next(iter(self.terms.values()))

    def total_degree(self) -> int:
        """Max over terms of the sum of exponents; 0 for the zero poly."""
        return max((sum(expo) for expo in self.terms), default=0)

    def is_homogeneous(self, degree: int) -> bool:
        """True when every term has total degree ``degree`` (or p == 0)."""
        return all(sum(expo) == degree for expo in self.terms)

    # -- parameter reconciliation -----------------------------------------

    def with_params(self, params: Iterable[str]) -> Poly:
        """Re-express this polynomial over a different parameter list.

        Every parameter that actually occurs must be present in the new
        list; this is how constants are promoted into a parameter space.
        """
        params = tuple(params)
        if params == self.params:
            return self
        positions = []
        for i, name in enumerate(self.params):
            where = params.index(name) if name in params else -1
            positions.append(where)
        terms: dict[tuple[int, ...], Fraction] = {}
        for expo, coeff in self.terms.items():
            new = [0] * len(params)
            for i, e in enumerate(expo):
                if e == 0:
                    continue
                if positions[i] < 0:
                    raise ParameterMismatchError(
                        f"parameter {self.params[i]!r} of {self} is not in "
                        f"{params}")
                new[positions[i]] = e
            terms[tuple(new)] = coeff
        return Poly._make(params, terms)

    def _occurring(self) -> set[str]:
        """Names of parameters with a nonzero exponent somewhere."""
        names: set[str] = set()
        for expo in self.terms:
            for name, e in zip(self.params, expo):
                if e:
                    names.add(name)
        return names

    def _aligned(self, other) -> tuple[Poly, Poly]:
        """Bring two operands onto a common parameter list.

        One operand's list wins when it covers every parameter actually
        occurring in the other (constants therefore mix with anything).
        Two lists that each use a parameter the other lacks refuse to
        combine: that is almost always two unrelated families colliding.
        """
        if isinstance(other, Poly):
            if other.params is self.params or other.params == self.params:
                return self, other
        elif isinstance(other, (int, Fraction)):
            return self, Poly.constant(other, self.params)
        else:
            return NotImplemented, NotImplemented  # type: ignore[return-value]
        if all(name in self.params for name in other._occurring()):
            target = self.params or other.params
        elif all(name in other.params for name in self._occurring()):
            target = other.params
        else:
            raise ParameterMismatchError(
                f"cannot combine polynomials over {self.params} and "
                f"{other.params}")
        return self.with_params(target), other.with_params(target)

    # -- ring arithmetic ---------------------------------------------------

    def __add__(self, other):
        a, b = self._aligned(other)
        if a is NotImplemented:
            return NotImplemented
        terms = dict(a.terms)
        _add_terms(terms, b.terms)
        return Poly._make(a.params, terms)

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self._aligned(other)
        if a is NotImplemented:
            return NotImplemented
        terms = dict(a.terms)
        _add_terms(terms, b.terms, -1)
        return Poly._make(a.params, terms)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self) -> Poly:
        return Poly._make(self.params,
                          {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        a, b = self._aligned(other)
        if a is NotImplemented:
            return NotImplemented
        terms: dict[tuple[int, ...], Fraction] = {}
        _add_product(terms, a.terms, b.terms)
        return Poly._make(a.params, terms)

    __rmul__ = __mul__

    def scale(self, factor: RationalLike) -> Poly:
        """Multiply by an exact rational scalar."""
        factor = as_fraction(factor)
        if factor == 0:
            return Poly._make(self.params, {})
        return Poly._make(self.params,
                          {e: c * factor for e, c in self.terms.items()})

    def __truediv__(self, divisor: RationalLike) -> Poly:
        divisor = as_fraction(divisor)
        if divisor == 0:
            raise ZeroDivisionError("division of Poly by zero rational")
        return self.scale(Fraction(1) / divisor)

    # -- evaluation --------------------------------------------------------

    def evaluate(self, assignment: Mapping[str, RationalLike]) -> Fraction:
        """Exact substitution of rationals for every occurring parameter.

        Parameters that never occur in a term may be omitted from the
        assignment; a missing occurring parameter raises KeyError.
        """
        values: list[Fraction | None] = []
        for name in self.params:
            raw = assignment.get(name)
            values.append(None if raw is None else as_fraction(raw))
        total = _ZERO
        for expo, coeff in self.terms.items():
            prod = coeff
            for i, e in enumerate(expo):
                if e == 0:
                    continue
                if values[i] is None:
                    raise KeyError(
                        f"no value for parameter {self.params[i]!r}")
                prod *= values[i] ** e
            total += prod
        return total

    # -- comparison and display -------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_constant and self.constant_value() == other
        if not isinstance(other, Poly):
            return NotImplemented
        if self.params == other.params:
            return self.terms == other.terms
        if self.is_constant and other.is_constant:
            return self.constant_value() == other.constant_value()
        try:
            a, b = self._aligned(other)
        except ParameterMismatchError:
            return False
        return a.terms == b.terms

    def __hash__(self):
        if self.is_constant:
            return hash(self.constant_value())
        return hash((self.params, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"Poly({format_poly(self)!r})"


def _add_terms(terms: dict, source: Mapping, factor: RationalLike = 1
               ) -> None:
    """``terms += factor * source`` in place, for a nonzero rational
    ``factor``; a term is deleted the moment it cancels."""
    scaled = factor != 1
    for expo, coeff in source.items():
        if scaled:
            coeff = coeff * factor
        prev = terms.get(expo)
        if prev is None:
            terms[expo] = coeff
        else:
            coeff += prev
            if coeff:
                terms[expo] = coeff
            else:
                del terms[expo]


def _add_product(terms: dict, left: Mapping, right: Mapping) -> None:
    """``terms += left * right`` in place, for two term maps over one
    parameter list; a term is deleted the moment it cancels."""
    for e1, c1 in left.items():
        for e2, c2 in right.items():
            expo = tuple(map(add, e1, e2))
            coeff = c1 * c2
            prev = terms.get(expo)
            if prev is None:
                terms[expo] = coeff
            else:
                coeff += prev
                if coeff:
                    terms[expo] = coeff
                else:
                    del terms[expo]


def format_poly(p: Poly) -> str:
    """Canonical text: descending lexicographic term order, ``^`` powers.

    The output round-trips through :func:`parse_poly` and is byte-stable,
    which the CLI relies on for deterministic reports.
    """
    if not p.terms:
        return "0"
    pieces = []
    for expo in sorted(p.terms, reverse=True):
        coeff = p.terms[expo]
        factors = [
            name if e == 1 else f"{name}^{e}"
            for name, e in zip(p.params, expo) if e
        ]
        mag = abs(coeff)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        pieces.append(("-" if coeff < 0 else "+", body))
    sign, body = pieces[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z][A-Za-z0-9_]*)"
                    r"|(?P<op>[-+*/^]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == m.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise PolyParseError(
                f"unexpected character {stripped[0]!r} in polynomial "
                f"{text!r}")
        if m.group("int") is not None:
            digits = m.group("int")
            try:
                tokens.append(("int", int(digits)))
            except ValueError:  # more digits than Python converts
                raise PolyParseError(
                    f"integer of {len(digits)} digits in polynomial is "
                    f"too long") from None
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name")))
        else:
            tokens.append(("op", m.group("op")))
        pos = m.end()
    return tokens


def parse_poly(text: str, params: Iterable[str] | None = None) -> Poly:
    """Parse polynomial text.

    When ``params`` is given, every variable must belong to it and the
    result is expressed over exactly that list.  Without ``params`` the
    parameter list is the sorted set of variables that occur.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise PolyParseError(f"empty polynomial text {text!r}")

    known = None if params is None else tuple(params)
    seen: set[str] = set()
    # Each parsed term: (sign, Fraction coeff, {name: exponent})
    terms: list[tuple[int, Fraction, dict[str, int]]] = []
    i = 0

    def expect_int(what: str) -> int:
        nonlocal i
        if i >= len(tokens) or tokens[i][0] != "int":
            raise PolyParseError(f"expected {what} in polynomial {text!r}")
        value = tokens[i][1]
        i += 1
        return value

    while i < len(tokens):
        sign = 1
        while i < len(tokens) and tokens[i] == ("op", "-"):
            sign = -sign
            i += 1
        if i < len(tokens) and tokens[i] == ("op", "+"):
            raise PolyParseError(f"misplaced '+' in polynomial {text!r}")
        coeff = Fraction(1)
        powers: dict[str, int] = {}
        first = True
        while True:
            if i >= len(tokens):
                if first:
                    raise PolyParseError(
                        f"dangling sign in polynomial {text!r}")
                break
            kind, value = tokens[i]
            if kind == "int":
                i += 1
                num = value
                if i < len(tokens) and tokens[i] == ("op", "/"):
                    i += 1
                    den = expect_int("denominator")
                    if den == 0:
                        raise PolyParseError(
                            f"zero denominator in polynomial {text!r}")
                    coeff *= Fraction(num, den)
                else:
                    coeff *= num
            elif kind == "name":
                i += 1
                if known is not None and value not in known:
                    raise PolyParseError(
                        f"unknown parameter {value!r} in polynomial "
                        f"{text!r}")
                seen.add(value)
                power = 1
                if i < len(tokens) and tokens[i] == ("op", "^"):
                    i += 1
                    power = expect_int("exponent")
                powers[value] = powers.get(value, 0) + power
            else:
                raise PolyParseError(
                    f"expected coefficient or variable in polynomial "
                    f"{text!r}")
            first = False
            if i < len(tokens) and tokens[i] == ("op", "*"):
                i += 1
                continue
            break
        terms.append((sign, coeff, powers))
        if i < len(tokens):
            kind, value = tokens[i]
            if kind != "op" or value not in "+-":
                raise PolyParseError(
                    f"expected '+' or '-' between terms in polynomial "
                    f"{text!r}")
            if value == "+":
                i += 1  # '-' stays: consumed as the next term's sign
                if i >= len(tokens):
                    raise PolyParseError(
                        f"trailing '+' in polynomial {text!r}")

    plist = known if known is not None else tuple(sorted(seen))
    acc: dict[tuple[int, ...], Fraction] = {}
    for sign, coeff, powers in terms:
        expo = tuple(powers.get(name, 0) for name in plist)
        acc[expo] = acc.get(expo, _ZERO) + sign * coeff
    return Poly(plist, acc)


def as_poly(value: Poly | RationalLike, params: Iterable[str]) -> Poly:
    """Coerce a Poly, rational, or polynomial text to a Poly over ``params``.

    Strings are parsed with :func:`parse_poly` against the given list.
    """
    params = tuple(params)
    if isinstance(value, Poly):
        return value.with_params(params) if value.params != params else value
    if isinstance(value, str):
        return parse_poly(value, params)
    return Poly.constant(as_fraction(value), params)
