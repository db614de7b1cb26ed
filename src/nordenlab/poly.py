"""Exact multivariate polynomials over the rationals.

The scalar domain for the whole package.  A polynomial is a map from
packed exponent vectors to integer numerators over one common denominator:

    nums : Dict[int, int]        den : int

with coefficient ``nums[k] / den`` at the exponent vector packed in ``k``:
one 32-bit field per parameter, the first parameter in the most
significant field (Monagan and Pearce, CASC 2007).  Each field's top bit
is a guard, so an exponent is at most :data:`MAX_EXPONENT` (2**31 - 1),
guard-free keys add field by field without carry, and a monomial product
is one int addition; one that sets a guard bit raises
:class:`~nordenlab.errors.ExponentOverflowError` instead of wrapping into
the next field.  The width is fixed, so keys order as ints exactly as
their exponent vectors order lexicographically.  This is the ``fmpq_poly``
layout of FLINT: every ring operation multiplies and adds plain ints and
reduces once per result.  All arithmetic is exact; there is no floating
point anywhere in this module.

Values read back are :class:`fractions.Fraction`: :attr:`Poly.terms` is
a read-only ``{exponent tuple: Fraction}`` view built on first read,
and :meth:`Poly.constant_value` and :meth:`Poly.evaluate` return
Fractions.

Canonical text form
-------------------
``str(p)`` emits terms in descending lexicographic order of exponent
vectors, e.g. ``"1/4*l2^2 + 1/4*l3^2"`` or ``"-l2"``.  :func:`parse_poly`
reads the same grammar back:

    poly  := term (('+' | '-') term)*
    term  := '-'* factor ('*' factor)*
    factor:= coeff | var ('^' int)?
    coeff := int ('/' int)?
    var   := [A-Za-z][A-Za-z0-9_]*

So a term may open with several '-' signs (``-l2``, ``l1 - -l2``), a
coefficient may stand at any factor position (``l1*1/2``), a repeated
variable adds its exponents, and every '*' is followed by a factor: a
trailing '*' is an error.  Whitespace may stand between any two symbols.

Trusted construction
--------------------
``Poly(params, terms)`` is the validating constructor: it copies the
term map, coerces every coefficient to a Fraction, checks and packs
every exponent vector and brings the coefficients over their lcm.
The ring operations (``+``, ``-``, negation, ``*``, :meth:`Poly.scale`,
``/``) and :meth:`Poly.with_params` instead build their numerators as
ints and wrap them with ``Poly._make(params, nums, den)``, which copies
and checks nothing, or with :func:`_canonical`, which first divides out
``gcd(den, *nums)``.  Both rely on the canonical form that every
``Poly`` satisfies:

* ``params`` is a tuple;
* ``nums`` is a dict owned by this polynomial alone, whose keys are
  packed ints of ``len(params)`` fields with no guard bit set and whose
  values are nonzero ints;
* ``den`` is an int ``>= 1`` with ``gcd(den, *nums.values()) == 1``;
* the zero polynomial is ``den == 1`` with no numerators.

The form is unique, so equal polynomials over one parameter list have
equal ``nums`` and ``den``.  Only code that builds numerators from
``Poly`` operands may call ``_make`` or :func:`_canonical`: this module,
whose :func:`_multiply_accumulate` is the one loop that multiplies terms
(for ``*``, and for every tensor stage from the terms that
``Tensor.flat`` caches, a rational weight a constant operand), and the
``Tensor`` constructor of :mod:`nordenlab.linalg`, which reduces that
kernel's accumulators.  Everything else, user input included, goes
through ``Poly(...)``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import index, or_
from struct import pack, unpack
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence, Union

from .errors import (DigitLimitError, ExponentOverflowError,
                     ParameterMismatchError, PolyParseError)
from .record import Frozen

#: Scalars accepted wherever a rational number is expected.
RationalLike = Union[Fraction, int, str]

_new = object.__new__
_setattr = object.__setattr__

_BITS = 32  # per exponent field (struct "I"), the top one a guard
MAX_EXPONENT = (1 << _BITS - 1) - 1


def _pack(expo: tuple[int, ...]) -> int:
    """The key of an exponent vector whose entries are 0..MAX_EXPONENT."""
    return int.from_bytes(pack(f">{len(expo)}I", *expo), "big")


def _unpack(key: int, width: int) -> tuple[int, ...]:
    """The exponent vector of ``width`` fields packed in ``key``."""
    return unpack(f">{width}I", key.to_bytes(4 * width, "big"))


class _Guards(dict):
    """``_guard[width]``: the guard bits of a key of ``width`` fields."""

    def __missing__(self, width: int) -> int:
        guard = self[width] = _pack((MAX_EXPONENT + 1,) * width)
        return guard


_guard = _Guards()


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or string like ``"-2/3"`` to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise TypeError(f"not a rational value: {value!r}")
    return Fraction(value)


def _ratio(value: RationalLike) -> tuple[int, int]:
    """The reduced ``(numerator, denominator)`` of a rational scalar, read
    directly from an int (not a bool) or a Fraction."""
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        value = as_fraction(value)
    return value.as_integer_ratio()


def _distinct(params: Iterable[str]) -> tuple[str, ...]:
    """``params`` as a tuple.  A name listed twice would get two exponent
    fields that print alike yet compare unequal, so it is refused."""
    params = tuple(params)
    if len(set(params)) < len(params):
        name = next(p for n, p in enumerate(params) if p in params[:n])
        raise ValueError(f"parameter {_shown(str(name))} is listed twice")
    return params


class Poly(Frozen):
    """Immutable exact polynomial in named parameters.

    Instances should be built through :meth:`constant`, :meth:`variable`,
    :func:`parse_poly`, or arithmetic on existing polynomials.  The raw
    constructor normalizes (drops zero terms) and defensively copies.
    ``nums`` and ``den`` are the stored integer form (see the module
    docstring); ``terms`` is the same polynomial as Fractions.
    """

    __slots__ = ("params", "nums", "den", "_terms")

    def __init__(self, params: Iterable[str],
                 terms: Mapping[tuple[int, ...], RationalLike] = ()):
        params = _distinct(params)
        width = len(params)
        clean: dict[int, Fraction] = {}
        for expo, coeff in dict(terms).items():
            expo = tuple(map(index, expo))  # ints only: floats raise
            if len(expo) != width:
                raise ValueError(
                    f"exponent vector {expo} has length {len(expo)}, "
                    f"expected {width}")
            if expo and min(expo) < 0:
                raise ValueError(f"negative exponent in {expo}")
            if expo and max(expo) > MAX_EXPONENT:
                try:
                    shown = _shown(str(expo), str)
                except ValueError:  # past the int-to-str digit limit
                    shown = f"an exponent of {max(expo).bit_length()} bits"
                raise ExponentOverflowError(
                    f"exponent above {MAX_EXPONENT} in {shown}")
            coeff = as_fraction(coeff)
            if coeff:
                clean[_pack(expo)] = coeff
        # over the lcm of reduced denominators, gcd(den, *nums) is 1
        den = 1
        for c in clean.values():
            if den % c.denominator:
                den = lcm(den, c.denominator)
        self._set(params=params, den=den, nums={
            e: c.numerator * (den // c.denominator) for e, c in clean.items()})

    def _args(self):
        return self.params, dict(self.terms)

    @classmethod
    def _make(cls, params: tuple[str, ...], nums: dict[int, int],
              den: int = 1) -> Poly:
        """Wrap canonical numerators without copying or checking them
        (see the module docstring for the invariant the caller
        guarantees)."""
        p = _new(cls)
        _setattr(p, "params", params)
        _setattr(p, "nums", nums)
        _setattr(p, "den", den)
        return p

    @property
    def terms(self) -> Mapping[tuple[int, ...], Fraction]:
        """Read-only ``{exponent tuple: Fraction}`` view, built on first
        read and kept."""
        try:
            return self._terms
        except AttributeError:  # not read before
            den, width = self.den, len(self.params)
            view = MappingProxyType({_unpack(k, width): Fraction(n, den)
                                     for k, n in self.nums.items()})
            _setattr(self, "_terms", view)
            return view

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, params: Iterable[str] = ()) -> Poly:
        return cls._make(_distinct(params), {})

    @classmethod
    def constant(cls, value: RationalLike, params: Iterable[str] = ()) -> Poly:
        params = tuple(params)
        return cls(params, {(0,) * len(params): as_fraction(value)})

    @classmethod
    def variable(cls, name: str, params: Iterable[str]) -> Poly:
        params = _distinct(params)
        if name not in params:
            raise ValueError(f"unknown parameter {name!r} (have {params})")
        return cls._make(params, {
            1 << _BITS * (len(params) - 1 - params.index(name)): 1})

    # -- basic queries -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.nums

    @property
    def is_constant(self) -> bool:
        """True when no parameter actually occurs (includes zero)."""
        return not any(self.nums)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial, as a Fraction."""
        if not self.is_constant:
            raise ValueError(f"{self} is not constant")
        return Fraction(self.nums.get(0, 0), self.den)  # 0 packs no power

    def total_degree(self) -> int:
        """Max over terms of the sum of exponents; 0 for the zero poly."""
        width = len(self.params)
        return max((sum(_unpack(k, width)) for k in self.nums), default=0)

    def is_homogeneous(self, degree: int) -> bool:
        """True when every term has total degree ``degree`` (or p == 0)."""
        width = len(self.params)
        return all(sum(_unpack(k, width)) == degree for k in self.nums)

    # -- parameter reconciliation -----------------------------------------

    def with_params(self, params: Iterable[str]) -> Poly:
        """Re-express this polynomial over a different parameter list.

        Every parameter that actually occurs must be present in the new
        list; this is how constants are promoted into a parameter space.
        """
        params = _distinct(params)
        if params == self.params:
            return self
        for name in self._occurring():
            if name not in params:
                raise ParameterMismatchError(
                    f"parameter {name!r} of {self} is not in {params}")
        # the shift that moves each field of a key to its new position
        shifts = [_BITS * (len(params) - 1 - params.index(name))
                  if name in params else 0 for name in self.params]
        width = len(self.params)
        nums = {sum(e << s for e, s in zip(_unpack(k, width), shifts)): c
                for k, c in self.nums.items()}
        return Poly._make(params, nums, self.den)

    def _occurring(self) -> tuple[str, ...]:
        """Parameters with a nonzero exponent somewhere, in list order."""
        fields = _unpack(reduce(or_, self.nums, 0), len(self.params))
        return tuple(name for name, e in zip(self.params, fields) if e)

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
        return _combine(a, b, 1)

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self._aligned(other)
        if a is NotImplemented:
            return NotImplemented
        return _combine(a, b, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self) -> Poly:
        return Poly._make(self.params,
                          {e: -c for e, c in self.nums.items()}, self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        a, b = self._aligned(other)
        if a is NotImplemented:
            return NotImplemented
        acc = _multiply_accumulate({}, [((), a.nums.items(), b.nums.items())],
                                   a.den * b.den, a.params)
        nums, den = acc.get((), ({}, 1))
        return _canonical(a.params, nums, den)

    __rmul__ = __mul__

    def scale(self, factor: RationalLike) -> Poly:
        """Multiply by an exact rational scalar.  An int (not a bool) or a
        Fraction is read as its numerator and denominator, with no Fraction
        arithmetic, and anything else through :func:`as_fraction`.
        Scaling by 1 returns this polynomial itself."""
        num, den = _ratio(factor)
        if num == 0:
            return Poly._make(self.params, {})
        return self._scaled(num, den)

    def __truediv__(self, divisor: RationalLike) -> Poly:
        """``scale(1 / divisor)``, the divisor read as :meth:`scale` reads
        its factor and that reciprocal never built as a Fraction."""
        num, den = _ratio(divisor)
        if num == 0:
            raise ZeroDivisionError("division of Poly by zero rational")
        return self._scaled(den, num) if num > 0 else self._scaled(-den, -num)

    def _scaled(self, num: int, den: int) -> Poly:
        """``self * num / den`` for coprime ints, ``num != 0 < den``."""
        if num == den:
            return self
        return _canonical(self.params,
                          {e: c * num for e, c in self.nums.items()},
                          self.den * den)

    # -- evaluation --------------------------------------------------------

    def evaluate(self, assignment: Mapping[str, RationalLike]) -> Fraction:
        """Exact substitution of rationals for every occurring parameter.

        Parameters that never occur in a term may be omitted from the
        assignment; a missing occurring parameter raises KeyError.
        """
        values: list[tuple[int, int] | None] = []
        for name in self.params:
            raw = assignment.get(name)
            if raw is None:
                values.append(None)
            else:
                raw = as_fraction(raw)
                values.append((raw.numerator, raw.denominator))
        total, den, width = 0, 1, len(self.params)  # the sum is total / den
        for key, num in self.nums.items():
            term_den = 1
            for i, e in enumerate(_unpack(key, width)):
                if e == 0:
                    continue
                if values[i] is None:
                    raise KeyError(
                        f"no value for parameter {self.params[i]!r}")
                num *= values[i][0] ** e
                term_den *= values[i][1] ** e
            if term_den != den:  # bring both over lcm(den, term_den)
                g = gcd(den, term_den)
                total *= term_den // g
                num *= den // g
                den = den // g * term_den
            total += num
        return Fraction(total, den * self.den)

    # -- comparison and display -------------------------------------------

    def __eq__(self, other):
        # Poly first: a Poly operand then never reaches the ABC instance
        # check that (int, Fraction) costs
        if isinstance(other, Poly):
            if self.params == other.params:
                return self.den == other.den and self.nums == other.nums
            try:
                a, b = self._aligned(other)
            except ParameterMismatchError:
                return False
            return a.den == b.den and a.nums == b.nums
        if isinstance(other, (int, Fraction)):
            return self.is_constant and self.constant_value() == other
        return NotImplemented

    def __hash__(self):
        # Equality aligns parameter lists, so hash what survives that:
        # each term's occurring (name, exponent) pairs and numerator.
        if self.is_constant:
            return hash(self.constant_value())
        params = self.params
        return hash((frozenset(
            (frozenset((name, e) for name, e in
                       zip(params, _unpack(k, len(params))) if e), c)
            for k, c in self.nums.items()), self.den))

    def __bool__(self):
        return bool(self.nums)

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"Poly({format_poly(self)!r})"


def _canonical(params: tuple[str, ...], nums: dict[tuple[int, ...], int],
               den: int) -> Poly:
    """``nums / den`` as a canonical Poly: ``gcd(den, *nums)`` divided
    out, and ``den = 1`` for the zero polynomial.  ``nums`` holds no zero
    and is given up to the result, which divides it in place."""
    if not nums:
        return Poly._make(params, nums)
    g = gcd(den, *nums.values()) if den != 1 else 1
    if g != 1:
        for e in nums:
            nums[e] //= g
        den //= g
    return Poly._make(params, nums, den)


def _combine(a: Poly, b: Poly, sign: int) -> Poly:
    """``a + sign * b`` for operands over one parameter list."""
    da, db = a.den, b.den
    if da == db:
        nums = dict(a.nums)
        _add_terms(nums, b.nums, sign)
        return _canonical(a.params, nums, da)
    g = gcd(da, db)
    up = db // g
    nums = {e: c * up for e, c in a.nums.items()}
    _add_terms(nums, b.nums, sign * (da // g))
    return _canonical(a.params, nums, da * up)


def _add_terms(nums: dict, source: Mapping, factor: int = 1) -> None:
    """``nums += factor * source`` in place, for integer numerators and a
    nonzero int ``factor``; a term is deleted the moment it cancels."""
    for expo, coeff in source.items():
        if factor != 1:
            coeff *= factor
        prev = nums.get(expo)
        if prev is None:
            nums[expo] = coeff
        else:
            coeff += prev
            if coeff:
                nums[expo] = coeff
            else:
                del nums[expo]


def _multiply_accumulate(acc: dict, products, den: int,
                         params: tuple[str, ...]) -> dict:
    """Add a stream of ``(key, left_terms, right_terms)`` products into
    ``acc`` and return it: the one loop that multiplies terms.  Terms are
    ``(packed key, numerator)`` pairs over ``params``, every operand's one
    list, as :func:`_flatten` gives them (``Tensor.flat`` caches a
    tensor's), every product over ``den``, and ``acc`` maps a key to its
    accumulator ``[nums, den]``, integer numerators made on first use.
    Keys in ``nums`` have no guard bit set, so only a new key is tested,
    and a term or key is deleted as soon as it cancels.
    """
    guard = _guard[len(params)]
    for key, left, right in products:
        entry = acc.get(key)
        if entry is None:
            nums = {}
            acc[key] = [nums, den]
        else:
            nums = entry[0]
        for e1, c1 in left:
            for e2, c2 in right:
                expo = e1 + e2
                prev = nums.get(expo)
                if prev is None:
                    if expo & guard:
                        raise _overflow(expo, guard)
                    nums[expo] = c1 * c2
                else:
                    coeff = prev + c1 * c2
                    if coeff:
                        nums[expo] = coeff
                    else:
                        del nums[expo]
        if not nums:
            del acc[key]
    return acc


def _first_nonzero(products, den: int, params: tuple[str, ...]):
    """The least key of a :func:`_multiply_accumulate` stream whose sum is
    nonzero, or None: the products, grouped by key, go to one kernel call
    key by key in sorted order, and since the kernel deletes a sum as it
    cancels, the stream stops once a finished key is left."""
    groups: dict = {}
    for item in products:
        groups.setdefault(item[0], []).append(item)
    acc: dict = {}
    return next(iter(_multiply_accumulate(acc, (
        item for key in sorted(groups) if not acc for item in groups[key]),
        den, params)), None)


def _flatten(values: Sequence[Poly]) -> tuple[int, tuple]:
    """``(den, terms)``: each of ``values`` as a tuple of ``(packed key,
    numerator)`` pairs over ``den``, the lcm of their denominators, as
    :func:`_multiply_accumulate` reads its operands."""
    den = lcm(*(v.den for v in values))
    return den, tuple([
        tuple(v.nums.items()) if v.den == den else
        tuple([(e, n * (den // v.den)) for e, n in v.nums.items()])
        for v in values])


def _scaled(terms: tuple, factor: int) -> tuple:
    """Flattened terms, times ``factor``."""
    return tuple([(e, n * factor) for e, n in terms])


def _overflow(expo: int, guard: int) -> ExponentOverflowError:
    """The error for a product key that sets one of ``guard``'s bits."""
    return ExponentOverflowError(
        f"exponent above {MAX_EXPONENT} in the product "
        f"{_unpack(expo, guard.bit_length() // _BITS)}")


def format_poly(p: Poly) -> str:
    """Canonical text: descending lexicographic term order, ``^`` powers.

    The output round-trips through :func:`parse_poly` and is byte-stable,
    which the CLI relies on for deterministic reports.
    """
    if not p.nums:
        return "0"
    den, width = p.den, len(p.params)
    pieces = []
    for key in sorted(p.nums, reverse=True):  # as ints: lexicographic
        num = p.nums[key]
        factors = [
            name if e == 1 else f"{name}^{e}"
            for name, e in zip(p.params, _unpack(key, width)) if e
        ]
        g = gcd(num, den)
        mag, q = abs(num) // g, den // g
        try:
            text = str(mag) if q == 1 else f"{mag}/{q}"
        except ValueError:  # more digits than Python prints
            bits = max(mag, q).bit_length()
            raise DigitLimitError(f"a coefficient of {bits} bits is too "
                                  f"long to print") from None
        if text != "1" or not factors:
            factors.insert(0, text)
        pieces.append(("- " if num < 0 else "+ ") + "*".join(factors))
    out = " ".join(pieces)
    return out[2:] if out[0] == "+" else "-" + out[2:]


# The grammar of the module docstring as patterns.  A term runs from its
# '-' signs to the next '+' or '-', and each '*'-separated piece of its
# factor list must be one whole factor.  The list is split, not matched
# by a repeated group, since the regex engine keeps a backtracking frame
# per repetition: hundreds of bytes per factor.
VARIABLE = r"[A-Za-z][A-Za-z0-9_]*"
_COEFF = r"(\d+)(?:\s*/\s*(\d+))?"
_POWER = rf"({VARIABLE})(?:\s*\^\s*(\d+))?"
_FACTOR = re.compile(rf"\s*(?:{_COEFF}|{_POWER})\s*")
_TERM = re.compile(r"(?P<signs>[-\s]*)(?P<factors>[^-+]*)(?P<sep>[-+]?)")


def _int(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than Python converts
        raise PolyParseError(f"integer of {len(digits)} digits in polynomial "
                             f"is too long") from None


def _shown(text: str, quote=repr) -> str:
    """``quote(text)``, cut to the ``repr`` of its first 20 characters and
    its length when longer than 40: every error line that echoes outside
    input reads it through here, so it stays short on any input."""
    if len(text) <= 40:
        return quote(text)
    return f"{text[:20]!r} of {len(text)} characters"


def parse_poly(text: str, params: Iterable[str] | None = None,
               bound: int | None = None) -> Poly:
    """Parse polynomial text.

    When ``params`` is given, every variable must belong to it and the
    result is expressed over exactly that list.  Without ``params`` the
    parameter list is the sorted set of variables written (``x^0`` too),
    found by one scan before the terms, so each term's coefficient is
    summed straight under its exponent vector.  A term whose coefficient,
    multiplied out as written, reaches ``bound`` in its numerator or
    denominator raises :class:`~nordenlab.errors.DigitLimitError` before
    its next factor is read.
    """
    if not text or text.isspace():
        raise PolyParseError(f"empty polynomial text {_shown(text)}")
    plist = tuple(sorted({m[0] for m in re.finditer(VARIABLE, text)})
                  if params is None else params)
    field = {name: n for n, name in enumerate(plist)}
    zero = [0] * len(plist)
    # coefficient sums under their exponent vectors, added as read
    sums: dict[tuple[int, ...], Fraction | int] = {}
    pos, sign = 0, 1  # a '-' between terms is the next term's sign
    while True:
        m = _TERM.match(text, pos)
        signs, factors, sep = m.groups()
        num, den, expo = -sign if signs.count("-") & 1 else sign, 1, zero[:]
        for piece in factors.split("*"):
            factor = _FACTOR.fullmatch(piece)
            if factor is None:
                raise PolyParseError(f"cannot read the term at column "
                                     f"{pos + 1} of polynomial {_shown(text)}")
            n, d, name, power = factor.groups()
            if n:
                num *= _int(n)
                if d:
                    den *= _int(d)
                    if not den:
                        raise PolyParseError(
                            f"zero denominator in polynomial {_shown(text)}")
                if bound and (abs(num) >= bound or den >= bound):
                    raise DigitLimitError(f"a coefficient reaches {bound} "
                                          f"in polynomial {_shown(text)}")
            elif name in field:
                expo[field[name]] += _int(power) if power else 1
            else:
                raise PolyParseError(f"unknown parameter {_shown(name)} in "
                                     f"polynomial {_shown(text)}")
        key = tuple(expo)
        # an integer coefficient adds as an int, without Fraction's gcd
        sums[key] = sums.get(key, 0) + (Fraction(num, den) if den > 1
                                        else num)
        if not sep:
            break
        pos, sign = m.end(), -1 if sep == "-" else 1
    return Poly(plist, sums)


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
