"""Immutable values.

:class:`Frozen` is the one value protocol of the package's polynomials,
matrices, tensors, algebras and records.  A subclass fills its fields
once, through :meth:`Frozen._set`, and names its constructor arguments
in ``_args``.  Assignment and deletion raise an ``AttributeError``
naming the owner, the first class in the MRO that defines ``__init__``;
copy and pickle rebuild through the constructor from ``_args``; ``==``
compares ``_args`` between two values of one type and ``hash`` hashes
them.  A subclass whose equality or hash means more overrides them.

A :class:`Record` subclass names its fields in ``__slots__``, in
constructor order, and fills them with :meth:`Record._fill`.  A slot
named with a leading underscore holds its value as given, and the field
is the property of the same name without it, which may format the value
when read.  Records are frozen by their field values: the frozen
dataclass semantics, without generating classes at import time.
"""

from __future__ import annotations


class Frozen:
    """Base of the package's immutable values (see the module docstring)."""

    __slots__ = ()

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, *_):
        owner = next(c for c in type(self).__mro__ if "__init__" in vars(c))
        raise AttributeError(f"{owner.__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, not setattr
        return type(self), self._args()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._args() == other._args()

    def __hash__(self):
        return hash(self._args())


class Record(Frozen):
    """Base of the package's value records (see the module docstring)."""

    __slots__ = ()

    def _fill(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name.lstrip("_"))
                     for name in self.__slots__)

    _args = _values

    def __repr__(self):
        fields = ", ".join(f"{name.lstrip('_')}={value!r}" for name, value
                           in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({fields})"
