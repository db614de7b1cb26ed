"""Immutable value records.

A :class:`Record` subclass names its fields in ``__slots__``, in
constructor order, and fills them with :meth:`Record._fill`.  A slot
named with a leading underscore holds its value as given, and the field
is the property of the same name without it, which may format the value
when read.  Records compare and hash by their field values, raise
``AttributeError`` on assignment and copy and pickle through their
constructor: the frozen value semantics, without generating classes at
import time.
"""

from __future__ import annotations


class Record:
    """Base of the package's value records (see the module docstring)."""

    __slots__ = ()

    def _fill(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name.lstrip("_"))
                     for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, not setattr
        return type(self), self._values()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name.lstrip('_')}={value!r}" for name, value
                           in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({fields})"
