"""Immutable value classes whose creation generates no code.

A Record subclass declares its fields as class annotations, in
constructor order, and writes its own __init__: it checks its arguments
and stores each field with vars(self).update, since assignment to an
instance is refused. From the field names alone the base class gives
what a frozen dataclass would: equality and hashing over the tuple of
field values between instances of the same class, a repr in the
dataclass format, and refusal to assign or delete attributes. A subclass
declared with eq=False compares and hashes by identity.

Unlike dataclass decoration, nothing is compiled when a subclass is
created, and neither `dataclasses` nor `inspect` is imported; every
command runs in a fresh interpreter, so that saving is paid per call.
"""

from __future__ import annotations

from typing import Tuple


class Record:
    _fields: Tuple[str, ...] = ()

    def __init_subclass__(cls, eq: bool = True):
        super().__init_subclass__()
        cls._fields = tuple(vars(cls).get("__annotations__", ()))
        if not eq:
            cls.__eq__ = object.__eq__
            cls.__hash__ = object.__hash__

    def _values(self) -> tuple:
        d = self.__dict__
        return tuple([d[name] for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        d = self.__dict__
        inner = ", ".join(f"{name}={d[name]!r}" for name in self._fields)
        return f"{type(self).__qualname__}({inner})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
