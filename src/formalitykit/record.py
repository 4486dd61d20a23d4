"""Immutable value classes whose creation generates no code.

A Record subclass declares its fields as class annotations, in
constructor order; a class-level value is the field's default. The base
class builds the constructor: it binds positional and keyword arguments
to the fields and stores them with vars(self).update, since assignment
to an instance is refused, and a missing, unknown, duplicated or surplus
argument raises TypeError naming the class. A subclass writes its own
__init__ only to check or convert its arguments. From the field names
alone the base class also gives what a frozen dataclass would: equality
and hashing over the tuple of field values between instances of the
same class, a repr in the dataclass format, and refusal to assign or
delete attributes. A subclass declared with eq=False compares and
hashes by identity.

Unlike dataclass decoration, nothing is compiled when a subclass is
created, and neither `dataclasses` nor `inspect` is imported; every
command runs in a fresh interpreter, so that saving is paid per call.
"""

from __future__ import annotations

from typing import Dict, Tuple


class Record:
    _fields: Tuple[str, ...] = ()
    _defaults: Dict[str, object] = {}

    def __init_subclass__(cls, eq: bool = True):
        super().__init_subclass__()
        own = vars(cls)
        cls._fields = tuple(own.get("__annotations__", ()))
        cls._defaults = {name: own[name] for name in cls._fields if name in own}
        if not eq:
            cls.__eq__ = object.__eq__
            cls.__hash__ = object.__hash__

    def __init__(self, *args, **kwargs):
        fields, n = self._fields, len(args)
        if n == len(fields) and not kwargs:
            vars(self).update(zip(fields, args))
            return
        name = type(self).__qualname__
        if n > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {n} were given")
        rest = fields[n:]
        for key in kwargs:
            if key not in rest:
                how = "multiple values for" if key in fields else "an unexpected"
                raise TypeError(f"{name}() got {how} argument {key!r}")
        try:
            args += tuple([kwargs[f] if f in kwargs else self._defaults[f] for f in rest])
        except KeyError as missing:
            raise TypeError(f"{name}() missing argument {missing.args[0]!r}") from None
        vars(self).update(zip(fields, args))

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
