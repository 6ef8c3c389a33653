"""The base class of fgc's immutable trees: the surface syntax, the System
F core, and the diagnostics and outcomes built from them.

A node class lists its fields, in order, as its `__slots__` and writes an
`__init__` that stores each one with `set_field`.  `Node` gives it the rest
of what a frozen dataclass has: positional patterns (`__match_args__` is
every field), a repr of every field but those named in `_unprinted`, and
an `AttributeError` on assignment and deletion.  Nothing is generated, so
defining a node class costs what any class costs.

Equality and hashing are those of the tuple of compared fields, between
instances of one class only, so every hash is the one a dataclass gives.
A class that compares some field writes its own `__eq__` and `__hash__`:
its own bytecode reads its slots about twice as fast as one method shared
by every class could.  `Node`'s are for a class that compares no field.
"""

from __future__ import annotations

set_field = object.__setattr__  # stores a field past `Node.__setattr__`
_NO_FIELDS_HASH = hash(())


class Node:
    __slots__ = ()
    _unprinted = ()  # fields left out of the repr

    def __init_subclass__(cls):
        cls.__match_args__ = cls.__slots__
        cls._printed = tuple(f for f in cls.__slots__
                             if f not in cls._unprinted)

    def __eq__(self, other):
        return True if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return _NO_FIELDS_HASH

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._printed)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
