"""The base class of fgc's immutable trees: the surface syntax, the System
F core, and the diagnostics and outcomes built from them.

A node class lists its fields, in order, as its `__slots__` and writes an
`__init__` that stores each one with `set_field`.  `Node` gives it the rest
of what a frozen dataclass has: positional patterns (`__match_args__` is
every field), a repr of every field but those named in `_unprinted`, and
an `AttributeError` on assignment and deletion.  Nothing is generated, so
defining a node class costs what any class costs.

Equality and hashing are those of the tuple of compared fields (the
printed ones but those named in `_uncompared`), between instances of one
class only, so every hash is the one a dataclass gives.  They come in two
kinds:

- Written methods, where the pipeline compares: the types that the
  checker, the congruence closure and the core check compare or hash
  (`ModelId`, `AssocPath`, `TVar`, `ConceptC`, `SameType`, `ListT`,
  `Arrow`, and `CList`, `CArrow`, `CForall`, `CTVar`, `CTupleT`) write
  their own `__eq__` and `__hash__`, because a class's own bytecode reads
  its slots several times as fast as a method shared by every class.
- Shared methods everywhere else: `Node.__eq__` and `Node.__hash__` read
  the compared fields by name.  They are slower, but only tests compare
  expressions, core terms, diagnostics or outcomes, so they cost nothing
  in the pipeline and save a written pair per class.  A class that
  compares no field (`IntT`, `CInt`, ...) gets constant-time methods.

`__init_subclass__` picks the kind for each class from the class's own
fields, never from a base's: a field-less base must not hand its equality
to a subclass with fields.  `tests/test_ast.py` counts the calls over
the corpus and benchmark programs and fails if a class on the shared
methods is compared, or if a written pair is never called.
"""

from __future__ import annotations

set_field = object.__setattr__  # stores a field past `Node.__setattr__`
_NO_FIELDS_HASH = hash(())


def _values(node) -> tuple:
    return tuple([getattr(node, f) for f in node._compared])


def _same_class(self, other):
    return True if other.__class__ is self.__class__ else NotImplemented


def _no_fields_hash(self):
    return _NO_FIELDS_HASH


class Node:
    __slots__ = ()
    _unprinted = ()  # fields left out of the repr
    _uncompared = ()  # printed fields left out of equality and the hash

    def __init_subclass__(cls):
        cls.__match_args__ = cls.__slots__
        cls._printed = tuple(f for f in cls.__slots__
                             if f not in cls._unprinted)
        cls._compared = tuple(f for f in cls._printed
                              if f not in cls._uncompared)
        eq, hash_ = ((Node.__eq__, Node.__hash__) if cls._compared
                     else (_same_class, _no_fields_hash))
        if "__eq__" not in vars(cls):
            cls.__eq__ = eq
        if "__hash__" not in vars(cls):  # `None` keeps a class unhashable
            cls.__hash__ = hash_

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or _values(self) == _values(other)

    def __hash__(self):
        return hash(_values(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._printed)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
