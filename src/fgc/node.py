"""The base class of fgc's immutable trees: the surface syntax, the System
F core, and the diagnostics and outcomes built from them.

A node class lists its fields, in order, as its `__slots__` and writes an
`__init__` that stores each one with `set_field`.  `Node` gives it the rest
of what a frozen dataclass has: positional patterns (`__match_args__` is
every field), a repr of every field but those named in `_unprinted`, and
an `AttributeError` on assignment and deletion.  No source is generated or
compiled, so defining a node class costs little more than any class.

Equality and hashing are those of the tuple of compared fields (the
printed ones but those named in `_uncompared`), between instances of one
class only, so every hash is the one a dataclass gives.
`__init_subclass__` gives each class its methods from its own fields,
never from a base's (a field-less base must not hand its equality to a
subclass with fields):

- A class with one to three compared fields (every type that the
  checker, the congruence closure and the core check compare has that
  many) gets its own copy of the template for its field count (`_eq2`
  and `_hash2`, ...): the template's code with the placeholder attribute
  names `f1`, `f2`, `f3` replaced by the class's compared fields.  It
  runs the bytecode a class would write by hand, which CPython
  specializes to that class's slots; a method shared by every class
  reads them by name, several times slower.
- A class with more (`Lam`, `Let`, `ConceptInfo`, `ModelInfo`, the
  diagnostic) shares `Node.__eq__` and `Node.__hash__`: only tests
  compare them.  A class that compares no field (`IntT`, `CInt`, ...)
  gets constant-time methods.

A class that sets `__hash__ = None` stays unhashable.  `tests/test_ast.py`
checks that each class of the first kind reads exactly its fields, and
counts the calls over the corpus and benchmark programs: it fails if a
class on the shared methods is compared.
"""

from __future__ import annotations

from types import FunctionType

set_field = object.__setattr__  # stores a field past `Node.__setattr__`
_NO_FIELDS_HASH = hash(())


def _values(node) -> tuple:
    return tuple([getattr(node, f) for f in node._compared])


def _same_class(self, other):
    return True if other.__class__ is self.__class__ else NotImplemented


def _no_fields_hash(self):
    return _NO_FIELDS_HASH


# The templates of a class's own equality, by its number of compared fields.
def _eq1(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    return self is other or self.f1 == other.f1


def _eq2(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    return self is other or (self.f1, self.f2) == (other.f1, other.f2)


def _eq3(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    return self is other or (self.f1, self.f2, self.f3) == (
        other.f1, other.f2, other.f3)


def _hash1(self):
    return hash((self.f1,))


def _hash2(self):
    return hash((self.f1, self.f2))


def _hash3(self):
    return hash((self.f1, self.f2, self.f3))


_TEMPLATES = {1: (_eq1, _hash1), 2: (_eq2, _hash2), 3: (_eq3, _hash3)}


def _specialize(template, cls, name: str):
    """The method `name` of cls: a copy of template that reads cls's
    compared fields in place of the placeholders `f1`, `f2`, `f3`."""
    rename = dict(zip(("f1", "f2", "f3"), cls._compared))
    code = template.__code__
    method = FunctionType(code.replace(co_names=tuple(
        rename.get(n, n) for n in code.co_names)), globals(), name)
    method.__qualname__ = f"{cls.__qualname__}.{name}"
    return method


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
        n = len(cls._compared)
        if n in _TEMPLATES:
            eq, hash_ = [_specialize(t, cls, name) for t, name in
                         zip(_TEMPLATES[n], ("__eq__", "__hash__"))]
        elif n:
            eq, hash_ = Node.__eq__, Node.__hash__
        else:
            eq, hash_ = _same_class, _no_fields_hash
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
