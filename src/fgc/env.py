"""The ordered typing environment and its lookup operations.

An Env is a persistent sequence of entries, most recent first.  Lookup of
term bindings follows the first-binding rule; constraint expansion and
qualified-path lookup follow the declarative definitions with concept
parameters and associated types substituted as the environment is built.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ast import (
    AssocPath,
    ConceptC,
    ConceptInfo,
    Constraint,
    ModelId,
    ModelInfo,
    SameType,
    TVar,
    Type,
    constraint_alpha_equal,
    substitute_constraint,
    substitute_type_map,
)
from .typeq import ClosureState


# ---------------------------------------------------------------- entries


@dataclass(frozen=True)
class TermBind:
    name: str
    type: Type


@dataclass(frozen=True)
class TypeVarBind:
    name: str


@dataclass(frozen=True)
class ConstraintEntry:
    constraint: Constraint


@dataclass(frozen=True)
class TypeEq:
    lhs: Type  # a TVar for aliases, an AssocPath for model bindings
    rhs: Type


@dataclass(frozen=True)
class ConceptEntry:
    info: ConceptInfo


@dataclass(frozen=True)
class ModelEntry:
    model: ModelId
    info: ModelInfo


# ---------------------------------------------------------------- errors


class PathLookupError(Exception):
    pass


class UnknownConceptError(PathLookupError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"unknown concept {name!r}")


class UnsatisfiedConstraintError(PathLookupError):
    def __init__(self, constraint):
        self.constraint = constraint
        super().__init__("unsatisfied constraint")


class UnknownMemberError(PathLookupError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"unknown member {name!r}")


# ---------------------------------------------------------------- env


@dataclass(frozen=True)
class Env:
    entries: tuple = ()

    def push(self, entry) -> "Env":
        return Env((entry,) + self.entries)

    def push_all(self, entries) -> "Env":
        acc = self
        for e in entries:
            acc = acc.push(e)
        return acc

    def lookup_term(self, name: str):
        """Type of the first (most recent) binding for name, or None."""
        for e in self.entries:
            if isinstance(e, TermBind) and e.name == name:
                return e.type
        return None

    def find_concept(self, name: str):
        for e in self.entries:
            if isinstance(e, ConceptEntry) and e.info.name == name:
                return e.info
        return None

    def equations(self):
        out = []
        for e in reversed(self.entries):
            if isinstance(e, TypeEq):
                out.append((e.lhs, e.rhs))
            elif isinstance(e, ConstraintEntry) and isinstance(
                    e.constraint, SameType):
                out.append((e.constraint.lhs, e.constraint.rhs))
        return out

    def alias_names(self):
        return {e.lhs.name for e in self.entries
                if isinstance(e, TypeEq) and isinstance(e.lhs, TVar)}

    def concept_candidates(self, name: str):
        """Model identifiers asserted for a concept, most recent first,
        from both constraint assumptions and model declarations."""
        for e in self.entries:
            if (isinstance(e, ConstraintEntry)
                    and isinstance(e.constraint, ConceptC)
                    and e.constraint.model.concept == name):
                yield e.constraint.model
            elif isinstance(e, ModelEntry) and e.model.concept == name:
                yield e.model

    def restrict(self) -> "Env":
        """Keep concept definitions, constraint assumptions, and type
        equations; drop term bindings, type variables, and models."""
        kept = tuple(e for e in self.entries
                     if isinstance(e, (ConceptEntry, ConstraintEntry, TypeEq)))
        return Env(kept)


# ---------------------------------------------------------------- operations


def concept_subst(info: ConceptInfo, mid: ModelId) -> dict:
    """Substitution mapping a concept's parameters to the model arguments
    and its associated types to paths through the model identifier."""
    sigma = dict(zip(info.type_params, mid.type_args))
    for b in info.assoc_types:
        sigma[b] = AssocPath(mid, b)
    return sigma


def flat(env: Env, constraint: Constraint) -> list:
    """Expansion of a constraint with all transitively nested constraints,
    concept parameters substituted, duplicates dropped."""
    out = []

    def seen(c):
        return any(constraint_alpha_equal(c, d) for d in out)

    def go(c):
        if seen(c):
            return
        if isinstance(c, SameType):
            out.append(c)
            return
        mid = c.model
        info = env.find_concept(mid.concept)
        if info is None:
            raise UnknownConceptError(mid.concept)
        out.append(c)
        sigma = concept_subst(info, mid)
        for nc in info.nested:
            go(substitute_constraint(nc, sigma))

    go(constraint)
    return out


def satisfies(env: Env, constraint: Constraint, st: ClosureState) -> bool:
    """Whether the environment, whose congruence closure is st, satisfies a
    constraint: a matching model or assumption for a concept constraint,
    provable equality for a same-type constraint."""
    if isinstance(constraint, SameType):
        return st.types_equal(constraint.lhs, constraint.rhs)
    mid = constraint.model
    for cand in env.concept_candidates(mid.concept):
        if st.model_ids_equal(cand, mid):
            return True
    return False


def lookup_path(env: Env, prefix: tuple, name: str, closure) -> Type:
    """Type of a qualified term path.  The empty prefix defers to the
    first-binding rule; each model-identifier step checks satisfaction and
    recurses into the concept-restricted environment extended with the
    concept's substituted nested constraints and member signatures.
    `closure` maps an environment to its congruence closure."""
    if not prefix:
        t = env.lookup_term(name)
        if t is None:
            raise UnknownMemberError(name)
        return t
    mid = prefix[0]
    info = env.find_concept(mid.concept)
    if info is None or len(info.type_params) != len(mid.type_args):
        raise UnknownConceptError(mid.concept)
    if not satisfies(env, ConceptC(mid), closure(env)):
        raise UnsatisfiedConstraintError(ConceptC(mid))
    sigma = concept_subst(info, mid)
    inner = env.restrict()
    for nc in info.nested:
        inner = inner.push(ConstraintEntry(substitute_constraint(nc, sigma)))
    for member_name, member_type in info.members:
        inner = inner.push(
            TermBind(member_name, substitute_type_map(member_type, sigma)))
    return lookup_path(inner, prefix[1:], name, closure)
