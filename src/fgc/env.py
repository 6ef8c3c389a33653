"""The ordered typing environment and its lookup operations.

An Env is a persistent sequence of entries, most recent first.  Lookup of
term bindings follows the first-binding rule; constraint expansion and
qualified-path lookup follow the declarative definitions with concept
parameters and associated types substituted as the environment is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
class Evidence:
    """The dictionary witnessing a concept constraint: the `ModelDecl` or
    `ConstrainedE` node binding a dictionary, and the nested-requirement
    slots leading from it to the witness.  `PROVED` has no binder."""
    binder: object
    route: tuple = ()


PROVED = Evidence(None)  # a provable same-type constraint


@dataclass(frozen=True)
class ConstraintEntry:
    """An assumed constraint.  The elaborator's type-level assumptions
    carry no evidence; `satisfies` refuses to pick such an entry."""
    constraint: Constraint
    evidence: Evidence = field(default=None, compare=False)


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
    evidence: Evidence = field(compare=False)


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
        from both constraint assumptions and model declarations, each with
        its evidence."""
        for e in self.entries:
            if (isinstance(e, ConstraintEntry)
                    and isinstance(e.constraint, ConceptC)
                    and e.constraint.model.concept == name):
                yield e.constraint.model, e.evidence
            elif isinstance(e, ModelEntry) and e.model.concept == name:
                yield e.model, e.evidence

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
    concept parameters substituted, duplicates dropped.  Each expanded
    constraint comes with its route: the nested-requirement slots leading
    from the constraint's dictionary to its own (unused for a same-type
    constraint, which has no dictionary)."""
    out = []

    def seen(c):
        return any(constraint_alpha_equal(c, d) for d, _ in out)

    def go(c, route):
        if seen(c):
            return
        out.append((c, route))
        if isinstance(c, SameType):
            return
        mid = c.model
        info = env.find_concept(mid.concept)
        if info is None:
            raise UnknownConceptError(mid.concept)
        sigma = concept_subst(info, mid)
        slot = 0  # the dictionary holds the concept requirements only
        for nc in info.nested:
            go(substitute_constraint(nc, sigma), route + (slot,))
            slot += isinstance(nc, ConceptC)

    go(constraint, ())
    return out


def satisfies(env: Env, constraint: Constraint, st: ClosureState):
    """The evidence by which the environment, whose congruence closure is
    st, satisfies a constraint, or None: the most recent matching model or
    assumption for a concept constraint, `PROVED` for a provable same-type
    constraint."""
    if isinstance(constraint, SameType):
        return PROVED if st.types_equal(constraint.lhs, constraint.rhs) \
            else None
    mid = constraint.model
    for cand, evidence in env.concept_candidates(mid.concept):
        if st.model_ids_equal(cand, mid):
            if evidence is None:
                raise ValueError(f"assumption of {mid.concept!r} carries "
                                 "no evidence")
            return evidence
    return None


def lookup_path(env: Env, prefix: tuple, name: str, closure):
    """Type of a qualified term path and the evidence of its last model
    step.  The empty prefix defers to the first-binding rule; each
    model-identifier step checks satisfaction and recurses into the
    concept-restricted environment extended with the concept's substituted
    nested constraints, their evidence extending the step's, and member
    signatures.  `closure` maps an environment to its congruence closure."""
    if not prefix:
        t = env.lookup_term(name)
        if t is None:
            raise UnknownMemberError(name)
        return t, None
    mid = prefix[0]
    info = env.find_concept(mid.concept)
    if info is None or len(info.type_params) != len(mid.type_args):
        raise UnknownConceptError(mid.concept)
    evidence = satisfies(env, ConceptC(mid), closure(env))
    if evidence is None:
        raise UnsatisfiedConstraintError(ConceptC(mid))
    sigma = concept_subst(info, mid)
    inner = env.restrict()
    slot = 0
    for nc in info.nested:
        inner = inner.push(ConstraintEntry(substitute_constraint(nc, sigma),
                                           Evidence(evidence.binder,
                                                    evidence.route + (slot,))))
        slot += isinstance(nc, ConceptC)
    for member_name, member_type in info.members:
        inner = inner.push(
            TermBind(member_name, substitute_type_map(member_type, sigma)))
    t, last = lookup_path(inner, prefix[1:], name, closure)
    return t, last or evidence
