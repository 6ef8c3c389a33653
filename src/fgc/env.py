"""The typing environment and its lookup operations.

Names carry their declarations (see `parser`), so an Env holds only what
a proof can use: the witnesses and the equations; concepts are read from
one table per program.  Witnesses are indexed by concept declaration, so
a query walks only its own concept's models and assumptions, most recent
first; the assumptions alone are a second index, so dropping the models
at a path step copies nothing.  Constraint expansion and qualified-path
lookup follow the declarative definitions with concept parameters and
associated types substituted as the environment is built.  Each Env also
owns the congruence closure of the equations it assumes.

The closure is made on the first query that syntax does not decide, from
the closure of the longest prefix of its equations that has one and the
equations after it (`EquationNode`), so a chain of scopes merges each
equation once.  `satisfies` takes a candidate `==` to
the wanted model identifier, and proves a same-type constraint that is
reflexive or one of the assumed equations as written, without it; any
other query asks the closure, so the same evidence is chosen.
"""

from __future__ import annotations

import weakref

from .ast import (
    AssocPath,
    ConceptC,
    ConceptInfo,
    Constraint,
    Forall,
    ModelId,
    SameType,
    TVar,
    Type,
    alpha_equal,
    contains_node,
    substitute_type_map,
)
from .node import Node, set_field
from .typeq import ClosureState


class Evidence(Node):
    """The dictionary witnessing a concept constraint: the `ModelDecl` or
    `ConstrainedE` node binding a dictionary, and the nested-requirement
    slots leading from it to the witness.  `PROVED` has no binder."""

    __slots__ = ("binder", "route")

    def __init__(self, binder: object, route: tuple = ()):
        set_field(self, "binder", binder)
        set_field(self, "route", route)


PROVED = Evidence(None)  # a provable same-type constraint


# ---------------------------------------------------------------- errors


class UnknownConceptError(Exception):
    def __init__(self, name):
        self.name = name
        super().__init__(f"unknown concept {name!r}")


class UnsatisfiedConstraintError(Exception):
    def __init__(self, constraint):
        self.constraint = constraint
        super().__init__("unsatisfied constraint")


class UnknownMemberError(Exception):
    def __init__(self, name):
        self.name = name
        super().__init__(f"unknown member {name!r}")


# ---------------------------------------------------------------- env


class EquationNode:
    """The equations an environment assumes, `(lhs, rhs, is_alias)` in
    order: a node in the tree of sequences grown from one empty `Env`,
    with a child memoised per equation, so environments assuming the same
    equations in the same order share one closure.  A node takes the
    closure of its nearest ancestor that has one, which makes a new one on
    its next query; a node without one builds its own.  The parent is held
    weakly, so the tree has no cycle."""

    def __init__(self, assumed: tuple = (), parent=None):
        self.assumed = assumed
        self.children = {}
        self.parent = parent and weakref.ref(parent)
        self.built = None

    def extend(self, equation: tuple) -> "EquationNode":
        child = self.children.get(equation)
        if child is None:
            child = self.children[equation] = EquationNode(
                self.assumed + (equation,), self)
        return child

    def assumes(self, a: Type, b: Type) -> bool:
        """Whether a = b or b = a is one of the equations as written."""
        return any((lhs == a and rhs == b) or (lhs == b and rhs == a)
                   for lhs, rhs, _ in self.assumed)

    @property
    def closure(self) -> ClosureState:
        if self.built is None:
            node = self.parent and self.parent()
            while node is not None and node.built is None:
                node = node.parent and node.parent()
            if node is None:
                self.built = ClosureState(self.assumed)
            else:
                self.built, node.built = node.built, None
                for equation in self.assumed[len(node.assumed):]:
                    self.built.add_equation(*equation)
        return self.built


def _push(index: dict, mid: ModelId, evidence: Evidence) -> dict:
    """A copy of a witness index with `mid` most recent for its concept."""
    return {**index, mid.decl: (mid, evidence, index.get(mid.decl))}


class Env(Node):
    """Two witness indexes and the node of the equations assumed.  Each
    index maps a concept declaration identity to a chain of linked triples
    `(model id, evidence, rest)`, most recent first: `witnesses` holds the
    models and assumed concept constraints, which can satisfy a
    constraint, and `assumed` the assumptions alone.  An index is copied
    on extension and never mutated.  `Env()` is the empty environment,
    the root of a new tree of equation nodes.  Environments are equal when
    their indexes are, and are not hashable."""

    __slots__ = ("witnesses", "assumed", "eq_node")
    _unprinted = ("eq_node",)
    __hash__ = None

    def __init__(self, witnesses=None, assumed=None, eq_node=None):
        set_field(self, "witnesses", {} if witnesses is None else witnesses)
        set_field(self, "assumed", {} if assumed is None else assumed)
        set_field(self, "eq_node",
                  EquationNode() if eq_node is None else eq_node)

    def model(self, mid: ModelId, evidence: Evidence) -> "Env":
        return Env(_push(self.witnesses, mid, evidence), self.assumed,
                   self.eq_node)

    def assume(self, c: Constraint, evidence: Evidence) -> "Env":
        """A concept constraint becomes a witness; a same-type constraint
        only extends the equations."""
        if isinstance(c, SameType):
            return Env(self.witnesses, self.assumed,
                       self.eq_node.extend((c.lhs, c.rhs, False)))
        assumed = _push(self.assumed, c.model, evidence)
        witnesses = assumed if self.witnesses is self.assumed else \
            _push(self.witnesses, c.model, evidence)
        return Env(witnesses, assumed, self.eq_node)

    def equate(self, lhs: Type, rhs: Type) -> "Env":
        """Assume lhs = rhs: an alias for a TVar lhs, a model's
        associated-type binding for an AssocPath."""
        return Env(self.witnesses, self.assumed,
                   self.eq_node.extend((lhs, rhs, isinstance(lhs, TVar))))

    @property
    def closure(self) -> ClosureState:
        """The congruence closure of the equations in scope, in order."""
        return self.eq_node.closure

    def restrict(self) -> "Env":
        """Keep constraint assumptions and type equations, and so the
        closure; drop models."""
        return Env(self.assumed, self.assumed, self.eq_node)


# ---------------------------------------------------------------- operations


def concept_subst(info: ConceptInfo, mid: ModelId) -> dict:
    """Substitution mapping a concept's parameters to the model arguments
    and its associated types to paths through the model identifier."""
    sigma = dict(zip(info.type_params, mid.type_args))
    for b in info.assoc_types:
        sigma[b] = AssocPath(mid, b)
    return sigma


def flat(concepts: dict, constraint: Constraint) -> list:
    """Expansion of a constraint with all transitively nested constraints,
    concept parameters substituted, duplicates dropped.  Each expanded
    constraint comes with its route: the nested-requirement slots leading
    from the constraint's dictionary to its own (unused for a same-type
    constraint, which has no dictionary), through the concept table.  A
    constraint without a binder is alpha-equal only to an `==` one, so
    only those with a binder are compared pairwise."""
    out, plain, binding = [], set(), []
    # an explicit stack, not a recursive closure, which would refer to
    # itself and keep the concept table alive until the cycle collector
    # runs; children are pushed in reverse so they pop in depth-first order
    stack = [(constraint, ())]
    while stack:
        c, route = stack.pop()
        if contains_node(c, Forall):
            if any(alpha_equal(c, d) for d in binding):
                continue
            binding.append(c)
        elif c in plain:
            continue
        else:
            plain.add(c)
        out.append((c, route))
        if isinstance(c, SameType):
            continue
        mid = c.model
        info = concepts.get(mid.decl)
        if info is None:
            raise UnknownConceptError(mid.concept)
        sigma = concept_subst(info, mid)
        children = []
        slot = 0  # the dictionary holds the concept requirements only
        for nc in info.nested:
            children.append((substitute_type_map(nc, sigma), route + (slot,)))
            slot += isinstance(nc, ConceptC)
        stack.extend(reversed(children))
    return out


def satisfies(env: Env, constraint: Constraint):
    """The evidence by which the environment satisfies a constraint, or
    None: the most recent matching model or assumption for a concept
    constraint, `PROVED` for a provable same-type constraint.  A candidate
    `==` to the wanted model, or a same-type constraint that is reflexive
    or assumed as written, is decided without the closure."""
    if isinstance(constraint, SameType):
        lhs, rhs = constraint.lhs, constraint.rhs
        if lhs == rhs or env.eq_node.assumes(lhs, rhs) or \
                env.closure.types_equal(lhs, rhs):
            return PROVED
        return None
    mid = constraint.model
    node = env.witnesses.get(mid.decl)
    while node is not None:
        cand, evidence, node = node
        if models_equal(env, cand, mid):
            return evidence
    return None


def models_equal(env: Env, a: ModelId, b: ModelId) -> bool:
    """Whether the environment proves two model identifiers equal; `==`
    ones without the closure."""
    return a == b or env.closure.model_ids_equal(a, b)


def lookup_path(env: Env, concepts: dict, prefix: tuple, name: str):
    """Type of a qualified term path, with a non-empty prefix, and the
    evidence of its last model step.  Each step is satisfied in the
    restricted environment of the one before, which assumes that step's
    nested constraints; the member's type is the last step's."""
    for mid in prefix:
        info = concepts.get(mid.decl)
        if info is None or len(info.type_params) != len(mid.type_args):
            raise UnknownConceptError(mid.concept)
        evidence = satisfies(env, ConceptC(mid))
        if evidence is None:
            raise UnsatisfiedConstraintError(ConceptC(mid))
        sigma = concept_subst(info, mid)
        env = env.restrict()
        slot = 0
        for nc in info.nested:
            env = env.assume(substitute_type_map(nc, sigma), Evidence(
                evidence.binder, evidence.route + (slot,)))
            slot += isinstance(nc, ConceptC)
    members = dict(info.members)
    if name not in members:
        raise UnknownMemberError(name)
    return substitute_type_map(members[name], sigma), evidence
