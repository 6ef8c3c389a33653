"""Type equality via congruence closure.

Types and constraints are interned into a node table in a nameless
(positional-binder) form, so alpha-equivalent ones share a node and
congruence under binders is plain constructor congruence.  One `intern`
takes both: a node's tag comes from its term's class and its children
are those `ast.type_children` lists, so no second walk restates them.
Equality assumptions seed a union-find which is kept closed under
congruence; interning a new term after construction re-saturates
incrementally.

Equations enter one at a time (`add_equation`), so an environment's
closure can be handed down from an enclosing scope's and receive only the
later equations (see `env.EquationNode`).  A class's representative is
its member of best priority first mentioned by an equation, which the
class keeps at hand: it depends on the equations alone, not on what
earlier queries interned, so canonical forms do not change as a closure
interns more terms.
"""

from __future__ import annotations

from .ast import (
    Arrow,
    AssocPath,
    BOOL,
    BoolT,
    ConceptC,
    Constrained,
    Constraint,
    Forall,
    INT,
    IntT,
    ListT,
    ModelId,
    SameType,
    TVar,
    Type,
    type_children,
)


class NoRepresentativeError(Exception):
    """Raised inside `_rebuild` when a class member cannot be rebuilt
    (cyclic equation class with no ground member)."""


# the tag of a node by the class of its term; a variable's node is "var",
# or "bvar" when bound, and a path's associated-type name is a "leaf"
_TAGS = {
    IntT: "int", BoolT: "bool", ListT: "list", Arrow: "arrow",
    Forall: "forall", Constrained: "cimp", AssocPath: "assoc",
    ConceptC: "cc", SameType: "st",
}

# preference order when choosing a class representative; lower is better
_PRIO = {
    "int": 0, "bool": 0, "list": 0, "arrow": 0, "forall": 0, "cimp": 0,
    "bvar": 0, "leaf": 0, "cc": 0, "st": 0,
    "var": 1,
    "assoc": 2,
}
_ALIAS_PRIO = 3
_UNMENTIONED = float("inf")


class ClosureState:
    def __init__(self, equations=()):
        """The closure of `equations`, each as `add_equation` takes it."""
        self.nodes = []       # id -> (tag, payload, children ids)
        self.node_ids = {}    # (tag, payload, children) -> id
        self.parent = []
        self.rank = []
        self.use = []         # root id -> parent node ids (valid at roots)
        self.members = []     # root id -> member node ids (valid at roots)
        self.best = []        # root id -> most preferred member (at roots)
        self.mention = []     # id -> order of first mention by an equation
        self.mentions = 0     # nodes mentioned by an equation so far
        self.mentioning = False  # interning an equation's sides
        self.sigtab = {}      # (tag, payload, child reps) -> node id
        self.alias_names = set()
        for equation in equations:
            self.add_equation(*equation)

    def add_equation(self, lhs: Type, rhs: Type, alias: bool = False):
        """Assume lhs = rhs; an alias's variable lhs ranks last as a
        representative."""
        if alias and lhs.name not in self.alias_names:
            self.alias_names.add(lhs.name)
            nid = self.node_ids.get(("var", lhs.name, ()))
            if nid is not None:
                root = self.find(nid)
                if self.best[root] == nid:
                    self.best[root] = min(self.members[root], key=self._key)
        self.mentioning = True
        a, b = self.intern(lhs), self.intern(rhs)
        self.mentioning = False
        self._merge(a, b)

    # -- union-find

    def find(self, i: int) -> int:
        p = self.parent
        while p[i] != i:
            p[i] = p[p[i]]
            i = p[i]
        return i

    def _node(self, tag: str, payload, children: tuple) -> int:
        key = (tag, payload, children)
        nid = self.node_ids.get(key)
        if nid is None:
            nid = len(self.nodes)
            self.nodes.append(key)
            self.node_ids[key] = nid
            self.parent.append(nid)
            self.rank.append(0)
            self.use.append([])
            self.members.append([nid])
            self.best.append(nid)
            self.mention.append(_UNMENTIONED)
            for c in set(children):
                self.use[self.find(c)].append(nid)
            sig = (tag, payload, tuple(self.find(c) for c in children))
            other = self.sigtab.get(sig)
            if other is None:
                self.sigtab[sig] = nid
            else:
                self._merge(nid, other)
        if self.mentioning and self.mention[nid] == _UNMENTIONED:
            self.mention[nid] = self.mentions
            self.mentions += 1
            root = self.find(nid)
            best = self.best[root]
            if best != nid and self._key(nid) < self._key(best):
                self.best[root] = nid
        return nid

    def _merge(self, a: int, b: int) -> None:
        queue = [(a, b)]
        while queue:
            x, y = queue.pop()
            rx, ry = self.find(x), self.find(y)
            if rx == ry:
                continue
            if self.rank[rx] < self.rank[ry]:
                rx, ry = ry, rx
            if self.rank[rx] == self.rank[ry]:
                self.rank[rx] += 1
            # absorb ry into rx
            self.parent[ry] = rx
            self.members[rx].extend(self.members[ry])
            self.members[ry] = []
            if self._key(self.best[ry]) < self._key(self.best[rx]):
                self.best[rx] = self.best[ry]
            pending = self.use[ry]
            self.use[ry] = []
            for pnode in pending:
                tag, payload, children = self.nodes[pnode]
                sig = (tag, payload, tuple(self.find(c) for c in children))
                other = self.sigtab.get(sig)
                if other is None:
                    self.sigtab[sig] = pnode
                elif self.find(other) != self.find(pnode):
                    queue.append((other, pnode))
            self.use[rx].extend(pending)

    # -- interning

    def intern(self, t, bound: tuple = ()) -> int:
        """The node of a type or constraint, whose tag comes from its class
        and whose children are those `type_children` lists.  A variable
        that `bound` binds becomes a binder index, innermost 0; a path's
        tail, an associated-type name (a leaf) or a path, is interned
        before its type arguments and listed after them."""
        cls = t.__class__
        if cls is TVar:
            if t.name in bound:
                k = len(bound) - 1 - max(
                    i for i, b in enumerate(bound) if b == t.name)
                return self._node("bvar", k, ())
            return self._node("var", t.name, ())
        children = type_children(t)
        tag, payload, tail = _TAGS[cls], None, ()
        if cls is Forall:
            bound += (t.binder,)
        elif cls is AssocPath or cls is ConceptC:
            payload = t.model.concept, t.model.decl
            if cls is AssocPath:
                if isinstance(t.rest, str):
                    tail = (self._node("leaf", t.rest, ()),)
                else:
                    tail = (self.intern(children[-1], bound),)
                    children = children[:-1]
        return self._node(tag, payload, tuple(
            [self.intern(c, bound) for c in children]) + tail)

    # -- queries

    def types_equal(self, a: Type, b: Type) -> bool:
        ia, ib = self.intern(a), self.intern(b)
        return self.find(ia) == self.find(ib)

    def constraints_equal(self, a: Constraint, b: Constraint) -> bool:
        ia, ib = self.intern(a), self.intern(b)
        return self.find(ia) == self.find(ib)

    # -- canonical representatives

    def canonical(self, t: Type, depth: int = 0) -> Type:
        """A deterministic representative of t's class, preferring terms
        without associated-type paths and without alias variables; t
        itself when no member of the class can be rebuilt.  Its binders
        are named `$depth`, `$depth+1`, ... inwards, so a caller whose
        free variables include `$k` for k < depth keeps them free."""
        root = self.find(self.intern(t))
        try:
            return self._rebuild(root, frozenset(), depth)
        except NoRepresentativeError:
            return t

    def _key(self, nid: int) -> tuple:
        """A node's rank as its class's representative, lower first: its
        priority, then its first mention by an equation, then its id."""
        tag, payload, _ = self.nodes[nid]
        if tag == "var" and payload in self.alias_names:
            return _ALIAS_PRIO, self.mention[nid], nid
        return _PRIO[tag], self.mention[nid], nid

    def _candidates(self, root: int):
        """The members of a class in `_key` order, sorted only when the
        best one, which the class keeps, is not taken."""
        best = self.best[root]
        yield best
        yield from (n for n in sorted(self.members[root], key=self._key)
                    if n != best)

    def _rebuild(self, root: int, busy: frozenset, depth: int) -> Type:
        if root in busy:
            raise NoRepresentativeError("cyclic type equation class")
        busy = busy | {root}
        last_err = None
        for nid in self._candidates(self.find(root)):
            try:
                return self._rebuild_node(nid, busy, depth)
            except NoRepresentativeError as exc:
                last_err = exc
        raise last_err or NoRepresentativeError("empty class")

    def _rebuild_node(self, nid: int, busy: frozenset, depth: int) -> Type:
        tag, payload, children = self.nodes[nid]
        sub = lambda c, d=depth: self._rebuild(self.find(c), busy, d)
        if tag == "int":
            return INT
        if tag == "bool":
            return BOOL
        if tag == "var":
            return TVar(payload)
        if tag == "bvar":
            return TVar(f"${depth - 1 - payload}")
        if tag == "list":
            return ListT(sub(children[0]))
        if tag == "arrow":
            return Arrow(sub(children[0]), sub(children[1]))
        if tag == "forall":
            return Forall(f"${depth}", sub(children[0], depth + 1))
        if tag == "cimp":
            return Constrained(sub(children[0]), sub(children[1]))
        if tag == "cc":
            return ConceptC(ModelId(payload[0], tuple(map(sub, children)),
                                    payload[1]))
        if tag == "st":
            return SameType(sub(children[0]), sub(children[1]))
        if tag == "assoc":
            args = tuple(sub(c) for c in children[:-1])
            rtag, rpayload, _ = self.nodes[self.find(children[-1])]
            if rtag == "leaf":
                rest = rpayload
            else:
                rest = sub(children[-1])
                if not isinstance(rest, AssocPath):
                    raise NoRepresentativeError(
                        "path tail rebuilt to a non-path")
            return AssocPath(ModelId(payload[0], args, payload[1]), rest)
        if tag == "leaf":
            raise NoRepresentativeError("bare associated-type name")
        raise NoRepresentativeError(f"cannot rebuild node kind {tag!r}")
