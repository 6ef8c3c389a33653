"""The surface expression printer and a standalone type parser, which
only tests use: `pretty` prints a syntax tree as source text that
`parse_program` reads back to the same tree (the round-trip tests), and
`parse_type` reads a type on its own.  No command prints a surface
expression (`fgc ast` prints `repr`), so neither is part of `src/fgc/`;
the type printers stay there, because diagnostics use them."""

from fgc import parser
from fgc.ast import (
    App,
    BoolLit,
    ConceptDecl,
    ConceptInfo,
    ConstrainedE,
    Expr,
    Fix,
    If,
    IntLit,
    Lam,
    Let,
    ListLit,
    ModelDecl,
    ModelInfo,
    PathE,
    Prim,
    TyApp,
    TyLam,
    Type,
    TypeAlias,
)
from fgc.parser import (
    _BINOPS,
    ParseError,
    Source,
    _Parser,
    _PError,
    _paren,
    pretty_constraint,
    pretty_model,
    pretty_type,
)


def parse_type(src: str, filename: str = "<type>") -> Type:
    """Parse a standalone type, whose free names stay as written.  It lexes
    through `fgc.parser.tokenize`, as `parse_program` does, so a wrapper
    installed there sees both."""
    p = _Parser(parser.tokenize(src, filename), Source(filename, src))
    try:
        t = p.type_()
        if p.toks[p.pos]:
            p.fail("expected end of input")
    except _PError as exc:
        raise ParseError([exc.diag]) from None
    return t


# expr precedence: 0 top, 1 cmp, 2 add, 3 mul (1 + _BINOPS), 4 app, 5 atom


def pretty(e: Expr, prec: int = 0) -> str:
    match e:
        case IntLit(value):
            # the syntax has no negative literal
            return f"(0 - {-value})" if value < 0 else str(value)
        case BoolLit(value):
            return "true" if value else "false"
        case PathE(prefix, name):
            return "".join(f"{pretty_model(m)}." for m in prefix) + name
        case Lam(param, ann, body):
            annot = f": {pretty_type(ann, 0)}" if ann is not None else ""
            return _paren(f"lam {param}{annot}. {pretty(body, 0)}", 0 < prec)
        case TyLam(binder, body):
            return _paren(f"Lam {binder}. {pretty(body, 0)}", 0 < prec)
        case App(fn, arg):
            arg_s = pretty(arg, 5)
            if isinstance(arg, ListLit) and arg.elems:
                arg_s = f"({arg_s})"  # avoid confusion with type application
            return _paren(f"{pretty(fn, 4)} {arg_s}", 4 < prec)
        case TyApp(subject, arg):
            return _paren(f"{pretty(subject, 4)}[{pretty_type(arg, 0)}]",
                          4 < prec)
        case ConstrainedE(constraint, body):
            return _paren(f"{pretty_constraint(constraint)} => "
                          f"{pretty(body, 0)}", 0 < prec)
        case ConceptDecl(info, rest):
            return _paren(f"{pretty_concept(info)} in {pretty(rest, 0)}",
                          0 < prec)
        case ModelDecl(info, rest):
            return _paren(f"{pretty_model_decl(info)} in {pretty(rest, 0)}",
                          0 < prec)
        case TypeAlias(name, rhs, rest):
            return _paren(f"type {name} = {pretty_type(rhs, 0)} in "
                          f"{pretty(rest, 0)}", 0 < prec)
        case Let(name, bound, rest):
            return _paren(f"let {name} = {pretty(bound, 0)} in "
                          f"{pretty(rest, 0)}", 0 < prec)
        case Fix(body):
            return _paren(f"fix {pretty(body, 0)}", 0 < prec)
        case If(cond, thn, els):
            return _paren(f"if {pretty(cond, 0)} then {pretty(thn, 0)} "
                          f"else {pretty(els, 0)}", 0 < prec)
        case ListLit(elems, elem_type):
            if not elems:
                return f"nil[{pretty_type(elem_type, 0)}]"
            return "[" + ", ".join(pretty(x, 0) for x in elems) + "]"
        case Prim(op, args):
            if op in _BINOPS:
                p = _BINOPS[op] + 1
                return _paren(f"{pretty(args[0], p)} {op} "
                              f"{pretty(args[1], p + 1)}", p < prec)
            s = op + "".join(f" {pretty(a, 5)}" for a in args)
            return _paren(s, 4 < prec)
    raise TypeError(f"unexpected expression node: {e!r}")


def pretty_concept(info: ConceptInfo) -> str:
    assocs = ", ".join(info.assoc_types)
    nested = ", ".join(pretty_constraint(c) for c in info.nested)
    members = ", ".join(f"{n} : {pretty_type(t, 0)}" for n, t in info.members)
    return (f"concept {info.name}<{', '.join(info.type_params)}> "
            f"{{ {assocs} ; {nested} ; {members} }}")


def pretty_model_decl(info: ModelInfo) -> str:
    args = ", ".join(pretty_type(a, 0) for a in info.type_args)
    assocs = ", ".join(f"{n} = {pretty_type(t, 0)}" for n, t in info.assoc_binds)
    members = ", ".join(f"{n} = {pretty(x, 0)}" for n, x in info.member_binds)
    return f"model {info.concept}<{args}> {{ {assocs} ; {members} }}"
