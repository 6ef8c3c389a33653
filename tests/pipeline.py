"""Check-and-lower, as the CLI does it: each core term in the tests is
built in the one checker walk that derives its program's type; and the
core image of a surface type, to compare a core term's type with."""

from fgc.elaborate import Elaborator, translate_program
from fgc.typecheck import Checker, check_program


def derive(e):
    """(surface type, core term, checker) of a well-typed program."""
    checker = Checker(Elaborator)
    surface = check_program(e, checker)
    assert not isinstance(surface, list), [str(d) for d in surface]
    return surface, translate_program(e, checker), checker


def lower(e):
    """Core term of a well-typed program."""
    return derive(e)[1]


def translate_type(env, t, checker):
    """Core image of a surface type under the given environment, in an
    empty scope."""
    return Elaborator(checker).conv(env, t)
