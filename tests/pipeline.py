"""Check-then-lower, as the CLI does it: each core term in the tests is
lowered from the one checker derivation of its program."""

from fgc.elaborate import translate_program
from fgc.typecheck import Checker, check_program


def derive(e):
    """(surface type, core term, checker) of a well-typed program."""
    checker = Checker()
    surface = check_program(e, checker)
    assert not isinstance(surface, list), [str(d) for d in surface]
    return surface, translate_program(e, checker), checker


def lower(e):
    """Core term of a well-typed program."""
    return derive(e)[1]
