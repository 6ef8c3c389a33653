"""Batch command-line front end.

    fgc check     <file.fg>   type-check and print the program's type
    fgc run       <file.fg>   evaluate and print the result
    fgc emit-core <file.fg>   print the elaborated core term
    fgc ast       <file.fg>   print the parsed syntax tree

Exit codes: 0 success, 1 type errors, 2 parse errors, 3 I/O errors,
4 fuel exhausted, 5 internal error (any exception of the compiler itself,
such as elaboration, the core re-check or the machine failing on a checked
program; code I001 under `--format json`).
Set FGC_COLOR=0|1 to force color off or on.

`main` reads a well-formed command line itself, from the `_COMMANDS` table;
argparse is imported and its parser built only to print help or a usage
error, or to read any line the table's reader leaves to it.  Nothing `main`
makes for a command is left for the cycle collector, so what it built is
freed as soon as it returns; it may be called any number of times in one
process.  A command imports only the modules it runs: `check` and `ast`
load neither lowering (`elaborate`) nor the core (`sysf`), and `json` is
imported only to write `--format json`.
"""

from __future__ import annotations

import os
import sys
import types

from .parser import Diagnostic, ParseError, parse_program, pretty_type
from .typecheck import Checker, check_program

EXIT_OK = 0
EXIT_TYPE_ERROR = 1
EXIT_PARSE_ERROR = 2
EXIT_IO_ERROR = 3
EXIT_DIVERGED = 4
EXIT_INTERNAL_ERROR = 5


def _use_color() -> bool:
    setting = os.environ.get("FGC_COLOR")
    if setting == "1":
        return True
    if setting == "0":
        return False
    return sys.stderr.isatty()


def _json(value, indent: str = "") -> str:
    """`json.dumps(value, indent=2)` of dicts, lists and scalars.  Only
    scalars and empty containers go to `json.dumps`: with an indent it
    runs the standard library's pure-Python encoder, whose closures are
    left to the cycle collector."""
    import json
    if not value or not isinstance(value, (dict, list)):
        return json.dumps(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items = [f"{inner}{json.dumps(k)}: {_json(v, inner)}"
                 for k, v in value.items()]
        brackets = "{}"
    else:
        items = [inner + _json(v, inner) for v in value]
        brackets = "[]"
    return (brackets[0] + "\n" + ",\n".join(items) + "\n" + indent
            + brackets[1])


def _print_diagnostics(diags, fmt: str) -> None:
    if fmt == "json":
        payload = {
            "schema": 1,
            "diagnostics": [
                {
                    "code": d.code,
                    "message": d.message,
                    "file": d.span.file if d.span else None,
                    "span": {
                        "start_line": d.span.start_line,
                        "start_col": d.span.start_col,
                        "end_line": d.span.end_line,
                        "end_col": d.span.end_col,
                    } if d.span else None,
                    "notes": [
                        {"span": str(ns) if ns else None, "text": nt}
                        for ns, nt in d.notes
                    ],
                }
                for d in diags
            ],
        }
        print(_json(payload), file=sys.stderr)
        return
    color = _use_color()
    for d in diags:
        text = str(d)
        if color:
            text = text.replace("error[", "\x1b[31merror\x1b[0m[", 1)
        print(text, file=sys.stderr)


def _internal_error(message: str, fmt: str) -> int:
    """Report a fault of the compiler rather than of the program."""
    if fmt == "json":
        _print_diagnostics([Diagnostic(None, "I001", message)], fmt)
    else:
        print(f"fgc: internal error: {message}", file=sys.stderr)
    return EXIT_INTERNAL_ERROR


def _parse(path: str, fmt: str):
    """Returns (exit_code, tree); the tree is None on failure."""
    try:
        with open(path, encoding="utf-8") as fh:
            src = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else \
            f"invalid UTF-8 at byte {exc.start}"
        print(f"fgc: cannot read {path}: {reason}", file=sys.stderr)
        return EXIT_IO_ERROR, None
    try:
        return EXIT_OK, parse_program(src, path)
    except ParseError as exc:
        _print_diagnostics(exc.diagnostics, fmt)
        return EXIT_PARSE_ERROR, None


def _parse_and_check(path: str, fmt: str):
    """Returns (exit_code, tree, type, checker), all but the code None on
    failure; the checker holds the derivation translate_program lowers."""
    code, tree = _parse(path, fmt)
    if tree is None:
        return code, None, None, None
    checker = Checker()
    result = check_program(tree, checker)
    if isinstance(result, list):
        _print_diagnostics(result, fmt)
        return EXIT_TYPE_ERROR, None, None, None
    return EXIT_OK, tree, result, checker


def cmd_check(args) -> int:
    code, _, ty, _ = _parse_and_check(args.file, args.format)
    if code == EXIT_OK:
        print(pretty_type(ty))
    return code


def cmd_run(args) -> int:
    from .elaborate import translate_program
    from .sysf import DEFAULT_FUEL, Diverged, Stuck, Value, pretty_core, \
        sf_eval
    code, tree, _, checker = _parse_and_check(args.file, args.format)
    if code != EXIT_OK:
        return code
    core = translate_program(tree, checker)
    outcome = sf_eval(core, args.fuel or DEFAULT_FUEL)  # None if not given
    match outcome:
        case Value(v):
            if isinstance(v, bool):
                print("true" if v else "false")
            elif isinstance(v, int):
                print(v)
            else:
                print(pretty_core(v))
            return EXIT_OK
        case Diverged(steps):
            print(f"fuel exhausted after {steps} steps", file=sys.stderr)
            return EXIT_DIVERGED
        case Stuck(reason):
            return _internal_error(f"evaluation stuck: {reason}",
                                   args.format)
    raise AssertionError(outcome)


def cmd_emit_core(args) -> int:
    from .elaborate import translate_program
    from .sysf import pretty_core, pretty_core_type, sf_typecheck
    code, tree, _, checker = _parse_and_check(args.file, args.format)
    if code != EXIT_OK:
        return code
    core = translate_program(tree, checker)
    core_type = sf_typecheck(core) if args.verify else None
    print(pretty_core(core))
    if args.verify:
        print(f"core: {pretty_core_type(core_type)}")
    return EXIT_OK


def cmd_ast(args) -> int:
    code, tree = _parse(args.file, args.format)
    if tree is not None:
        print(repr(tree))
    return code


def _positive(text: str) -> int:
    n = int(text)
    if n <= 0:
        import argparse
        raise argparse.ArgumentTypeError("fuel must be positive")
    return n


_FORMAT = ("--format", dict(choices=("human", "json"), default="human",
                            help="diagnostics format"))

# name: (help, handler, options beyond the file).  Every option is a
# `--name` whose attribute is `name`, and has a default or is a flag
_COMMANDS = {
    "check": ("type-check a program", cmd_check, (_FORMAT,)),
    "run": ("type-check and evaluate a program", cmd_run,
            (_FORMAT, ("--fuel", dict(type=_positive, default=None,
                                      help="evaluation step budget")))),
    "emit-core": ("print the elaborated core term", cmd_emit_core,
                  (_FORMAT, ("--verify", dict(action="store_true",
                                              help="re-check the core and "
                                                   "print its type")))),
    "ast": ("print the parsed syntax tree", cmd_ast, (_FORMAT,)),
}


def build_parser(command=None):
    """The `fgc` argument parser.  Given a command name, only that command's
    subparser is built: it parses that command's argument lists as the full
    parser does, and its usage line still names every command."""
    import argparse
    ap = argparse.ArgumentParser(prog="fgc",
                                 description=__doc__.splitlines()[0])
    # the full parser keeps argparse's own metavar, which its "required:
    # command" error names; a one-command parser cannot raise that error
    metavar = None if command is None else "{%s}" % ",".join(_COMMANDS)
    sub = ap.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (help_text, fn, options) in _COMMANDS.items():
        if command not in (None, name):
            continue
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="source file (.fg)")
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(fn=fn)
    return ap


def _read_argv(argv):
    """The namespace that `build_parser(argv[0]).parse_args(argv)` returns,
    for a line of a command name, one file and that command's options in
    any order, each written in full with its value as the next word.  None
    for any other line, which argparse is left to read or to refuse: help,
    an abbreviated or `--opt=value` option, `--`, any other word that
    starts with `-`, or a value that the option does not take."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, fn, options = _COMMANDS[argv[0]]
    spec = dict(options)
    values = {"command": argv[0], "fn": fn}
    for flag, kwargs in options:
        values[flag[2:]] = kwargs.get("default", False)
    files = []
    words = iter(argv[1:])
    for word in words:
        if not word.startswith("-"):
            files.append(word)
            continue
        kwargs = spec.get(word)
        if kwargs is None:
            return None
        if kwargs.get("action") == "store_true":
            values[word[2:]] = True
            continue
        value = next(words, None)
        if value is None or value.startswith("-"):
            return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        if "type" in kwargs:
            try:
                value = kwargs["type"](value)
            except Exception:  # argparse calls it again and reports it
                return None
        values[word[2:]] = value
    if len(files) != 1:
        return None
    values["file"] = files[0]
    return types.SimpleNamespace(**values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_argv(argv)
    if args is None:
        command = argv[0] if argv and argv[0] in _COMMANDS else None
        args = build_parser(command).parse_args(argv)
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # a program's integers have any length
    try:
        return args.fn(args)
    except Exception as exc:
        return _internal_error(f"{type(exc).__name__}: {exc}", args.format)
    finally:
        sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
