"""Command-line interface.

Subcommands cover the full workflow: verify a move script or built-in
loop, act on a point file by a generator word, evaluate Plücker minors,
sample valid points, rebuild and validate flag chains, and run the
relation/faithfulness/xi reports as JSON.

Exit codes: 0 when every performed check passes, 1 for a verification
failure, 2 for a usage error, raised as a plain `ValueError` (including
a file that cannot be read or written), 3 for a degeneracy (including
exhausted sampling, a point given to `act` that fails validity, and a
degeneracy inside a report).
All output is deterministic given the flags; reports carry no
timestamps.  The environment variable LEGMON_PRIME overrides the
CLI's default prime modulus.  Integer flags, `--base` letters, `--idx`
indices and LEGMON_PRIME are read by `fields.ascii_int`: ASCII digits
after an optional minus, with no underscores or surrounding whitespace.
The reports' other defaults are the defaults of the `explorer` functions
they run: a report flag left out is not passed.

Imports: `import legmon.cli` loads `fields` and `moduli`; a command
imports the rest of what it runs as it runs: `verify-loop` and `flags`
import `braids` (as does a parser reading the `--builtin` choices,
`braids.BUILTIN_NAMES`), `act` imports `monodromy`, and the reports
import `explorer`, which imports `monodromy`.  No command loads
`dataclasses`; `fractions` loads only where a rational scalar is built
or tested for.  The three failures that exit 3 come from `moduli`;
`verify-loop` reports a `braids.ScriptSyntaxError` itself.

Every JSON text printed or written, points, `flags` and reports, comes
from `moduli.json_dumps`; point files are written from and read into the
int form, so `random-point`, `flags` and `act` build no scalar on the way.
The prime field of `--prime`, LEGMON_PRIME and point files is
`fields.prime_field`, one object per modulus.  `verify-loop` writes the
transcript `braids.verify_loop` renders in one write.

Parsing: one table, `_COMMANDS`, lists each command's handler and flags
(dest, int or text, choices, required, default, help and metavar).  A
command line that is a known command followed by `--flag value` pairs,
each flag spelled in full and given once and no value starting with
`-`, is read straight from the table by `_parse_spelled_out`, which
checks ints, choices and required flags and returns the namespace the
full parser would.  Every other command line (help, abbreviations,
`--flag=value`, repeated flags, negative numbers, `--`, bad ints or
choices, no or an unknown command) goes to `build_parser()`, the full
`legmon` argparse parser built from the same table, which parses or
reports it.  `argparse` is imported only there.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

from .fields import Field, QQ, ascii_int, default_prime, format_scalar, prime_field
from .moduli import (
    FAMILIES,
    DegeneracyError,
    InvalidPoint,
    SamplingExhausted,
    flags_from_point,
    json_dumps,
    pluecker,
    point_dumps,
    point_loads,
    random_point,
    require_valid,
    validate_bott_samelson,
)

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_DEGENERACY = 3


def _resolve_field(args) -> Field:
    prime = getattr(args, "prime", None)
    if getattr(args, "field", "fp") == "q":
        if prime is not None:
            raise ValueError("--prime applies only to --field fp")
        return QQ
    return prime_field(prime if prime is not None else default_prime())


def _read_text(path: str | None) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ValueError(str(exc)) from exc


def _write_text(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(str(exc)) from exc


def _read_point(path: str | None):
    try:
        return point_loads(_read_text(path))
    except (RecursionError, ValueError) as exc:
        raise ValueError(f"cannot read point file: {exc}") from exc


def _parse_base(text: str, strands: int):
    from .braids import BraidWord
    try:
        if not text.isascii():
            raise ValueError(f"not ASCII: {text!r}")
        letters = tuple(map(ascii_int, text.replace(",", " ").split()))
        return BraidWord(strands, letters)
    except ValueError as exc:
        raise ValueError(f"bad base word: {exc}") from exc


def _cmd_verify_loop(args) -> int:
    from .braids import IllegalMove, ScriptSyntaxError, builtin_script, parse_script, verify_loop
    if (args.script is None) == (args.builtin is None):
        raise ValueError("choose exactly one of --script or --builtin")
    if args.k is not None and args.builtin != "delta_power":
        raise ValueError("--k applies only to --builtin delta_power")
    if args.script is not None:
        if args.base is None or args.strands is None:
            raise ValueError("--script needs --base and --strands")
        if args.s is not None:
            raise ValueError("--s applies only to --builtin")
        base = _parse_base(args.base, args.strands)
        try:
            moves = parse_script(_read_text(args.script))
        except ScriptSyntaxError as exc:
            print(f"script syntax error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        if args.base is not None or args.strands is not None:
            raise ValueError("--base and --strands apply only to --script")
        try:
            base, moves = builtin_script(args.builtin, s=1 if args.s is None else args.s,
                                        k_for_delta=args.k)
        except (MemoryError, OverflowError):
            raise ValueError("--s or --k too large to build the loop") from None
    try:
        text, is_loop = verify_loop(base, moves)
    except IllegalMove as exc:
        print(*exc.trace, sep="\n")
        print(f"illegal move: {exc}")
        return EXIT_VERIFICATION
    sys.stdout.write(text)
    return EXIT_OK if is_loop else EXIT_VERIFICATION


def _cmd_act(args) -> int:
    from .monodromy import act_word
    point = _read_point(args.point)
    require_valid(point)
    _write_text(args.out, point_dumps(act_word(point, args.word)))
    return EXIT_OK


def _cmd_pluecker(args) -> int:
    point = _read_point(args.point)
    try:
        idx = tuple(map(ascii_int, args.idx.split(",")))
    except ValueError:
        raise ValueError(f"bad index list {args.idx!r}") from None
    print(format_scalar(pluecker(point, idx)))
    return EXIT_OK


def _cmd_random_point(args) -> int:
    family = FAMILIES[args.family]
    field = _resolve_field(args)
    point = random_point(family, field, args.seed)
    _write_text(args.out, point_dumps(point))
    return EXIT_OK


def _cmd_flags(args) -> int:
    from .braids import base_word
    point = _read_point(args.point)
    try:
        flags = flags_from_point(point)
    except InvalidPoint:
        print(json_dumps({"valid_point": False, "bott_samelson": False}))
        return EXIT_VERIFICATION
    ok = validate_bott_samelson(flags, base_word(point.family.k, point.family.s))
    report = {"valid_point": True, "family": point.family.name,
              "flags": len(flags), "bott_samelson": ok}
    print(json_dumps(report))
    return EXIT_OK if ok else EXIT_VERIFICATION


def _cmd_report(args) -> int:
    from . import explorer
    kwargs = {k: v for k, v in vars(args).items() if k in _REPORT_FLAGS.values()}
    report = getattr(explorer, args.report)(field=_resolve_field(args), **kwargs)
    _write_text(args.out, explorer.report_dumps(report))
    return EXIT_OK if report.ok else EXIT_VERIFICATION


# The default of a report flag: a report flag left out is left out of the
# namespace, so the `explorer` function's signature holds every default.
_ABSENT = object()


def _flag(option: str, kind=str, *, choices=None, required=False, default=None,
          help=None, dest=None, metavar=None):
    """One row of a command's flag table: (option, dest, kind, choices,
    required, default, help, metavar).  `kind` is `int` (read by
    `ascii_int`) or `str`; `dest` defaults to the option's name.
    `choices` is None, a container, or a function that returns one, which
    the parsers call only when they need the choices."""
    return (option, dest or option[2:].replace("-", "_"), kind, choices, required, default,
            help, metavar)


def _builtin_names() -> tuple[str, ...]:
    """The choices of `--builtin`: `braids.BUILTIN_NAMES`, the module
    imported only when a parser reads them."""
    from .braids import BUILTIN_NAMES
    return BUILTIN_NAMES


_POINT = _flag("--point", help="point JSON file ('-' or omit for stdin)")
_OUT = _flag("--out")
_FIELD = _flag("--field", choices=("fp", "q"), default="fp", help="scalar field (default: fp)")
_PRIME = _flag("--prime", int, help="prime modulus (default: LEGMON_PRIME or 2147483647)")

# Report flag -> the keyword of the `explorer` report function it sets.
_REPORT_FLAGS = {"--max-syllables": "max_syllables", "--probe-budget": "probe_budget",
                 "--points": "n_points", "--seed": "seed"}


def _report(summary: str, function: str, options: tuple[str, ...], include_q: bool = False):
    """The row of a report run by `explorer.<function>`."""
    flags = tuple(_flag(option, int, dest=_REPORT_FLAGS[option], default=_ABSENT,
                        metavar=option[2:].upper().replace("-", "_"))
                  for option in options)
    return (summary, _cmd_report, (*flags, *((_FIELD,) if include_q else ()), _PRIME, _OUT),
            {"report": function})


# Subcommand -> (help line, handler, flag rows in help order, further
# defaults).  The direct parser and the full parser both read this table.
_COMMANDS = {
    "verify-loop": ("replay a move script and check closure", _cmd_verify_loop, (
        _flag("--script", help="move-script file (DSL)"),
        _flag("--base", help="base word letters for --script, e.g. '1,2,1,2'"),
        _flag("--strands", int, help="strand count for --script"),
        _flag("--builtin", choices=_builtin_names),
        _flag("--s", int, help="window parameter (default 1)"),
        _flag("--k", int, help="k for delta_power")), {}),
    "act": ("apply a generator word to a point", _cmd_act, (
        _POINT,
        _flag("--word", required=True, help="tokens A, A2, B, S1, SH(j), X1, X2, X3"),
        _flag("--out", help="output file (default stdout)")), {}),
    "pluecker": ("evaluate one Plücker coordinate", _cmd_pluecker, (
        _POINT, _flag("--idx", required=True, help="comma-separated indices, e.g. 1,4,7")), {}),
    "random-point": ("sample a valid point", _cmd_random_point, (
        _flag("--family", required=True, choices=FAMILIES),
        _flag("--seed", int, required=True), _FIELD, _PRIME, _OUT), {}),
    "flags": ("rebuild and validate the flag chain", _cmd_flags, (_POINT,), {}),
    "relations": _report("report the a^3 and b^2 relation checks", "verify_relations",
                         ("--points", "--seed", "--probe-budget"), include_q=True),
    "faithful": _report("separation sweep over reduced words", "faithfulness_sweep",
                        ("--max-syllables", "--probe-budget", "--points", "--seed")),
    "xi-report": _report("Plücker tables for the xi words", "xi_pluecker_report",
                         ("--points", "--seed")),
}


def _handler(row):
    """The handler of a table row, read from the module at parse time, so
    that a handler replaced on the module is the one a call runs."""
    return globals()[row[1].__name__]


def _parse_spelled_out(argv: list[str]):
    """The namespace the full parser returns for `argv`, when `argv` is a
    known command and `--flag value` pairs: each flag spelled in full and
    given once, no value starting with `-`, every int read by `ascii_int`,
    every choice and required flag met.  None for any other command line."""
    row = _COMMANDS.get(argv[0]) if argv else None
    if row is None or len(argv) % 2 == 0:
        return None
    given = dict(zip(argv[1::2], argv[2::2]))
    if 2 * len(given) != len(argv) - 1:  # a flag given twice
        return None
    values = {"command": argv[0], "func": _handler(row), **row[3]}
    for option, dest, kind, choices, required, default, _, _ in row[2]:
        text = given.pop(option, None)
        if text is None:
            if required:
                return None
            if default is not _ABSENT:
                values[dest] = default
            continue
        if text.startswith("-"):
            return None
        if kind is int:
            try:
                text = ascii_int(text)
            except ValueError:
                return None
        if callable(choices):
            choices = choices()
        if choices is not None and text not in choices:
            return None
        values[dest] = text
    return None if given else SimpleNamespace(**values)


def build_parser():
    """The full `legmon` parser, built from the flag table.  It parses or
    reports every command line the direct parser leaves: help, errors,
    abbreviations and other spellings."""
    import argparse

    def to_int(text: str) -> int:
        """`ascii_int`, refusing in argparse's `type=int` wording."""
        try:
            return ascii_int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None

    parser = argparse.ArgumentParser(
        prog="legmon",
        description="Braid-move loop certification and Legendrian-loop "
        "monodromy over exact fields",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, row in _COMMANDS.items():
        sub = subs.add_parser(name, help=row[0])
        for option, dest, kind, choices, required, default, help, metavar in row[2]:
            if callable(choices):
                choices = choices()
            sub.add_argument(option, dest=dest, type=to_int if kind is int else None,
                             choices=choices, required=required, help=help, metavar=metavar,
                             default=argparse.SUPPRESS if default is _ABSENT else default)
        sub.set_defaults(func=_handler(row), **row[3])
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_spelled_out(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SamplingExhausted as exc:
        print(f"sampling exhausted: {exc}", file=sys.stderr)
        return EXIT_DEGENERACY
    except DegeneracyError as exc:
        print(f"degeneracy: {exc}", file=sys.stderr)
        return EXIT_DEGENERACY
    except InvalidPoint as exc:
        print(f"invalid point: {exc}", file=sys.stderr)
        return EXIT_DEGENERACY
    except ValueError as exc:  # usage errors and refused input
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
