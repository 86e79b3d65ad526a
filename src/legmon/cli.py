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
they run: a report flag left out is not passed.  A call to a known
subcommand builds that command's parser alone; help, no or an unknown
command, and unrecognised arguments build the full parser, which
reports them.  Only the reports `relations`, `faithful` and
`xi-report` import `explorer`.  Every JSON text printed or written,
points, `flags` and reports, comes from `moduli.json_dumps`.
"""

from __future__ import annotations

import argparse
import sys

from .braids import (
    BUILTIN_NAMES,
    BraidWord,
    IllegalMove,
    ScriptSyntaxError,
    base_word,
    builtin_script,
    parse_script,
    verify_loop,
)
from .fields import Field, PrimeField, QQ, ascii_int, default_prime, format_scalar
from .moduli import (
    FAMILIES,
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
from .monodromy import DegeneracyError, act_word

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
    return PrimeField(prime if prime is not None else default_prime())


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


def _int(text: str) -> int:
    """`ascii_int`, refusing in argparse's `type=int` wording."""
    try:
        return ascii_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _parse_base(text: str, strands: int) -> BraidWord:
    try:
        if not text.isascii():
            raise ValueError(f"not ASCII: {text!r}")
        letters = tuple(map(ascii_int, text.replace(",", " ").split()))
        return BraidWord(strands, letters)
    except ValueError as exc:
        raise ValueError(f"bad base word: {exc}") from exc


def _cmd_verify_loop(args) -> int:
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
        moves = parse_script(_read_text(args.script))
    else:
        if args.base is not None or args.strands is not None:
            raise ValueError("--base and --strands apply only to --script")
        try:
            base, moves = builtin_script(args.builtin, s=1 if args.s is None else args.s,
                                        k_for_delta=args.k)
        except (MemoryError, OverflowError):
            raise ValueError("--s or --k too large to build the loop") from None
    try:
        texts, is_loop = verify_loop(base, moves)
    except IllegalMove as exc:
        print(*exc.trace, sep="\n")
        print(f"illegal move: {exc}")
        return EXIT_VERIFICATION
    steps = (f"{move!s:10s} -> {text}" for move, text in zip(moves, texts[1:]))
    print(f"base: {texts[0]}", *steps, f"loop: {'true' if is_loop else 'false'}", sep="\n")
    return EXIT_OK if is_loop else EXIT_VERIFICATION


def _cmd_act(args) -> int:
    point = _read_point(args.point)
    require_valid(point)
    _write_text(args.out, point_dumps(act_word(point, args.word)))
    return EXIT_OK


def _cmd_pluecker(args) -> int:
    point = _read_point(args.point)
    try:
        idx = tuple(map(_int, args.idx.split(",")))
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"bad index list {args.idx!r}") from exc
    print(format_scalar(pluecker(point, idx)))
    return EXIT_OK


def _cmd_random_point(args) -> int:
    family = FAMILIES[args.family]
    field = _resolve_field(args)
    point = random_point(family, field, args.seed)
    _write_text(args.out, point_dumps(point))
    return EXIT_OK


def _cmd_flags(args) -> int:
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


def _add_field_flags(sub, include_q: bool = True):
    if include_q:
        sub.add_argument("--field", choices=("fp", "q"), default="fp",
                         help="scalar field (default: fp)")
    sub.add_argument("--prime", type=_int, default=None,
                     help="prime modulus (default: LEGMON_PRIME or 2147483647)")


def _verify_loop_args(sub):
    sub.add_argument("--script", help="move-script file (DSL)")
    sub.add_argument("--base", help="base word letters for --script, e.g. '1,2,1,2'")
    sub.add_argument("--strands", type=_int, help="strand count for --script")
    sub.add_argument("--builtin", choices=BUILTIN_NAMES)
    sub.add_argument("--s", type=_int, default=None, help="window parameter (default 1)")
    sub.add_argument("--k", type=_int, default=None, help="k for delta_power")
    sub.set_defaults(func=_cmd_verify_loop)


def _act_args(sub):
    sub.add_argument("--point", default=None, help="point JSON file ('-' or omit for stdin)")
    sub.add_argument("--word", required=True,
                     help="tokens A, A2, B, S1, SH(j), X1, X2, X3")
    sub.add_argument("--out", default=None, help="output file (default stdout)")
    sub.set_defaults(func=_cmd_act)


def _pluecker_args(sub):
    sub.add_argument("--point", default=None, help="point JSON file ('-' or omit for stdin)")
    sub.add_argument("--idx", required=True, help="comma-separated indices, e.g. 1,4,7")
    sub.set_defaults(func=_cmd_pluecker)


def _random_point_args(sub):
    sub.add_argument("--family", required=True, choices=FAMILIES)
    sub.add_argument("--seed", type=_int, required=True)
    _add_field_flags(sub)
    sub.add_argument("--out", default=None)
    sub.set_defaults(func=_cmd_random_point)


def _flags_args(sub):
    sub.add_argument("--point", default=None, help="point JSON file ('-' or omit for stdin)")
    sub.set_defaults(func=_cmd_flags)


# Report flag -> the keyword of the `explorer` report function it sets.
_REPORT_FLAGS = {"--max-syllables": "max_syllables", "--probe-budget": "probe_budget",
                 "--points": "n_points", "--seed": "seed"}


def _report_args(function: str, flags: tuple[str, ...], include_q: bool = False):
    """The adder of a report run by `explorer.<function>`.  A flag left out
    is not passed, so the function's signature holds every default."""
    def add(sub):
        for flag in flags:
            sub.add_argument(flag, type=_int, dest=_REPORT_FLAGS[flag],
                             metavar=flag[2:].upper().replace("-", "_"),
                             default=argparse.SUPPRESS)
        _add_field_flags(sub, include_q)
        sub.add_argument("--out", default=None)
        sub.set_defaults(func=_cmd_report, report=function)
    return add


# Subcommand name -> (help line, adder of its arguments and handler).
_COMMANDS = {
    "verify-loop": ("replay a move script and check closure", _verify_loop_args),
    "act": ("apply a generator word to a point", _act_args),
    "pluecker": ("evaluate one Plücker coordinate", _pluecker_args),
    "random-point": ("sample a valid point", _random_point_args),
    "flags": ("rebuild and validate the flag chain", _flags_args),
    "relations": ("report the a^3 and b^2 relation checks",
                  _report_args("verify_relations", ("--points", "--seed", "--probe-budget"),
                               include_q=True)),
    "faithful": ("separation sweep over reduced words",
                 _report_args("faithfulness_sweep", ("--max-syllables", "--probe-budget",
                                                     "--points", "--seed"))),
    "xi-report": ("Plücker tables for the xi words",
                  _report_args("xi_pluecker_report", ("--points", "--seed"))),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """A known `command`'s own parser alone, else the full `legmon` parser."""
    if command in _COMMANDS:
        parser = argparse.ArgumentParser(prog=f"legmon {command}")
        _COMMANDS[command][1](parser)
        return parser
    parser = argparse.ArgumentParser(
        prog="legmon",
        description="Braid-move loop certification and Legendrian-loop "
        "monodromy over exact fields",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (summary, add_args) in _COMMANDS.items():
        add_args(subs.add_parser(name, help=summary))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    extras = True
    if argv and argv[0] in _COMMANDS:
        args, extras = build_parser(argv[0]).parse_known_args(argv[1:])
    if extras:  # no known command, or arguments the command does not take
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ScriptSyntaxError as exc:
        print(f"script syntax error: {exc}", file=sys.stderr)
        return EXIT_USAGE
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
