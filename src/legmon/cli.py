"""Command-line interface.

Subcommands cover the full workflow: verify a move script or built-in
loop, act on a point file by a generator word, evaluate Plücker minors,
sample valid points, rebuild and validate flag chains, and run the
relation/faithfulness/xi reports as JSON.

Exit codes: 0 when every performed check passes, 1 for a verification
failure, 2 for a usage error (including a file that cannot be read or
written), 3 for a degeneracy (including exhausted sampling, a point
given to `act` that fails validity, and a degeneracy inside a report).
All output is deterministic given the flags; reports carry no
timestamps.  The environment variable LEGMON_PRIME overrides the
default prime modulus.  Each call builds the parser of the invoked
subcommand only; help and errors without one build all of them.  Only
the reports `relations`, `faithful` and `xi-report` import `explorer`.
"""

from __future__ import annotations

import argparse
import json
import sys

from .braids import (
    BraidWord,
    IllegalMove,
    MoveScript,
    ScriptSyntaxError,
    builtin_script,
    parse_script,
    trace_texts,
    verify_loop,
)
from .fields import Field, PrimeField, QQ, default_prime, format_scalar
from .linalg import DegeneracyError
from .moduli import (
    InvalidPoint,
    SamplingExhausted,
    flags_from_point,
    get_family,
    pluecker,
    point_dumps,
    point_loads,
    random_point,
    require_valid,
    validate_bott_samelson,
)
from .monodromy import act_word, parse_group_word

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_DEGENERACY = 3


class UsageError(ValueError):
    pass


def _resolve_field(args) -> Field:
    prime = getattr(args, "prime", None)
    if getattr(args, "field", "fp") == "q":
        if prime is not None:
            raise UsageError("--prime applies only to --field fp")
        return QQ
    return PrimeField(prime if prime is not None else default_prime())


def _read_text(path: str | None) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(str(exc)) from exc


def _write_text(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(str(exc)) from exc


def _read_point(path: str | None):
    try:
        return point_loads(_read_text(path))
    except (RecursionError, ValueError) as exc:
        raise UsageError(f"cannot read point file: {exc}") from exc


def _parse_base(text: str, strands: int) -> BraidWord:
    try:
        letters = tuple(int(x) for x in text.replace(",", " ").split())
        return BraidWord(strands, letters)
    except ValueError as exc:
        raise UsageError(f"bad base word: {exc}") from exc


def _cmd_verify_loop(args) -> int:
    if (args.script is None) == (args.builtin is None):
        raise UsageError("choose exactly one of --script or --builtin")
    if args.script is not None:
        if args.base is None or args.strands is None:
            raise UsageError("--script needs --base and --strands")
        if args.k is not None:
            raise UsageError("--k applies only to --builtin delta_power")
        if args.s is not None:
            raise UsageError("--s applies only to --builtin")
        base = _parse_base(args.base, args.strands)
        script = parse_script(_read_text(args.script), base, name=args.script)
    else:
        if args.base is not None or args.strands is not None:
            raise UsageError("--base and --strands apply only to --script")
        script = builtin_script(args.builtin, s=1 if args.s is None else args.s,
                               k_for_delta=args.k)
    try:
        report = verify_loop(script)
    except IllegalMove as exc:
        print("\n".join(trace_texts(script.moves, exc.trace)))
        print(f"illegal move: {exc}")
        return EXIT_VERIFICATION
    print("\n".join(report.to_lines()))
    return EXIT_OK if report.is_loop else EXIT_VERIFICATION


def _cmd_act(args) -> int:
    point = _read_point(args.point)
    require_valid(point)
    try:
        image = act_word(point, parse_group_word(args.word))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    _write_text(args.out, point_dumps(image))
    return EXIT_OK


def _cmd_pluecker(args) -> int:
    point = _read_point(args.point)
    try:
        idx = tuple(int(x) for x in args.idx.split(","))
    except ValueError as exc:
        raise UsageError(f"bad index list {args.idx!r}") from exc
    try:
        value = pluecker(point, idx)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    print(format_scalar(value))
    return EXIT_OK


def _cmd_random_point(args) -> int:
    family = get_family(args.family)
    field = _resolve_field(args)
    point = random_point(family, field, args.seed)
    _write_text(args.out, point_dumps(point))
    return EXIT_OK


def _cmd_flags(args) -> int:
    point = _read_point(args.point)
    try:
        flags = flags_from_point(point)
    except InvalidPoint:
        print(json.dumps({"valid_point": False, "bott_samelson": False}, indent=2))
        return EXIT_VERIFICATION
    ok = validate_bott_samelson(flags, point.family.base_word())
    report = {"valid_point": True, "family": point.family.name,
              "flags": len(flags), "bott_samelson": ok}
    print(json.dumps(report, indent=2))
    return EXIT_OK if ok else EXIT_VERIFICATION


def _cmd_relations(args) -> int:
    from . import explorer
    report = explorer.verify_relations(
        n_points=args.points,
        seed=args.seed,
        field=_resolve_field(args),
        probe_budget=args.probe_budget,
    )
    _write_text(args.out, explorer.report_dumps(report))
    return EXIT_OK if report.all_pass else EXIT_VERIFICATION


def _cmd_faithful(args) -> int:
    from . import explorer
    report = explorer.faithfulness_sweep(
        max_syllables=args.max_syllables,
        probe_budget=args.probe_budget,
        n_points=args.points,
        seed=args.seed,
        field=_resolve_field(args),
    )
    _write_text(args.out, explorer.report_dumps(report))
    ok = report.all_separated and report.all_q_verified
    return EXIT_OK if ok else EXIT_VERIFICATION


def _cmd_xi_report(args) -> int:
    from . import explorer
    report = explorer.xi_pluecker_report(
        n_points=args.points, seed=args.seed, field=_resolve_field(args)
    )
    _write_text(args.out, explorer.report_dumps(report))
    return EXIT_OK if report.structural_all_ok else EXIT_VERIFICATION


def _add_field_flags(sub, include_q: bool = True):
    if include_q:
        sub.add_argument("--field", choices=("fp", "q"), default="fp",
                         help="scalar field (default: fp)")
    sub.add_argument("--prime", type=int, default=None,
                     help="prime modulus (default: LEGMON_PRIME or 2147483647)")


def _verify_loop_args(sub):
    sub.add_argument("--script", help="move-script file (DSL)")
    sub.add_argument("--base", help="base word letters for --script, e.g. '1,2,1,2'")
    sub.add_argument("--strands", type=int, help="strand count for --script")
    sub.add_argument("--builtin", choices=("sigma1", "xi1", "xi2", "xi3", "delta_power"))
    sub.add_argument("--s", type=int, default=None, help="window parameter (default 1)")
    sub.add_argument("--k", type=int, default=None, help="k for delta_power")
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
    sub.add_argument("--family", required=True, choices=("T36", "T44"))
    sub.add_argument("--seed", type=int, required=True)
    _add_field_flags(sub)
    sub.add_argument("--out", default=None)
    sub.set_defaults(func=_cmd_random_point)


def _flags_args(sub):
    sub.add_argument("--point", default=None, help="point JSON file ('-' or omit for stdin)")
    sub.set_defaults(func=_cmd_flags)


def _relations_args(sub):
    sub.add_argument("--points", type=int, default=32)
    sub.add_argument("--seed", type=int, default=7)
    sub.add_argument("--probe-budget", type=int, default=2)
    _add_field_flags(sub)
    sub.add_argument("--out", default=None)
    sub.set_defaults(func=_cmd_relations)


def _faithful_args(sub):
    sub.add_argument("--max-syllables", type=int, default=6)
    sub.add_argument("--probe-budget", type=int, default=4)
    sub.add_argument("--points", type=int, default=32)
    sub.add_argument("--seed", type=int, default=11)
    _add_field_flags(sub, include_q=False)
    sub.add_argument("--out", default=None)
    sub.set_defaults(func=_cmd_faithful)


def _xi_report_args(sub):
    sub.add_argument("--points", type=int, default=32)
    sub.add_argument("--seed", type=int, default=11)
    _add_field_flags(sub, include_q=False)
    sub.add_argument("--out", default=None)
    sub.set_defaults(func=_cmd_xi_report)


# Subcommand name -> (help line, adder of its arguments and handler).
_COMMANDS = {
    "verify-loop": ("replay a move script and check closure", _verify_loop_args),
    "act": ("apply a generator word to a point", _act_args),
    "pluecker": ("evaluate one Plücker coordinate", _pluecker_args),
    "random-point": ("sample a valid point", _random_point_args),
    "flags": ("rebuild and validate the flag chain", _flags_args),
    "relations": ("report the a^3 and b^2 relation checks", _relations_args),
    "faithful": ("separation sweep over reduced words", _faithful_args),
    "xi-report": ("Plücker tables for the xi words", _xi_report_args),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The `legmon` parser; for a known `command`, with only its subparser."""
    parser = argparse.ArgumentParser(
        prog="legmon",
        description="Braid-move loop certification and Legendrian-loop "
        "monodromy over exact fields",
    )
    known = command in _COMMANDS
    # One subparser built: the metavar keeps the usage line naming every command.
    metavar = "{" + ",".join(_COMMANDS) + "}" if known else None
    subs = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in (command,) if known else _COMMANDS:
        summary, add_args = _COMMANDS[name]
        add_args(subs.add_parser(name, help=summary))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
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
    except ValueError as exc:  # UsageError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
