"""The benchmark's workloads: the `legmon` argv lists each pass runs and
the checks each op's output must pass.

A run with benchmark seed n executes passes i = 0, 1, 2, ...; pass i uses
the sub-seed j = n * SEEDS_PER_RUN + i, so every pass draws fresh inputs
and a run's median averages over inputs as well as over repetitions.
Benchmark seed 0, pass 0 runs the CLI default seeds; those ops are the
ones `bench/reference.json` records digests for.

This module imports nothing from legmon, so building the argv lists
costs the same before and after a change to the package.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

SEEDS_PER_RUN = 1000

# Pass size of certify-base: random-point | flags pairs, and the window
# parameter of its verify-loop ops.  The replay is quadratic in s.
CERTIFY_PAIRS = 100
CERTIFY_LOOP_S = 80
LOOP_BUILTINS = ("sigma1", "xi1", "xi2", "xi3", "delta_power")
FAMILY_COLUMNS = {"T36": 9, "T44": 8}

SWEEP_WORDS = 105  # nonempty reduced words of Z3 * Z2 with <= 8 syllables

# The CLI default seeds of `faithful`, `relations` and `xi-report`; sub-seed
# j adds j to each.
SWEEP_SEED = 11
RELATIONS_SEED = 7
XI_SEED = 11


@dataclass(frozen=True)
class Op:
    """One `legmon` invocation.

    `pipe_from` is the index, within the same pass, of the op whose stdout
    is this op's stdin.  `key` names the op in the digest table.
    """

    argv: tuple[str, ...]
    check: Callable[[int, str, dict], bool]
    key: str
    pipe_from: int | None = None


def _json(out: str):
    try:
        return json.loads(out)
    except ValueError:
        return None


def check_sweep(rc: int, out: str, ref: dict) -> bool:
    d = _json(out)
    return (
        rc == 0
        and isinstance(d, dict)
        and d.get("fraction_separated") == f"{SWEEP_WORDS}/{SWEEP_WORDS}"
        and d.get("all_separated") is True
        and all(w.get("q_reverify", {}).get("ok") is True for w in d["witnesses"])
    )


def relations_failing(d: dict) -> list[list[str]]:
    """The (relation, probe) pairs with at least one failing point."""
    return sorted([c["relation"], c["probe"]] for c in d["checks"] if c["failures"])


def check_relations(rc: int, out: str, ref: dict) -> bool:
    # The framed observable is not torus-invariant, so b^2 fails on the
    # probes that touch the rescaled columns: exit 1 is the honest result.
    d = _json(out)
    return (
        rc == 1
        and isinstance(d, dict)
        and d.get("all_pass") is False
        and relations_failing(d) == ref["relations_failing"]
    )


def check_xi(rc: int, out: str, ref: dict) -> bool:
    d = _json(out)
    return rc == 0 and isinstance(d, dict) and d.get("structural_all_ok") is True


def _check_point(family: str) -> Callable[[int, str, dict], bool]:
    def check(rc: int, out: str, ref: dict) -> bool:
        d = _json(out)
        return (
            rc == 0
            and isinstance(d, dict)
            and d.get("family") == family
            and len(d.get("columns", ())) == FAMILY_COLUMNS[family]
        )
    return check


def check_flags(rc: int, out: str, ref: dict) -> bool:
    d = _json(out)
    return (
        rc == 0
        and isinstance(d, dict)
        and d.get("valid_point") is True
        and d.get("bott_samelson") is True
    )


def check_loop(rc: int, out: str, ref: dict) -> bool:
    return rc == 0 and out.endswith("\nloop: true\n")


def _single(argv: list[str], check) -> list[Op]:
    return [Op(tuple(argv), check, " ".join(argv))]


def sweep_fp(j: int) -> list[Op]:
    return _single(["faithful", "--max-syllables", "8", "--seed", str(SWEEP_SEED + j)], check_sweep)


def relations_q(j: int) -> list[Op]:
    return _single(
        ["relations", "--field", "q", "--probe-budget", "3", "--seed", str(RELATIONS_SEED + j)],
        check_relations,
    )


def xi_t44(j: int) -> list[Op]:
    return _single(["xi-report", "--points", "64", "--seed", str(XI_SEED + j)], check_xi)


def certify_base(j: int) -> list[Op]:
    ops: list[Op] = []
    for t in range(CERTIFY_PAIRS):
        # Alternate the families so both flag-chain sizes and both
        # samplers (trial sigma1 on T36, trial xi on T44) are exercised.
        family = ("T36", "T44")[t % 2]
        argv = ("random-point", "--family", family, "--seed", str(j * CERTIFY_PAIRS + t + 1))
        key = " ".join(argv)
        ops.append(Op(argv, _check_point(family), key))
        ops.append(Op(("flags",), check_flags, f"flags < {key}", pipe_from=len(ops) - 1))
    for name in LOOP_BUILTINS:
        ops.extend(_single(["verify-loop", "--builtin", name, "--s", str(CERTIFY_LOOP_S)], check_loop))
    return ops


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ops: Callable[[int], list[Op]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep-fp",
            "headline certificate: 105-word separation sweep over F_p with Q "
            "re-verification; the only workload that reuses the probe cache",
            sweep_fp,
        ),
        Workload(
            "relations-q",
            "same sigma1 kernels over Q, where entries grow, without the probe "
            "cache; an F_p-only speed-up must leave it unchanged",
            relations_q,
        ),
        Workload(
            "xi-t44",
            "the only k=4 path: det4, meets against 3-dim spans, T44 sampling "
            "and the Subspace structural check; no Q, no probe cache",
            xi_t44,
        ),
        Workload(
            "certify-base",
            "hundreds of small CLI calls: sampling, flag chains, Bott-Samelson "
            "checks and braid loop replays, so argparse and JSON costs show",
            certify_base,
        ),
    )
}


def pass_ops(workload: str, seed: int, i: int) -> list[Op]:
    """The ops of pass i of a run with benchmark seed `seed`."""
    return WORKLOADS[workload].ops(seed * SEEDS_PER_RUN + i)
