"""Per-layer measurement: spans around legmon's public functions, and
kernel rows timed without tracing.

The tracer patches each traced function in every legmon module namespace
that binds it (e.g. `explorer` imports `act_word`, `pluecker` and
`random_point` by name), so calls are seen whichever module makes them.
Nothing under `src/` is edited; `uninstall` restores the originals.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from random import Random

import calibration
from workloads import RELATIONS_SEED, SWEEP_SEED, XI_SEED

# (module, qualified name) of every traced function.
TRACED = (
    ("cli", "main"),
    ("explorer", "faithfulness_sweep"),
    ("explorer", "separate"),
    ("explorer", "reverify_witness_q"),
    ("explorer", "verify_relations"),
    ("explorer", "xi_pluecker_report"),
    ("explorer", "xi_structural_ok"),
    ("monodromy", "act_word"),
    ("monodromy", "act_sigma1"),
    ("monodromy", "act_xi"),
    ("monodromy", "act_shift"),
    ("moduli", "random_point"),
    ("moduli", "validate_point"),
    ("moduli", "pluecker"),
    ("moduli", "flags_from_point"),
    ("moduli", "validate_bott_samelson"),
    ("moduli", "point_loads"),
    ("moduli", "point_dumps"),
    ("linalg", "determinant"),
    ("linalg", "Subspace.span"),
    ("linalg", "intersect"),
    ("linalg", "wedge_normalize"),
    ("linalg", "Subspace.contains"),
    ("braids", "verify_loop"),
    ("braids", "apply_move"),
)
SPAN_NAMES = tuple(f"{m}.{q}" for m, q in TRACED)

# Functions that run on every workload get a self-time row.  The others
# would read exactly 0 s on some workloads, which is not a measurement;
# their self times are in the span file every traced run writes.
SELF_TIME_ROWS = (
    "cli.main",
    "moduli.random_point",
    "moduli.validate_point",
    "linalg.determinant",
    "linalg.Subspace.span",
    "linalg.intersect",
    "linalg.wedge_normalize",
)
MONODROMY_MAPS = ("monodromy.act_word", "monodromy.act_sigma1",
                  "monodromy.act_xi", "monodromy.act_shift")

KERNEL_UNITS = {
    "fields.fp_mul_ns": "ns",
    "fields.q_mul_ns": "ns",
    "linalg.det3_fp_us": "us",
    "linalg.det4_fp_us": "us",
    "monodromy.act_sigma1_us": "us",
    "monodromy.act_xi_us": "us",
    "moduli.flags_from_point_us": "us",
}
# Kernel timings: the median over KERNEL_BATCHES batches, each repeating
# its operands until it lasts at least KERNEL_BATCH_S seconds.
KERNEL_BATCHES = 5
KERNEL_BATCH_S = 0.02

SRC_MODULES = ("__init__", "braids", "cli", "explorer", "fields", "linalg",
               "moduli", "monodromy")

#: Every per-layer metric a traced run reports, with its unit.
PER_LAYER_UNITS = {
    **{f"{name}.calls": "count" for name in SPAN_NAMES},
    **{f"{name}.self_s": "s" for name in SELF_TIME_ROWS},
    "monodromy.self_s": "s",
    "cli.bytes_out": "bytes",
    "explorer.separated_ratio": "ratio",
    "explorer.degenerate_evals": "count",
    "explorer.resamples": "count",
    "monodromy.degeneracies": "count",
    "moduli.accept_ratio": "ratio",
    "trace.overhead_s": "s",
    **KERNEL_UNITS,
    **{f"src_lines.{m}": "lines" for m in SRC_MODULES},
    "src_lines.total": "lines",
}


class Tracer:
    """Spans kept in memory: (name index, parent span id or -1, start ns,
    end ns, returned normally), plus the results the counters need."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.separated = 0
        self.degenerate_evals = 0
        self.resamples = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        index = SPAN_NAMES.index(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (index, parent, start, end, ok)
            self._count(name, result)
            return result

        return traced

    def _count(self, name: str, result):
        if name == "explorer.separate":
            self.separated += result is not None
        elif name == "explorer.faithfulness_sweep":
            self.degenerate_evals += result.degenerate_evals
        elif name in ("explorer.verify_relations", "explorer.xi_pluecker_report"):
            self.resamples += result.resamples

    def install(self) -> list:
        """Patch every traced function; returns what `uninstall` restores."""
        patches = []
        modules = [m for n, m in sys.modules.items() if n.startswith("legmon.")]
        for mod_name, qual in TRACED:
            name = f"{mod_name}.{qual}"
            owner = importlib.import_module(f"legmon.{mod_name}")
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(name, raw.__func__))
                else:
                    new = self.wrap(name, raw)
                patches.append((cls, attr, raw))
                setattr(cls, attr, new)
                continue
            orig = getattr(owner, qual)
            new = self.wrap(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        patches.append((mod, key, orig))
                        setattr(mod, key, new)
        return patches

    @staticmethod
    def uninstall(patches: list):
        for obj, attr, orig in reversed(patches):
            setattr(obj, attr, orig)

    def table(self) -> dict[str, float]:
        """Per-pass numbers: calls and self seconds per function, and the
        counters measured at the same boundaries."""
        calls = Counter()
        self_ns = defaultdict(int)
        child_ns = defaultdict(int)
        failed = Counter()
        sampled_validations = 0
        rp = SPAN_NAMES.index("moduli.random_point")
        vp = SPAN_NAMES.index("moduli.validate_point")
        for index, parent, start, end, ok in self.spans:
            calls[index] += 1
            self_ns[index] += end - start
            failed[index] += not ok
            if parent >= 0:
                child_ns[self.spans[parent][0]] += end - start
                sampled_validations += index == vp and self.spans[parent][0] == rp
        self_s = {
            name: (self_ns[index] - child_ns[index]) / 1e9
            for index, name in enumerate(SPAN_NAMES)
        }
        out: dict[str, float] = {
            f"{name}.calls": calls[index] for index, name in enumerate(SPAN_NAMES)
        }
        out.update({f"{name}.self_s": self_s[name] for name in SELF_TIME_ROWS})
        out["monodromy.self_s"] = sum(self_s[name] for name in MONODROMY_MAPS)
        sep_calls = calls[SPAN_NAMES.index("explorer.separate")]
        out["explorer.separated_ratio"] = self.separated / sep_calls if sep_calls else 0.0
        out["explorer.degenerate_evals"] = self.degenerate_evals
        out["explorer.resamples"] = self.resamples
        out["monodromy.degeneracies"] = (
            failed[SPAN_NAMES.index("monodromy.act_sigma1")]
            + failed[SPAN_NAMES.index("monodromy.act_xi")]
        )
        accepted = calls[rp] - failed[rp]
        out["moduli.accept_ratio"] = (
            accepted / sampled_validations if sampled_validations else 0.0
        )
        return out

    def dump(self, path: Path):
        """Write the spans, one JSON array per line: id, parent id, name,
        start ns, end ns, returned normally."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (index, parent, start, end, ok) in enumerate(self.spans):
                fh.write(json.dumps([sid, parent, SPAN_NAMES[index], start, end, ok]))
                fh.write("\n")


def _per_call(fn, items, unit: float) -> float:
    """Median over KERNEL_BATCHES batches of the time per item of
    `fn(item)`, in `unit` seconds at the reference machine speed (scaled
    like the end-to-end times, by the calibrations before and after)."""
    reps = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(reps):
            for item in items:
                fn(item)
        if time.perf_counter() - t0 >= KERNEL_BATCH_S:
            break
        reps *= 2
    before = calibration.scale()
    samples = []
    for _ in range(KERNEL_BATCHES):
        t0 = time.perf_counter()
        for _ in range(reps):
            for item in items:
                fn(item)
        samples.append((time.perf_counter() - t0) / (reps * len(items)) / unit)
    return statistics.median(samples) * (before + calibration.scale()) / 2


def kernel_rows(j: int) -> dict[str, float]:
    """Untraced kernel timings on the first points pass 0 of a run with
    sub-seed j draws: the sweep's first T36 point and xi-report's first
    T44 point, over F_p, give the F_p operands; relations-q's first T36
    point over Q, moved by b^2 as its b^2 check does, gives Q operands of
    the heights that workload meets.
    """
    from itertools import combinations

    from legmon.fields import PrimeField, QQ, default_prime
    from legmon.linalg import Matrix, determinant
    from legmon.moduli import T36, T44, flags_from_point, random_point
    from legmon.monodromy import act_sigma1, act_word, act_xi

    def first_draw(seed: int) -> int:
        return Random(seed).randrange(2**62)

    fp = PrimeField(default_prime())
    p36 = random_point(T36, fp, first_draw(SWEEP_SEED + j))
    p44 = random_point(T44, fp, first_draw(XI_SEED + j))
    q36 = act_word(random_point(T36, QQ, first_draw(RELATIONS_SEED + j)), ("B", "B"))

    fp_entries = [x for p in (p36, p44) for c in p.columns for x in c]
    q_entries = [x for c in q36.columns for x in c]
    fp_pairs = list(zip(fp_entries, fp_entries[1:] + fp_entries[:1]))
    q_pairs = list(zip(q_entries, q_entries[1:] + q_entries[:1]))

    def minors(p):
        return [
            Matrix.from_columns([p.columns[i] for i in idx], p.field)
            for idx in combinations(range(p.family.n_columns), p.family.k)
        ]

    def mul(pair):
        return pair[0] * pair[1]

    return {
        "fields.fp_mul_ns": _per_call(mul, fp_pairs, 1e-9),
        "fields.q_mul_ns": _per_call(mul, q_pairs, 1e-9),
        "linalg.det3_fp_us": _per_call(determinant, minors(p36), 1e-6),
        "linalg.det4_fp_us": _per_call(determinant, minors(p44), 1e-6),
        "monodromy.act_sigma1_us": _per_call(act_sigma1, [p36], 1e-6),
        "monodromy.act_xi_us": _per_call(lambda i: act_xi(p44, i), [1, 2, 3], 1e-6),
        "moduli.flags_from_point_us": _per_call(flags_from_point, [p36], 1e-6),
    }
