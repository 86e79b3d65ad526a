"""Machine-speed calibration for the end-to-end times.

The benchmark runs on shared machines whose speed drifts by tens of
percent within a minute as other tenants' load comes and goes, and a
run's times drift with it.  A fixed loop of interpreter work of the
kinds legmon does (small-object arithmetic modulo a prime, Fraction
arithmetic, JSON and string building), independent of legmon's code, is
timed after every pass, so it samples the machine speed of the moment
the pass ran.  Each pass is scaled by REFERENCE_S / median(loop time
after it): times read as seconds on a machine where the loop takes
REFERENCE_S.

Changing this file changes every end-to-end number: do it only together
with a new baseline.
"""

from __future__ import annotations

import json
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.004
TIMINGS = 5  # loop timings per calibration; their median is used
_P = 2147483647


class _Residue:
    __slots__ = ("v",)

    def __init__(self, v: int):
        self.v = v % _P

    def __mul__(self, other):
        return _Residue(self.v * other.v)

    def __add__(self, other):
        return _Residue(self.v + other.v)


def _loop():
    xs = [_Residue(i * 7919 + 1) for i in range(64)]
    acc = _Residue(0)
    for _ in range(40):
        for a, b in zip(xs, xs[1:]):
            acc = acc + a * b
    f = Fraction(3, 7)
    for i in range(1, 60):
        f = f * Fraction(i + 1, i + 2) + Fraction(1, i)
    doc = {"columns": [[f"{(i * j) % _P} mod {_P}" for i in range(3)] for j in range(9)]}
    for _ in range(20):
        text = json.dumps(doc, indent=2)
        doc = json.loads(text)
    lines = "\n".join(f"{i:10d} -> {' '.join(str(j) for j in range(i % 40))}" for i in range(200))
    return acc.v, f, len(text), len(lines)


def scale() -> float:
    """REFERENCE_S over the median of TIMINGS timings of the loop: the
    factor that turns seconds measured now into reference seconds."""
    timings = []
    for _ in range(TIMINGS):
        t0 = time.perf_counter()
        _loop()
        timings.append(time.perf_counter() - t0)
    return REFERENCE_S / statistics.median(timings)
