"""Speed-corrected timing.

On a shared virtual machine the processor's momentary speed swings by 10-20%
over a few seconds, so raw wall-clock times of the same code do not repeat.
Every timed operation is therefore followed by a fixed reference computation
that ships with the benchmark and never changes, run for about a tenth of the
operation's time. An operation's time is divided by the mean time of one
reference call measured just before and just after it, which gives the time
in reference units; multiplying by REF_SECONDS scales that back to seconds. Operations must be short (a tenth
of a second to a few tenths) for the correction to follow the speed swings.

Do not edit `reference()` or REF_SECONDS: every figure the benchmark has
reported is expressed in their units.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Nominal duration of one reference() call, in seconds. Corrected times read
# as "seconds on a processor that runs reference() in REF_SECONDS".
REF_SECONDS = 0.010

_REF_POINTS = np.linspace(-3.0, 3.0, 2000).reshape(1000, 2)


def reference() -> float:
    """Fixed loop of small numpy kernels over a thousand points.

    Each iteration pays the interpreter and numpy's per-call overhead and then
    a short vector loop, much as one particle-filter or heading-filter update
    does. Tried against a pure-Python loop and a mix of the two, this one
    corrected both the Python-heavy and the numpy-heavy workload best.
    """
    acc = 0.0
    x = _REF_POINTS
    for j in range(600):
        c, s = math.cos(j * 0.1), math.sin(j * 0.1)
        m = x[:, 0] * c - x[:, 1] * s
        acc += float(np.abs(m).max() + (m > 0).sum())
    return acc


class SpeedClock:
    """Times callables in reference-scaled seconds."""

    # Reference time after an operation, as a share of the operation's time:
    # a long operation gets several reference calls, so that one short
    # snapshot of the processor's speed does not stand for all of it.
    REF_SHARE = 0.1

    def __init__(self):
        self._ref_prev = self._time_reference(0.0)
        self.last_scale = REF_SECONDS / self._ref_prev

    @classmethod
    def _time_reference(cls, after: float) -> float:
        """Mean time of one reference() call, over calls that take at least
        REF_SHARE of `after` seconds in all (one call at least)."""
        calls = 0
        t0 = time.perf_counter()
        while True:
            reference()
            calls += 1
            spent = time.perf_counter() - t0
            if spent >= cls.REF_SHARE * after:
                return spent / calls

    def call(self, fn):
        """Run fn(); return (result, raw seconds, corrected seconds).

        `last_scale` then converts raw seconds measured during the call into
        corrected seconds. An exception from fn propagates after the reference
        has run, so the next call still sees a fresh reference time.
        """
        t0 = time.perf_counter()
        try:
            out = fn()
        finally:
            raw = time.perf_counter() - t0
            ref = self._time_reference(raw)
            scale = REF_SECONDS / (0.5 * (self._ref_prev + ref))
            self._ref_prev = ref
            self.last_scale = scale
        return out, raw, raw * scale
