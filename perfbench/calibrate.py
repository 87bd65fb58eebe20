"""A fixed reference computation that gauges the machine's current speed.

On a shared machine the speed of one core drifts by up to a factor of two
over tens of seconds, and a run's medians drift with it.  The times of
library calls in a pass are therefore scaled by REFERENCE_S / (the mean
duration of this loop over the pass), i.e. expressed in seconds at the
speed at which the loop takes REFERENCE_S.  `Clock` re-runs the loop
between timed calls about every quarter second, so the readings cover the
whole pass.  One factor per pass: single readings jump between about 0.08
and 0.14 s on a 2-vCPU VM, and scaling each stretch of calls by the
readings next to it added more noise than it removed, while one factor for
a whole run missed the drift between its passes.  The loop mixes what
the library spends its time on: Fraction arithmetic, modular integer
powers, dict and tuple churn, and small numpy vector operations.  It never
calls heckedist, so no change to the library changes it.  Raw seconds stay
in the run record.  Process start-up (the worker's set-up, CLI
subprocesses) is mostly imports, which the loop tracked worse than not
scaling at all, so setup_s and the CLI latencies are scaled by a paired
interpreter start-up instead (run.py, STARTUP_REF).
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np

REFERENCE_S = 0.1
REGAUGE_S = 0.25  # seconds of timed calls between runs of the loop


def _loop():
    acc, table = Fraction(0), {}
    for i in range(1, 20_000):
        acc += Fraction(i % 97, i % 89 + 1)
        table[(i, i % 7)] = pow(i, 65537, 1_000_003)
    a = np.arange(20_000)
    for _ in range(50):
        a = (a * 3 + 1) % 1000
    return acc, len(table), int(a[-1])


def reference_s() -> float:
    """Seconds one run of the reference loop takes now."""
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0


def scale(readings: list[float]) -> float:
    """Reference seconds per raw second, from a pass's readings of the loop."""
    return REFERENCE_S / statistics.fmean(readings)


class Clock:
    """Raw seconds spent in timed calls, and readings of the loop between them.

    The loop runs before the first call and again whenever at least
    REGAUGE_S seconds of calls have gone by since its last run, so the
    readings sample the machine's speed all through a pass.
    """

    def __init__(self):
        self.refs = [reference_s()]
        self.raw = self.pending = 0.0

    def add(self, seconds: float):
        self.raw += seconds
        self.pending += seconds
        if self.pending >= REGAUGE_S:
            self.settle()

    def settle(self):
        if self.pending:
            self.refs.append(reference_s())
            self.pending = 0.0
