"""Machine speed, measured next to every timed piece of work.

The CPU of a shared 2-vCPU VM was seen to switch between a fast and a
slow state, about 1.5x apart, for spells from a fraction of a second to
minutes, with no steal time (CPU time tracks wall time).  A raw wall
time, or any median of raw times, then depends on which state held
during the run: two sets of runs of the same code an hour apart differed
by 25-33%.

So every timing is taken between two runs of a fixed pure-Python loop
on the same CPU, and scaled by the loop's speed.  The loop does what the
search does most, building tuples and frozensets and hashing them into a
dict; a bare integer loop tracked the program's speed on the compile-bound
workload only a third as well.  A time ``t`` with loop times ``c0``
before and ``c1`` after is reported as
``t * REF_NS / ((c0 + c1) / 2)``.  The unit is the reference second (or
millisecond), in which the loop takes exactly ``REF_NS``; at the usual
speed of the VM above, reference and wall time are about equal.  The
loop touches nothing of ``ws1s_stream``, so a change to the program moves
a scaled time by the same share as the raw one.  A time that spans a
change of state is only partly corrected, which the medians over a run's
repetitions absorb.
"""

from __future__ import annotations

import time

LOOP = 600  # iterations of one probe, about 0.4 ms at the usual speed
PROBES = 3  # a tick is the fastest of this many probes, so an interrupt does not count
REF_NS = 380_000  # what one probe takes at reference speed


def tick() -> int:
    """Nanoseconds of one probe on this CPU now (the fastest of PROBES)."""
    best = None
    for _ in range(PROBES):
        t0 = time.perf_counter_ns()
        table = {}
        for i in range(LOOP):
            table[i & 63, i >> 2] = frozenset((i, i + 1))
            table.get((i, 0))
        elapsed = time.perf_counter_ns() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best


def scaled(ns: float, before: int, after: int) -> float:
    """``ns`` of wall time, taken between ticks ``before`` and ``after``,
    as nanoseconds at reference speed."""
    return ns * REF_NS * 2 / (before + after)


def scaled_series(spans_ns: list[int], ticks: list[int]) -> list[float]:
    """Scale consecutive spans, each bracketed by ``ticks[i]`` and ``ticks[i + 1]``."""
    return [scaled(ns, ticks[i], ticks[i + 1]) for i, ns in enumerate(spans_ns)]
