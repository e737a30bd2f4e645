"""How fast the machine runs right now, from a fixed reference unit of work.

The benchmark's host is a small share of a busy machine. The speed of the
CPU that a process runs on drifts by a third or more, it changes within a
second or two, and slow stretches can last as long as a whole run: a fixed
pure-Python loop timed in 25 s windows gave window medians from 230 to
299 ms, and the two CPUs drift apart, not together. Plain seconds can then
not be compared between two sets of runs. Every end-to-end time is
therefore scaled to a reference speed: the speed at which one reference
unit takes ``UNIT_S``.

A reference unit is a fixed mix of the kinds of work the program does:
interpreter arithmetic, formatting and parsing text as CSV I/O does, and
numpy on a small array. It does not import driftbias, so no change to the
program moves it.

- ``Sampler`` times one unit every ``INTERVAL_S`` of wall time while a call
  runs in the same thread (from a SIGALRM handler, between bytecodes), so
  it sees the speed of whichever CPU the call is on. The call's own time is
  its wall time minus the samples', scaled by the mean of
  ``UNIT_S / sample``.
- ``block`` times ``BLOCK_UNITS`` units in a row. It brackets a call that
  runs in another process, such as a cold start of the CLI, and ``scaled``
  uses the mean of the blocks before and after it.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

# A unit's time at the reference speed: a round figure near its time in a
# quiet stretch on a 2-vCPU VM, so scaled times read close to seconds.
UNIT_S = 0.005
INTERVAL_S = 0.1
BLOCK_UNITS = 30
_WEIGHTS = np.linspace(0.5, 1.5, 2000)


def _unit() -> float:
    total = 0
    for i in range(12_000):
        total += i * i % 7
    values = []
    for i in range(2000):
        text = f"S{i:05d},2010-01-{i % 28 + 1:02d},{math.exp(i * 1e-5):.6f}"
        values.append(float(text.split(",")[2]))
    logs = np.log(np.array(values)) * _WEIGHTS
    return total + float(np.sort(logs).cumsum().sum())


def block() -> float:
    """Mean time of a unit over ``BLOCK_UNITS`` units in a row."""
    start = time.perf_counter()
    for _ in range(BLOCK_UNITS):
        _unit()
    return (time.perf_counter() - start) / BLOCK_UNITS


def scaled(elapsed: float, before: float, after: float) -> float:
    """``elapsed`` seconds, bracketed by two blocks, as seconds at the reference speed."""
    return elapsed * UNIT_S * 2.0 / (before + after)


class Sampler:
    """Times the call inside ``with`` and samples the speed while it runs.

    The call must last at least ``INTERVAL_S``; every workload's pass does.

    After the block, ``raw_s`` is the call's wall time without the samples,
    ``samples`` the unit times and ``scaled_s`` the call's time at the
    reference speed.
    """

    def __enter__(self) -> Sampler:
        self.samples: list[float] = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        _unit()
        self.samples.append(time.perf_counter() - start)

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        elapsed = time.perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._previous)
        self.raw_s = elapsed - sum(self.samples)
        self.scaled_s = self.raw_s * UNIT_S * sum(1.0 / sample for sample in self.samples) / len(self.samples)
