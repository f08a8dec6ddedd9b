"""Wall time scaled to a reference machine speed.

On a shared host the speed a process gets changes by up to 2x from one
second to the next, with CPU time following wall time, so neither cancels
it. A speed probe, a warm pass of a fixed loop of the package's kinds of
work, runs at the start of every timed region and, from a SIGALRM interval
timer, every ``INTERVAL_S``. A region's reported seconds are its wall
seconds, less the whole time of the probe handlers that ran inside it,
times ``REF_PROBE_S`` over the mean probe time seen during it, raised to
the workload's ``ELASTICITY``: the seconds it would take on the reference
machine. The probe is benchmark code, so a
change to the package moves the region's wall time and not the probe.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import signal
from dataclasses import dataclass
from statistics import fmean
from time import perf_counter

import numpy as np

# probe time on the reference machine (2 vCPUs, Python 3.11) when no other
# tenant slows it
REF_PROBE_S = 4.5e-5
INTERVAL_S = 0.02
# Other tenants slow the package's work more than the probe where that
# work is small Python objects (the rounds: proofs, dicts, tuples), and
# about as much where it is wide numpy rows (bulk_block): its time grows as
# the probe time to the workload's power. Fitted on the reference machine
# over a few hundred operations each, while other tenants' load varied
# their wall time up to 2x, by the spread (IQR over median) of the scaled
# time's medians over runs of 12-20 operations: on fraud_round 8% at power
# 1, 2% at 1.3 and 4% at 1.4; on bulk_block 4.5% at 1 and 6% at 1.2.
ELASTICITY = {"honest_round": 1.3, "fraud_round": 1.3, "bulk_block": 1.0}


# the probe's mix follows the package's: digests of 32-byte values and small
# dicts of tuples (proofs and peeling), sha256 of a wide symbol and a numpy
# XOR of rows (building trees of wide symbols)
_WIDE = bytes(range(256)) * 64
_ROWS = np.arange(2 * 64 * 1024, dtype=np.uint8).reshape(2, -1)
_OUT = np.empty(64 * 1024, dtype=np.uint8)


def _loop() -> float:
    t0 = perf_counter()
    x, h, d = b"\0" * 32, hashlib.sha256, {}
    for i in range(48):
        x = h(x).digest()
        d[i] = (i, x)
    h(_WIDE).digest()
    np.bitwise_xor(_ROWS[0], _ROWS[1], out=_OUT)
    return perf_counter() - t0


def probe() -> float:
    """Seconds of one warm pass of the probe loop. The first pass refills the
    caches the package's work evicted, so only the machine's speed is left in
    the second."""
    _loop()
    return _loop()


@dataclass
class Timing:
    wall: float = 0.0
    seconds: float = 0.0  # scaled to the reference machine


class Clock:
    def __init__(self, elasticity: float = 1.0):
        self.elasticity = elasticity
        self.times: list[float] = []  # when each periodic probe started
        self.probes: list[float] = []  # its warm pass: the speed sample
        self.costs: list[float] = []  # its handler's whole duration
        self.spent = 0.0  # seconds in all probes so far, anchors included
        self.started = 0.0
        self._previous = None

    def _tick(self, _signum, _frame):
        t = perf_counter()
        self.probes.append(probe())
        self.times.append(t)
        cost = perf_counter() - t
        self.costs.append(cost)
        self.spent += cost

    def start(self) -> None:
        self.started = perf_counter()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)

    def _inside(self, t0: float, t1: float) -> tuple[int, int]:
        return bisect.bisect_left(self.times, t0), bisect.bisect_right(self.times, t1)

    def factor(self, t0: float, t1: float, anchor: float | None = None) -> float:
        """Reference seconds per wall second over [t0, t1]. ``anchor`` is a
        probe taken just before t0; with neither it nor a periodic probe
        inside, the last periodic probe before t0 stands in."""
        lo, hi = self._inside(t0, t1)
        seen = self.probes[lo:hi] + ([anchor] if anchor is not None else [])
        if not seen:
            seen = self.probes[lo - 1 : lo] or [probe()]
        return (REF_PROBE_S / fmean(seen)) ** self.elasticity

    def scaled(self, t0: float, t1: float, anchor: float | None = None) -> float:
        """Reference seconds of [t0, t1], less the probes that ran inside."""
        lo, hi = self._inside(t0, t1)
        return (t1 - t0 - sum(self.costs[lo:hi])) * self.factor(t0, t1, anchor)

    @contextlib.contextmanager
    def region(self, scope, op):
        """Time the body, within ``scope(op)``, as a Timing."""
        t = perf_counter()
        anchor = probe()
        self.spent += perf_counter() - t
        timing = Timing()
        with scope(op):
            t0 = perf_counter()
            yield timing
            t1 = perf_counter()
        timing.wall = t1 - t0
        timing.seconds = self.scaled(t0, t1, anchor)
