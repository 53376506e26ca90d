"""Host-speed probe: a fixed unit of work timed next to the program's work.

The benchmark runs on shared machines whose speed drifts by tens of per cent
within minutes, for every kind of work alike.  A :class:`HostProbe` times a
fixed unit of work — no program code, only the kinds of work a Dubhe round
does: Paillier-sized modular exponentiation, small batched matrix products,
normal sampling and interpreter-bound dict/sort work — right after each
stretch of program work (a set-up, a round).  :meth:`HostProbe.scale_after`
gives the factor that converts that stretch's wall time into *reference
seconds*: seconds on a host where the unit takes :data:`PROBE_REFERENCE_S`.
A change to the program moves its wall time but not the probe's, so it
moves the scaled time by the same share; a host that slows everything down
moves both and cancels out.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

import numpy as np

#: the unit's median wall time on the reference host (2-core x86 VM, quiet)
PROBE_REFERENCE_S = 2.0e-3
#: probe time spent per second of program work
PROBE_SHARE = 0.1
#: the probe's own seed; it shares no random state with the program
PROBE_SEED = 20_210_817


class HostProbe:
    """Times the fixed unit of work and turns wall time into reference seconds."""

    def __init__(self) -> None:
        draw = random.Random(PROBE_SEED)
        self._modulus = draw.getrandbits(256) | 1
        self._square = self._modulus * self._modulus
        self._bases = [draw.getrandbits(255) for _ in range(4)]
        rng = np.random.default_rng(PROBE_SEED)
        self._inputs = rng.standard_normal((8, 8, 64))
        self._weights = rng.standard_normal((8, 64, 32))
        self._rng = rng

    def _unit(self) -> None:
        for base in self._bases:
            pow(base, self._modulus, self._square)
        for _ in range(8):
            np.maximum(np.matmul(self._inputs, self._weights), 0.0).sum()
        self._rng.standard_normal(4_000)
        table = {key: key * 7 % 1_009 for key in range(300)}
        sorted(table.values(), reverse=True)

    def scale_after(self, busy_s: float) -> float:
        """Reference seconds per wall second, right after *busy_s* seconds of work.

        Times the unit for :data:`PROBE_SHARE` of *busy_s* (at least once)
        and divides :data:`PROBE_REFERENCE_S` by the median unit time.
        """
        durations: "list[float]" = []
        while not durations or sum(durations) < PROBE_SHARE * busy_s:
            start = perf_counter()
            self._unit()
            durations.append(perf_counter() - start)
        return PROBE_REFERENCE_S / statistics.median(durations)
