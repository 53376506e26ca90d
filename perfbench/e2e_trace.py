"""Layer tracing from outside the program: wrap public entry points, attribute time.

:class:`Tracer` replaces a fixed list of public callables (one or more per
layer of the :mod:`repro` package) with wrappers that record a span —
``(start, end, depth, layer)`` — or bump a counter, and puts every original
back on exit.  Nothing inside the program changes.

Self time is wall-clock attribution: every instant of a round goes to the
innermost span active at that instant, where "innermost" is the deepest
nesting level on the calling thread.  Spans on other threads (the socket
workload's client threads) rank as nested inside every span of the thread
driving the round, because that thread is blocked waiting on them;
overlapping spans are counted once.  The round's own share (no layer
active) is the unattributed time, so the layer self times plus the
unattributed time sum exactly to the round's wall time.
"""

from __future__ import annotations

import bisect
import functools
import threading
from collections import defaultdict
from time import perf_counter

#: the root span: one per round; time no layer claims stays with it
ROUND = "round"
#: rank offset of spans recorded on threads other than the driving thread
FOREIGN_DEPTH = 1_000


def span_targets() -> list:
    """``(owner, attribute, layer)`` for every wrapped entry point."""
    from repro.core.secure_selector import SecureDubheSelector
    from repro.core.selectors import DubheSelector
    from repro.crypto.paillier import PaillierPrivateKey, PaillierPublicKey
    from repro.data.synthetic import SyntheticImageGenerator
    from repro.federated.client import FederatedClient
    from repro.federated.server import FederatedServer
    from repro.federated.simulation import FederatedSimulation
    from repro.ledger.modes import LedgerSession
    from repro.transport.base import InProcessTransport
    from repro.transport.server import SocketTransport

    return [
        (FederatedSimulation, "run_round", ROUND),
        (SyntheticImageGenerator, "generate", "data.generate"),
        (InProcessTransport, "run_round", "federated.train"),
        (FederatedClient, "local_train", "federated.train"),
        (FederatedServer, "aggregate", "federated.aggregate"),
        (FederatedServer, "evaluate", "federated.evaluate"),
        (DubheSelector, "__init__", "core.register"),
        (SecureDubheSelector, "__init__", "core.register"),
        (DubheSelector, "select", "core.select"),
        (SecureDubheSelector, "select", "core.select"),
        (PaillierPublicKey, "raw_encrypt", "crypto.encrypt"),
        (PaillierPrivateKey, "raw_decrypt", "crypto.decrypt"),
        (LedgerSession, "on_round", "ledger.commit"),
        (SocketTransport, "run_round", "transport.run_round"),
    ]


class Tracer:
    """Context manager: wrap the layer entry points, restore them on exit.

    ``spans`` holds ``(start, end, depth, layer)`` tuples and ``events``
    ``(time, counter, amount)`` tuples, both in :func:`time.perf_counter`
    seconds.  Counters: ``data.cache_lookups`` / ``data.cache_hits``
    (:meth:`DatasetCache.get`) and ``transport.frames`` /
    ``transport.bytes`` (every frame decoded by either side of a socket).
    """

    def __init__(self) -> None:
        self.spans: list = []
        self.events: list = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._driving_thread = threading.get_ident()
        self._patches: list = []

    # -- installation -----------------------------------------------------------

    def _patch(self, owner, attribute: str, wrapper) -> None:
        original = vars(owner)[attribute]  # KeyError: the entry point moved
        setattr(owner, attribute, functools.wraps(original)(wrapper(original)))
        self._patches.append((owner, attribute, original))

    def __enter__(self) -> "Tracer":
        from repro.data.cohort import DatasetCache
        from repro.transport import messages

        self._driving_thread = threading.get_ident()
        try:
            for owner, attribute, layer in span_targets():
                self._patch(owner, attribute,
                            functools.partial(self._spanned, layer))
            self._patch(DatasetCache, "get", self._cache_counted)
            self._patch(messages, "decode_message", self._frame_counted)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    def restore(self) -> None:
        """Put every original callable back (idempotent)."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- wrappers ---------------------------------------------------------------

    def _spanned(self, layer: str, original):
        local = self._local

        def wrapper(*args, **kwargs):
            depth = getattr(local, "depth", 0)
            local.depth = depth + 1
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = perf_counter()
                local.depth = depth
                if threading.get_ident() != self._driving_thread:
                    depth += FOREIGN_DEPTH
                with self._lock:
                    self.spans.append((start, end, depth, layer))
        return wrapper

    def _count(self, counter: str, amount: int) -> None:
        with self._lock:
            self.events.append((perf_counter(), counter, amount))

    def _cache_counted(self, original):
        def wrapper(cache, key, factory):
            missed = []

            def tracked_factory():
                missed.append(True)
                return factory()

            dataset = original(cache, key, tracked_factory)
            self._count("data.cache_lookups", 1)
            if not missed:
                self._count("data.cache_hits", 1)
            return dataset
        return wrapper

    def _frame_counted(self, original):
        def wrapper(buffer, *args, **kwargs):
            result = original(buffer, *args, **kwargs)
            self._count("transport.frames", 1)
            self._count("transport.bytes", len(buffer))
            return result
        return wrapper

    # -- analysis ---------------------------------------------------------------

    def rounds(self) -> list:
        """The recorded round spans, in order."""
        return sorted((start, end) for start, end, _, layer in self.spans
                      if layer == ROUND)

    def self_times(self, windows) -> "dict[str, float]":
        """Wall time of the *windows* ``(start, end)`` attributed to each layer.

        Within a window every instant goes to the innermost active span;
        time no layer span covers is attributed to :data:`ROUND`.  Only spans
        that start inside a window count toward it.
        """
        spans = sorted(span for span in self.spans if span[3] != ROUND)
        starts = [span[0] for span in spans]
        totals: "dict[str, float]" = defaultdict(float)
        for start, end in windows:
            lo, hi = bisect.bisect_left(starts, start), bisect.bisect_right(starts, end)
            points = []
            for index in range(lo, hi):
                s, e, depth, layer = spans[index]
                e = min(e, end)
                points.append((s, 1, index, depth, layer))
                points.append((e, 0, index, depth, layer))
            points.sort()
            active: "dict[int, tuple]" = {}
            previous = start
            for time, is_start, index, depth, layer in points:
                owner = max(active.values())[1] if active else ROUND
                totals[owner] += time - previous
                previous = time
                if is_start:
                    active[index] = (depth, layer)
                else:
                    del active[index]
            totals[ROUND] += end - previous
        return dict(totals)

    def calls(self, layer: str, start: float, end: float) -> int:
        """Spans of *layer* that started inside ``[start, end]``."""
        return sum(1 for s, _, _, name in self.spans
                   if name == layer and start <= s <= end)

    def durations(self, layer: str, start: float, end: float) -> float:
        """Summed (inclusive) duration of *layer* spans started in the window."""
        return sum(e - s for s, e, _, name in self.spans
                   if name == layer and start <= s <= end)

    def counter(self, name: str, start: float, end: float) -> int:
        """Sum of counter *name* over events inside ``[start, end]``."""
        times = [t for t, counter, _ in self.events if counter == name]
        amounts = [a for _, counter, a in self.events if counter == name]
        lo, hi = bisect.bisect_left(times, start), bisect.bisect_right(times, end)
        return sum(amounts[lo:hi])
