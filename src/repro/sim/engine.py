"""A minimal deterministic event loop.

The library composes latencies synchronously through busy-until
resources, and the multi-node drivers (``split.run_replays`` and
``FamSystem._run_reference``) interleave nodes with :mod:`heapq`
directly, so no simulator path uses this loop.  :class:`EventLoop` is a
stable min-heap of ``(time, sequence, callback)`` entries, kept as a
general-purpose scheduler with pinned ordering guarantees.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

from repro.errors import ConfigError

__all__ = ["EventLoop"]


class EventLoop:
    """Deterministic discrete-event loop.

    Events scheduled for the same timestamp fire in scheduling order
    (FIFO), which keeps multi-node runs reproducible regardless of dict
    ordering or hash seeds.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Callable[[float], None]]] = []
        self._sequence = itertools.count()
        self._now = 0.0
        self.events_fired = 0

    @property
    def now(self) -> float:
        """Current simulated time: the most recently fired event, or
        the end of the last exhausted ``run(until=...)`` window."""
        return self._now

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, when: float, callback: Callable[[float], None]) -> None:
        """Schedule ``callback(when)`` to fire at time ``when``.

        Scheduling in the past (before the currently firing event) is a
        logic error in a component and is rejected.
        """
        if when < self._now:
            raise ConfigError(
                f"cannot schedule event at {when} ns; current time is {self._now} ns"
            )
        heapq.heappush(self._heap, (when, next(self._sequence), callback))

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        """Fire events in time order.

        Parameters
        ----------
        until:
            Stop once the next event lies strictly after this time.
            When every event in the window has fired, the clock
            advances to ``until`` itself — so a subsequent
            ``schedule`` before ``until`` is rejected and back-to-back
            windowed runs cannot mis-order zero-latency events
            scheduled between the last fired event and the window end.
        max_events:
            Safety valve for tests; stop after this many events.

        Returns the final simulated time.
        """
        fired = 0
        while self._heap:
            if until is not None and self._heap[0][0] > until:
                break
            if max_events is not None and fired >= max_events:
                break
            when, _seq, callback = heapq.heappop(self._heap)
            self._now = when
            callback(when)
            fired += 1
            self.events_fired += 1
        if until is not None and until > self._now and (
                not self._heap or self._heap[0][0] > until):
            # The window is exhausted (not a max_events stop with work
            # still pending inside it): advance to the window end.
            self._now = until
        return self._now

    def step(self) -> bool:
        """Fire a single event; returns False when the heap is empty."""
        if not self._heap:
            return False
        when, _seq, callback = heapq.heappop(self._heap)
        self._now = when
        callback(when)
        self.events_fired += 1
        return True
