"""Deterministic simulation substrate.

This package contains the timing machinery shared by every architectural
component in the reproduction:

* :mod:`repro.sim.clock` — frequency/cycle/nanosecond conversions.
* :mod:`repro.sim.resource` — busy-until reservation resources (single
  server, banked, and bounded outstanding-request windows).  These model
  queueing at DRAM/NVM banks, fabric ports and miss-handling registers
  without a full event calendar per request.
* :mod:`repro.sim.engine` — a small deterministic event loop.  No
  simulator path uses it: the multi-node drivers order nodes with
  :mod:`heapq` directly.
* :mod:`repro.sim.stats` — counter/histogram registries every component
  reports into.

All times in the library are expressed in **nanoseconds** as floats;
:class:`~repro.sim.clock.Clock` converts to core cycles where needed.
"""

from repro.sim.clock import Clock
from repro.sim.engine import EventLoop
from repro.sim.resource import BankedResource, OutstandingWindow, TimedResource
from repro.sim.stats import Histogram, Stats

__all__ = [
    "Clock",
    "EventLoop",
    "TimedResource",
    "BankedResource",
    "OutstandingWindow",
    "Stats",
    "Histogram",
]
