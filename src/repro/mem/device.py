"""Banked DRAM and NVM device models.

Both devices are banks of busy-until FIFO servers (see
:mod:`repro.sim.resource`).  The NVM FAM additionally enforces the
Table II outstanding-request limit (128) and keeps the AT/non-AT
request census behind Figures 4 and 11.

Counters are plain attributes (these methods run a dozen times per
trace event); :meth:`snapshot` materializes them into the dict shape
the experiment harness consumes.  For the same reason ``access``
inlines the window admission and the bank reservation of
:mod:`repro.sim.resource`, on the resources' own state: the same float
expressions, and the same ``reservations``/``busy_time``/``admissions``
/``stall_time`` bookkeeping.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, Optional

from repro.config.system import FamConfig, LocalMemoryConfig
from repro.mem.request import RequestKind
from repro.sim.resource import BankedResource, OutstandingWindow

__all__ = ["DramDevice", "NvmDevice"]


class DramDevice:
    """Node-local DRAM: symmetric read/write latency, a few banks."""

    def __init__(self, config: LocalMemoryConfig, name: str = "dram") -> None:
        self.config = config
        self.name = name
        self.banks = BankedResource(name, config.banks,
                                    config.interleave_bytes)
        self._access_ns = config.access_ns
        self.reads = 0
        self.writes = 0
        self.at_accesses = 0

    def access(self, addr: int, now: float, is_write: bool = False,
               kind: RequestKind = RequestKind.DATA) -> float:
        """Issue one 64 B access; returns completion time."""
        if is_write:
            self.writes += 1
        else:
            self.reads += 1
        if kind.is_translation:
            self.at_accesses += 1
        # BankedResource.reserve, inlined.
        banks = self.banks
        mask = banks._bank_mask
        block = addr >> banks._interleave_shift
        bank = banks._banks[block & mask if mask >= 0 else
                            block % banks.n_banks]
        service = self._access_ns
        busy = bank._busy_until
        completion = (now if now > busy else busy) + service
        bank._busy_until = completion
        bank.reservations += 1
        bank.busy_time += service
        return completion

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    def snapshot(self) -> Dict[str, float]:
        return {"accesses": float(self.accesses),
                "reads": float(self.reads),
                "writes": float(self.writes),
                "at_accesses": float(self.at_accesses)}

    def reset(self) -> None:
        self.banks.reset()
        self.reads = self.writes = self.at_accesses = 0


class NvmDevice:
    """The fabric-attached NVM pool (Table II: 16 GB, 60/150 ns
    read/write, 32 banks, 128 outstanding requests).

    The outstanding window applies back-pressure: when 128 requests are
    in flight, a new arrival waits for the oldest completion before its
    bank reservation begins — the admission rule the paper's simulated
    FAM controller enforces.
    """

    def __init__(self, config: FamConfig, name: str = "fam") -> None:
        self.config = config
        self.name = name
        self.banks = BankedResource(name, config.banks,
                                    config.interleave_bytes)
        self.window = OutstandingWindow(config.max_outstanding,
                                        name=f"{name}.outstanding")
        self._read_ns = config.read_ns
        self._write_ns = config.write_ns
        self.reads = 0
        self.writes = 0
        self.at_accesses = 0
        #: Requests per kind, indexed by ``RequestKind.index``.
        self._kind_counts: List[int] = [0] * len(RequestKind)
        self.node_counts: Dict[int, int] = {}

    def access(self, addr: int, now: float, is_write: bool = False,
               kind: RequestKind = RequestKind.DATA,
               node_id: Optional[int] = None) -> float:
        """Issue one 64 B access; returns completion time.

        Also maintains the AT/non-AT census of requests *observed at
        the FAM* — the quantity plotted in Figures 4 and 11.
        """
        if is_write:
            self.writes += 1
            service = self._write_ns
        else:
            self.reads += 1
            service = self._read_ns
        self._kind_counts[kind.index] += 1
        if kind.is_translation:
            self.at_accesses += 1
        if node_id is not None:
            node_counts = self.node_counts
            node_counts[node_id] = node_counts.get(node_id, 0) + 1
        # OutstandingWindow.admit, inlined: retire finished requests,
        # then wait for the earliest completion while the window is
        # full.
        window = self.window
        heap = window._completions
        while heap and heap[0] <= now:
            heappop(heap)
        issue = now
        while len(heap) >= window.capacity:
            earliest = heappop(heap)
            if earliest > issue:
                window.stall_time += earliest - issue
                issue = earliest
        window.admissions += 1
        # BankedResource.reserve, inlined.
        banks = self.banks
        mask = banks._bank_mask
        block = addr >> banks._interleave_shift
        bank = banks._banks[block & mask if mask >= 0 else
                            block % banks.n_banks]
        busy = bank._busy_until
        completion = (issue if issue > busy else busy) + service
        bank._busy_until = completion
        bank.reservations += 1
        bank.busy_time += service
        # OutstandingWindow.record, inlined.
        heappush(heap, completion)
        return completion

    @property
    def kind_counts(self) -> Dict[RequestKind, int]:
        """Requests observed at the FAM per :class:`RequestKind`."""
        counts = self._kind_counts
        return {kind: counts[kind.index] for kind in RequestKind}

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    @property
    def at_fraction(self) -> float:
        """Fraction of requests at the FAM that are address translation
        (Figure 4 / Figure 11 y-axis)."""
        total = self.accesses
        return self.at_accesses / total if total else 0.0

    @property
    def stats(self) -> "_StatsView":
        """Stats-like read access (``stats.snapshot()``) for harness
        compatibility."""
        return _StatsView(self)

    def snapshot(self) -> Dict[str, float]:
        counters: Dict[str, float] = {
            "accesses": float(self.accesses),
            "reads": float(self.reads),
            "writes": float(self.writes),
            "at_accesses": float(self.at_accesses),
            "non_at_accesses": float(self.accesses - self.at_accesses),
        }
        for kind in RequestKind:
            counters[f"kind.{kind.value}"] = float(
                self._kind_counts[kind.index])
        for node_id, count in self.node_counts.items():
            counters[f"node.{node_id}.accesses"] = float(count)
        return counters

    def reset(self) -> None:
        self.banks.reset()
        self.window.reset()
        self.reads = self.writes = self.at_accesses = 0
        self._kind_counts = [0] * len(RequestKind)
        self.node_counts.clear()


class _StatsView:
    """Adapter exposing ``snapshot()``/``get()`` over device counters."""

    def __init__(self, device: NvmDevice) -> None:
        self._device = device

    def snapshot(self) -> Dict[str, float]:
        return self._device.snapshot()

    def get(self, key: str, default: float = 0.0) -> float:
        return self._device.snapshot().get(key, default)
