"""Trace containers.

A trace is a sequence of memory-instruction events; each event carries
the number of non-memory instructions since the previous event (the
*gap*), the virtual address, the store flag, and whether the next
instructions depend on the access's result (a *dependent* load stalls
the core until its data returns; independent accesses only occupy an
outstanding-request slot).

:meth:`Trace.decoded` is the vectorized front-end of the simulation
hot path: it decomposes the address column into VPN / page-offset /
block-within-page **once** with NumPy (a handful of whole-array
shifts/masks) instead of re-deriving them per event in Python, then
materializes plain-int columns for the per-event loop (attribute
access on NumPy scalars is an order of magnitude slower than list
items, so the loop consumes lists).

A trace also carries the memo of its node streams
(:meth:`Trace.stream_memo`): the functional pass of
:mod:`repro.core.split` runs once per node and node-side
configuration, and every later run of the trace replays the stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, NamedTuple, Sequence

import numpy as np

from repro.errors import TraceError
from repro.memo import BoundedMemo

__all__ = ["TraceEvent", "Trace", "DecodedTrace", "DecodedArrays"]

#: Per-trace cap on memoized decodings.  Each entry is one (page size,
#: block size, representation) triple; a run only ever uses one
#: geometry, so a small LRU bound keeps long many-geometry sweeps from
#: pinning every decode of every trace for the life of the process.
DECODED_MEMO_CAP = 8

#: Per-trace cap on memoized node streams (one entry per node id, node
#: seed and node-side configuration; see :mod:`repro.core.split`).
STREAM_MEMO_CAP = 8


class DecodedTrace(NamedTuple):
    """Hot-loop columns of a trace, pre-decomposed per event.

    ``vpns`` / ``offsets`` / ``blocks`` are the virtual page number,
    page offset, and block index *within* the page for each event —
    everything the per-event path needs so that translation and cache
    indexing reduce to shifts and ors (physical block =
    ``frame << log2(page/block) | block``).
    """

    gaps: List[int]
    vpns: List[int]
    offsets: List[int]
    blocks: List[int]
    writes: List[bool]
    dependents: List[bool]

    def __len__(self) -> int:
        return len(self.gaps)


class DecodedArrays(NamedTuple):
    """The same per-event columns as :class:`DecodedTrace`, kept as
    NumPy arrays (the whole-array decode the list view derives from)."""

    gaps: np.ndarray        # int64
    vpns: np.ndarray        # int64
    offsets: np.ndarray     # int64
    blocks: np.ndarray      # int64
    writes: np.ndarray      # bool
    dependents: np.ndarray  # bool

    def __len__(self) -> int:
        return len(self.gaps)


class TraceEvent(NamedTuple):
    """One memory instruction in a trace."""

    gap: int
    vaddr: int
    is_write: bool
    dependent: bool


@dataclass
class Trace:
    """An in-memory trace with its provenance.

    Stored as parallel plain-Python lists: the hot simulation loop
    iterates tens of thousands of events, and attribute access on
    NumPy scalars is an order of magnitude slower than list items.
    """

    name: str
    gaps: List[int]
    vaddrs: List[int]
    writes: List[bool]
    dependents: List[bool]

    def __post_init__(self) -> None:
        n = len(self.gaps)
        if not (len(self.vaddrs) == len(self.writes)
                == len(self.dependents) == n):
            raise TraceError(f"trace {self.name!r}: ragged columns")

    def __len__(self) -> int:
        return len(self.gaps)

    def __iter__(self) -> Iterator[TraceEvent]:
        for gap, vaddr, write, dep in zip(self.gaps, self.vaddrs,
                                          self.writes, self.dependents):
            yield TraceEvent(gap, vaddr, write, dep)

    def __getitem__(self, index: int) -> TraceEvent:
        return TraceEvent(self.gaps[index], self.vaddrs[index],
                          self.writes[index], self.dependents[index])

    @property
    def instructions(self) -> int:
        """Total instructions the trace represents (memory events plus
        their gaps)."""
        return len(self.gaps) + sum(self.gaps)

    @property
    def memory_instruction_fraction(self) -> float:
        total = self.instructions
        return len(self.gaps) / total if total else 0.0

    def footprint_pages(self, page_bytes: int = 4096) -> int:
        """Distinct 4 KB pages the trace touches."""
        return len({addr // page_bytes for addr in self.vaddrs})

    def slice(self, start: int, stop: int) -> "Trace":
        """A sub-trace (used to shard a workload across nodes)."""
        return Trace(name=f"{self.name}[{start}:{stop}]",
                     gaps=self.gaps[start:stop],
                     vaddrs=self.vaddrs[start:stop],
                     writes=self.writes[start:stop],
                     dependents=self.dependents[start:stop])

    def _decode_memo(self) -> BoundedMemo:
        cache = self.__dict__.get("_decoded_cache")
        if cache is None:
            cache = BoundedMemo(DECODED_MEMO_CAP)
            self._decoded_cache = cache
        return cache

    def stream_memo(self) -> BoundedMemo:
        """The memo of this trace's node streams
        (:mod:`repro.core.split`), LRU-bounded to ``STREAM_MEMO_CAP``
        keys.  Entries are pure functions of the trace and their key,
        so eviction only costs a functional pass."""
        memo = self.__dict__.get("_stream_memo")
        if memo is None:
            memo = BoundedMemo(STREAM_MEMO_CAP)
            self._stream_memo = memo
        return memo

    def forget_streams(self) -> None:
        """Drop the memoized node streams (the next run of this trace
        simulates its node side again)."""
        self.__dict__.pop("_stream_memo", None)

    @staticmethod
    def _check_geometry(page_bytes: int, block_bytes: int) -> None:
        if page_bytes <= 0 or page_bytes & (page_bytes - 1):
            raise TraceError(f"page size must be a power of two, "
                             f"got {page_bytes}")
        if block_bytes <= 0 or block_bytes & (block_bytes - 1):
            raise TraceError(f"block size must be a power of two, "
                             f"got {block_bytes}")

    def decoded(self, page_bytes: int = 4096,
                block_bytes: int = 64) -> DecodedTrace:
        """Vectorized per-event decomposition (cached per geometry).

        One pass of whole-array NumPy arithmetic replaces the three
        per-event divisions/modulos the scalar loop used to perform;
        the result is memoized on the trace (LRU-bounded to
        ``DECODED_MEMO_CAP`` geometries), so repeated runs (sweeps
        re-using memoized traces) pay for decoding once.
        """
        self._check_geometry(page_bytes, block_bytes)
        cache = self._decode_memo()
        key = (page_bytes, block_bytes, "lists")
        decoded = cache.get(key)
        if decoded is None:
            arrays = self.decoded_arrays(page_bytes, block_bytes)
            decoded = DecodedTrace(
                gaps=self.gaps,
                vpns=arrays.vpns.tolist(),
                offsets=arrays.offsets.tolist(),
                blocks=arrays.blocks.tolist(),
                writes=self.writes,
                dependents=self.dependents)
            cache.put(key, decoded)
        return decoded

    def decoded_arrays(self, page_bytes: int = 4096,
                       block_bytes: int = 64) -> DecodedArrays:
        """The decoded columns as NumPy arrays (cached per geometry).

        Shares the bounded per-trace memo with :meth:`decoded` (the
        list view is derived from this one, so asking for both costs
        one decode).
        """
        self._check_geometry(page_bytes, block_bytes)
        cache = self._decode_memo()
        key = (page_bytes, block_bytes, "arrays")
        arrays = cache.get(key)
        if arrays is None:
            vaddrs = np.asarray(self.vaddrs, dtype=np.int64)
            page_shift = page_bytes.bit_length() - 1
            block_shift = block_bytes.bit_length() - 1
            offsets = vaddrs & (page_bytes - 1)
            arrays = DecodedArrays(
                gaps=np.asarray(self.gaps, dtype=np.int64),
                vpns=vaddrs >> page_shift,
                offsets=offsets,
                blocks=offsets >> block_shift,
                writes=np.asarray(self.writes, dtype=bool),
                dependents=np.asarray(self.dependents, dtype=bool))
            cache.put(key, arrays)
        return arrays
