"""The node's inclusive three-level data cache hierarchy (Table II).

The hierarchy is probed with *node physical* block addresses.  It
returns which level served the access and the accumulated on-chip
latency; on an LLC miss the caller sends the request down the memory
path (local DRAM or the FAM translation machinery).

Inclusivity is enforced the way the paper assumes ("L1, L2, and L3
caches are inclusive"): an L3 eviction back-invalidates the inner
levels.  Write-backs of dirty LLC victims are surfaced to the caller so
they generate real memory traffic.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.cache.cache import SetAssociativeCache
from repro.config.system import CacheConfig
from repro.core.hotpath import hot_path

__all__ = ["CacheHierarchy"]

_NO_WRITEBACKS: Tuple[int, ...] = ()


class CacheHierarchy:
    """L1 -> L2 -> L3 inclusive lookup with LRU per level."""

    def __init__(self, l1: CacheConfig, l2: CacheConfig, l3: CacheConfig,
                 name: str = "node") -> None:
        self.block_bytes = l1.block_bytes
        self.block_shift = l1.block_bytes.bit_length() - 1
        self.configs = (l1, l2, l3)
        self.levels: List[SetAssociativeCache[bool]] = [
            SetAssociativeCache(f"{name}.{cfg.name}", cfg.n_sets,
                                cfg.associativity, cfg.replacement)
            for cfg in self.configs
        ]
        self._l1, self._l2, self._l3 = self.levels
        self.latencies = tuple(cfg.latency_ns for cfg in self.configs)
        self._lat1 = self.latencies[0]
        self._lat12 = self.latencies[0] + self.latencies[1]
        self._lat123 = sum(self.latencies)

    # ------------------------------------------------------------------
    def access_fast(self, block: int,
                    write: bool) -> Tuple[int, float, Tuple[int, ...]]:
        """Allocation-free probe of a pre-shifted block number.

        Returns ``(level, latency_ns, writebacks)``: ``level`` is 1, 2
        or 3 for the level that hit and 0 for a full miss (which fills
        every level); ``latency_ns`` is the sum of lookup latencies
        down to and including the serving level (all three on a miss),
        as in a serial-lookup hierarchy; ``writebacks`` holds the byte
        addresses of dirty LLC victims the fill evicted.  The L1 probe
        is inlined (``get_line``'s body) because most accesses end
        there.
        """
        l1 = self._l1
        mask = l1._mask
        lines = l1._sets[block & mask if mask >= 0 else block % l1.n_sets]
        line = lines.get(block)
        if line is not None:
            l1.hits += 1
            if write:
                line[1] = True
            if l1._promote_on_hit:
                lines.move_to_end(block)
            return 1, self._lat1, _NO_WRITEBACKS
        l1.misses += 1
        return self.access_after_l1_miss(block, write)

    @hot_path
    def access_after_l1_miss(
            self, block: int,
            write: bool) -> Tuple[int, float, Tuple[int, ...]]:
        """:meth:`access_fast` continuation for callers that probed
        (and counted) L1 themselves — the functional pass of
        :mod:`repro.core.split`.  L2 onward is accounted here
        identically."""
        if self._l2.get_line(block, write) is not None:
            self._l1.fill_line(block, True, write)
            return 2, self._lat12, _NO_WRITEBACKS
        if self._l3.get_line(block, write) is not None:
            self._l2.fill_line(block, True, write)
            self._l1.fill_line(block, True, write)
            return 3, self._lat123, _NO_WRITEBACKS
        return 0, self._lat123, self._fill_all(block, write)

    def _fill_all(self, block: int, write: bool) -> Tuple[int, ...]:
        """Fill every level after a full miss; collect LLC write-backs
        and enforce inclusivity on L3 evictions."""
        writebacks: Tuple[int, ...] = _NO_WRITEBACKS
        l3_evicted = self._l3.fill_line(block, True, write)
        if l3_evicted is not None:
            evicted = l3_evicted[0]
            # Inclusive hierarchy: anything leaving L3 leaves L1/L2 too.
            self._l1.invalidate(evicted)
            self._l2.invalidate(evicted)
            if l3_evicted[2]:
                writebacks = (evicted * self.block_bytes,)
        l2_evicted = self._l2.fill_line(block, True, write)
        if l2_evicted is not None and l2_evicted[2]:
            # Dirty inner victim is absorbed by the next level (it is
            # still resident there under inclusion), not written back.
            self._l3.fill_line(l2_evicted[0], True, True)
        l1_evicted = self._l1.fill_line(block, True, write)
        if l1_evicted is not None and l1_evicted[2]:
            self._l2.fill_line(l1_evicted[0], True, True)
        return writebacks

    # ------------------------------------------------------------------
    def contains(self, addr: int) -> Optional[int]:
        """Innermost level holding ``addr`` (1-based), or ``None``."""
        block = addr // self.block_bytes
        for index, cache in enumerate(self.levels):
            if block in cache:
                return index + 1
        return None

    @property
    def llc(self) -> SetAssociativeCache[bool]:
        return self._l3

    @property
    def miss_latency_ns(self) -> float:
        """On-chip latency of missing all three levels."""
        return self._lat123

    def llc_miss_count(self) -> int:
        return self._l3.misses

    def reset_stats(self) -> None:
        for cache in self.levels:
            cache.reset_stats()
