"""The node memory-management unit.

Ties the two-level TLB to the page-table walker: a translation request
either hits a TLB level (no memory traffic) or triggers a walk whose
surviving steps (after walk-cache filtering) are returned so the node
can charge them through its cache hierarchy and memory path — page
walks are ordinary memory reads to wherever the table pages live.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.config.system import PtwConfig, TlbConfig
from repro.core.hotpath import hot_path
from repro.pagetable.walker import PageTableWalker
from repro.pagetable.x86 import FourLevelPageTable, WalkStep
from repro.tlb.tlb import TwoLevelTlb

__all__ = ["Mmu"]


class Mmu:
    """Per-node MMU: TLB front-end plus a page-table walker back-end."""

    def __init__(self, page_table: FourLevelPageTable, tlb_config: TlbConfig,
                 ptw_config: PtwConfig, name: str = "mmu") -> None:
        self.name = name
        self.page_bytes = tlb_config.page_bytes
        self._page_shift = tlb_config.page_bytes.bit_length() - 1
        self.tlb = TwoLevelTlb(tlb_config, name=f"{name}.tlb")
        self.walker = PageTableWalker(page_table, ptw_config.cache_entries,
                                      name=f"{name}.ptw")
        self.translations = 0
        self.walks = 0

    def vpn_of(self, vaddr: int) -> int:
        return vaddr >> self._page_shift

    def physical_address(self, frame: int, vaddr: int) -> int:
        """Recombine a translated frame with the page offset."""
        offset = vaddr & (self.page_bytes - 1)
        return (frame << self._page_shift) | offset

    _NO_STEPS: Tuple = ()

    def translate_fast(
            self, vpn: int) -> Tuple[int, int, float, Sequence[WalkStep]]:
        """Allocation-free translation of a pre-decoded VPN.

        Returns ``(frame, tlb_level, tlb_latency_ns, walk_steps)``;
        ``walk_steps`` is empty on TLB hits and otherwise lists the
        page-table reads the caller must charge through the memory
        system.  Walks install the leaf translation into both TLB
        levels before returning, as hardware does.
        """
        self.translations += 1
        level, frame, latency = self.tlb.lookup_fast(vpn)
        if level:
            return frame, level, latency, self._NO_STEPS
        self.walks += 1
        walk = self.walker.walk(vpn)
        self.tlb.install(vpn, walk.frame)
        return walk.frame, 0, latency, walk.steps

    @hot_path
    def translate_after_l1_miss(
            self, vpn: int) -> Tuple[int, int, float, Sequence[WalkStep]]:
        """:meth:`translate_fast` continuation for callers that probed
        (and counted) the L1 TLB themselves — the functional pass of
        :mod:`repro.core.split`.  ``translations`` and the L1 hit/miss census
        are the caller's responsibility; everything downstream (L2,
        walker, installs) is accounted here identically.
        """
        tlb = self.tlb
        line = tlb.l2.get_line(vpn)
        if line is not None:
            frame = line[0]
            tlb.l1.fill_line(vpn, frame)
            return frame, 2, tlb._l2_latency_ns, self._NO_STEPS
        self.walks += 1
        walk = self.walker.walk(vpn)
        tlb.install(vpn, walk.frame)
        return walk.frame, 0, tlb._l2_latency_ns, walk.steps

    def shootdown(self, vpn: int) -> None:
        """Invalidate one page everywhere the MMU caches it."""
        self.tlb.invalidate(vpn)
        self.walker.invalidate()

    @property
    def walk_rate(self) -> float:
        """Fraction of translations that required a page walk."""
        return self.walks / self.translations if self.translations else 0.0
