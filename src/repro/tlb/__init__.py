"""TLBs and the node memory-management unit.

* :mod:`repro.tlb.tlb` — a two-level TLB (Table II: 32-entry L1,
  256-entry L2).
* :mod:`repro.tlb.mmu` — the node MMU: TLB lookup, then a page walk
  through walk caches on a miss (the Samba-equivalent in our model).
"""

from repro.tlb.tlb import TwoLevelTlb
from repro.tlb.mmu import Mmu

__all__ = ["TwoLevelTlb", "Mmu"]
