"""The paper's contribution: DeACT and its baselines, wired into nodes.

* :mod:`repro.core.node` — a compute node: core timing model, cache
  hierarchy, MMU + node page table, local DRAM, OS page placement
  (20 % local / 80 % FAM), and the per-architecture FAM access path.
* :mod:`repro.core.architectures` — the four virtual-memory schemes:
  E-FAM, I-FAM, DeACT-W, DeACT-N (Table I).
* :mod:`repro.core.system` — builds a whole system (nodes + broker +
  fabric + FAM) and runs workload traces through it in global time
  order.
* :mod:`repro.core.split` — the functional/timing split the default
  run mode uses: each node's side simulated once per trace, the
  FAM-side timing replayed per architecture.
* :mod:`repro.core.refpath` — the seed per-event loop, kept as the
  reference oracle.
* :mod:`repro.core.results` — run metrics and comparison helpers.
"""

from repro.core.architectures import (
    ARCHITECTURES,
    Architecture,
    DeactN,
    DeactW,
    EFam,
    IFam,
    make_architecture,
)
from repro.core.node import Node
from repro.core.results import NodeMetrics, RunResult
from repro.core.system import FamSystem

__all__ = [
    "Architecture",
    "EFam",
    "IFam",
    "DeactW",
    "DeactN",
    "ARCHITECTURES",
    "make_architecture",
    "Node",
    "FamSystem",
    "NodeMetrics",
    "RunResult",
]
