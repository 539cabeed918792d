"""A compute node: core, caches, MMU, local DRAM, and the OS layer.

The node runs an aggregate memory-instruction trace through:

1. the **MMU** — TLB lookup, then a node page walk on a miss whose
   surviving steps are charged through the cache hierarchy and the
   memory path (page-table pages live in local DRAM or the FAM zone
   per the 20/80 placement policy, so walks can reach the FAM);
2. the **cache hierarchy** — inclusive L1/L2/L3;
3. the **memory path** — local DRAM for low node-physical addresses,
   or the architecture's FAM access procedure for the FAM zone.

The core model is an interval/outstanding-window hybrid: non-memory
instructions retire at ``cores x issue_width`` per cycle, on-chip cache
hits block briefly, LLC misses occupy one of ``max_outstanding`` slots
and stall the core only when the trace marks them dependent (pointer
chasing) or the window fills — reproducing memory-level parallelism
without cycle-accurate out-of-order simulation.

Production runs split this work in two (:mod:`repro.core.split`): a
*functional pass* drives only the node side — TLB, node walker,
caches, OS frame allocation — and records a compact per-event stream;
a *timing replay* then drives the outstanding window, local DRAM and
the architecture's FAM access procedure from that stream.  Node-side
state never depends on the architecture, so one stream serves every
architecture of a trace.  The per-event oracle,
:func:`repro.core.refpath.reference_step`, drives a node's components
directly; this class holds the node's state and OS layer and has no
per-event method of its own.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Tuple, TYPE_CHECKING

from repro.broker.broker import MemoryBroker
from repro.cache.hierarchy import CacheHierarchy
from repro.config.system import PAGE_BYTES, SystemConfig
from repro.fabric.network import FabricNetwork
from repro.mem.device import DramDevice, NvmDevice
from repro.pagetable.x86 import FourLevelPageTable, WeakFrameAllocator
from repro.sim.clock import Clock
from repro.sim.resource import OutstandingWindow
from repro.sim.stats import Stats
from repro.tlb.mmu import Mmu
from repro.translator.fam_translator import FamTranslator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.architectures import Architecture
    from repro.core.results import NodeMetrics
    from repro.core.split import NodeStream
    from repro.stu.stu import Stu
    from repro.workloads.trace import DecodedTrace

__all__ = ["Node"]


class Node:
    """One compute node attached to the fabric."""

    def __init__(self, node_id: int, config: SystemConfig,
                 broker: MemoryBroker, fabric: FabricNetwork,
                 fam: NvmDevice, architecture: "Architecture",
                 seed: int = 0) -> None:
        self.node_id = node_id
        self.config = config
        self.broker = broker
        self.fabric = fabric
        self.fam = fam
        self.architecture = architecture
        self.seed = seed
        self.name = f"node{node_id}"

        self.clock = Clock(config.core.frequency_ghz)
        self.caches = CacheHierarchy(config.l1, config.l2, config.l3,
                                     name=self.name)
        self.dram = DramDevice(config.local_memory,
                               name=f"{self.name}.dram")
        self.stats = Stats(self.name)
        # Counter dict hoisted off the per-access path (Stats.incr is
        # a call per counter bump; the dict add is not).
        self._stat_counters = self.stats._counters

        # --- node physical address map -------------------------------
        # [0, local_usable)            : local DRAM frames
        # [local_usable, local_size)   : FAM translation cache (DeACT)
        # [local_size, ...)            : the FAM NUMA zone
        tcache_bytes = (config.translation_cache.size_bytes
                        if architecture.uses_translator else 0)
        local_usable = config.local_memory.size_bytes - tcache_bytes
        self.fam_zone_base = config.local_memory.size_bytes
        self._local_frames_free = local_usable // PAGE_BYTES
        #: Local frames this node started with (the stream-reuse
        #: frame rule compares it, see repro.core.split).
        self.local_frame_capacity = self._local_frames_free
        #: Whether an allocation ever wanted a local frame and found
        #: none free (allocations then depend on the exact capacity).
        self.local_capped = False
        self._next_local_frame = 0
        self._next_fam_zone_page = self.fam_zone_base // PAGE_BYTES

        # --- OS layer -------------------------------------------------
        self._rng = random.Random(seed)
        # FAM-zone grants are recorded here instead of issued while a
        # functional pass runs (see repro.core.split): the pass must not
        # touch the broker, whose grant order the replay reproduces.
        self._pending_grants = None
        self.page_table = FourLevelPageTable(
            WeakFrameAllocator(self._allocate_os_frame),
            name=f"{self.name}.pt")
        # Mirror of the page table's mapped VPNs for the per-event
        # demand-paging check (O(1) vs a radix traversal).
        self._mapped_vpns = set()
        self.mmu = Mmu(self.page_table, config.tlb, config.ptw,
                       name=f"{self.name}.mmu")

        # --- DeACT attachments (populated per architecture) -----------
        self.fam_translator: Optional[FamTranslator] = None
        if architecture.uses_translator:
            self.fam_translator = FamTranslator(
                config.translation_cache, self.dram,
                region_base=local_usable, page_bytes=PAGE_BYTES,
                outstanding_capacity=config.fam.max_outstanding,
                name=f"{self.name}.translator", seed=seed)
        self.stu: Optional["Stu"] = None  # attached by FamSystem

        # --- core state -----------------------------------------------
        self.window = OutstandingWindow(config.core.max_outstanding,
                                        name=f"{self.name}.window")
        slots_per_cycle = config.core.issue_width * config.core.cores
        self._slot_ns = self.clock.period_ns / slots_per_cycle
        self.core_time_ns = 0.0
        self.instructions = 0
        self.memory_events = 0
        #: Whether any run has advanced this node (a stream memoized
        #: for a fresh node must not be reused on a warm one).
        self.has_run = False
        # A stream this node replayed without simulating its node side
        # (reused from the trace's memo): ``(decoded, stream)``.  Its
        # own TLB, walker, caches and page table stay cold until
        # :meth:`materialize` rebuilds them.
        self._adopted: Optional[Tuple["DecodedTrace", "NodeStream"]] = None

        # --- hot-path shift memoization -------------------------------
        # Page/block geometry is fixed per run, so the per-event address
        # arithmetic reduces to shifts/ors over pre-decoded trace
        # columns (see Trace.decoded and repro.core.split).
        self._page_shift = config.tlb.page_bytes.bit_length() - 1
        self._block_shift = self.caches.block_shift
        self._frame_block_shift = self._page_shift - self._block_shift

    # ------------------------------------------------------------------
    # OS: frame allocation and demand paging
    # ------------------------------------------------------------------
    def _allocate_os_frame(self) -> int:
        """Allocate a node-physical frame (byte address).

        Applies the paper's placement split: ``local_fraction`` of
        pages from node DRAM, the rest from the FAM zone (footnote 3:
        20 % local / 80 % FAM).  FAM-zone pages are backed by the
        broker immediately — the Opal grant that also installs the
        system-page-table entry and the ACM.
        """
        want_local = self._rng.random() < self.config.allocation.local_fraction
        if want_local:
            if self._local_frames_free > 0:
                frame = self._next_local_frame
                self._next_local_frame += 1
                self._local_frames_free -= 1
                self.stats.incr("frames.local")
                return frame * PAGE_BYTES
            self.local_capped = True
        node_page = self._next_fam_zone_page
        self._next_fam_zone_page += 1
        if self._pending_grants is None:
            self.broker.ensure_mapped(self.node_id, node_page)
        else:
            self._pending_grants.append(node_page)
        self.stats.incr("frames.fam")
        return node_page * PAGE_BYTES

    def _handle_page_fault(self, vpn: int) -> None:
        """First touch of a virtual page: allocate and map a frame."""
        frame_addr = self._allocate_os_frame()
        self.page_table.map(vpn, frame_addr // PAGE_BYTES)
        self._mapped_vpns.add(vpn)
        self.stats.incr("page_faults")

    # ------------------------------------------------------------------
    # Core timing
    # ------------------------------------------------------------------
    def drain(self) -> float:
        """Wait for all outstanding requests; returns final time."""
        self.core_time_ns = max(self.core_time_ns,
                                self.window.latest_completion())
        return self.core_time_ns

    # ------------------------------------------------------------------
    def node_side_probes(self) -> int:
        """Tag-store probes of the node side: data caches, both TLB
        levels and the node walker's walk caches."""
        probes = sum(cache.accesses for cache in self.caches.levels)
        probes += self.mmu.tlb.l1.accesses + self.mmu.tlb.l2.accesses
        return probes + self.mmu.walker.cache_probes

    def tag_store_probes(self) -> int:
        """Total tag-store probes this node issued (telemetry): the
        node side (:meth:`node_side_probes`, or the adopted stream's
        count), the STU organization and walk caches, and the in-DRAM
        translation cache."""
        if self._adopted is not None:
            probes = self._adopted[1].node_probes
        else:
            probes = self.node_side_probes()
        if self.stu is not None:
            if self.stu.organization is not None:
                probes += self.stu.organization.probes
            probes += self.stu.walker.cache_probes
        if self.fam_translator is not None:
            probes += self.fam_translator.cache.probes
        return probes

    # ------------------------------------------------------------------
    # Stream adoption (functional/timing split)
    # ------------------------------------------------------------------
    def adopt(self, decoded: "DecodedTrace", stream: "NodeStream") -> None:
        """Take ``stream``'s node-side outcome as this node's own.

        The node then reports node-side metrics from the stream's
        summary while its own structures stay cold.  Only a node that
        has never run may adopt a stream.
        """
        self._adopted = (decoded, stream)

    def materialize(self) -> None:
        """Rebuild the node-side state an adopted stream stands for.

        Re-runs the functional pass over the adopted trace on this
        node's own structures, with its FAM-zone grants discarded (the
        replay already issued them), so a later run continues from
        exactly the state the reference per-event loop would have
        left.
        """
        if self._adopted is None:
            return
        from repro.core.split import functional_pass  # avoid cycle

        decoded, _stream = self._adopted
        self._adopted = None
        functional_pass(self, decoded)

    def _counter_snapshot(self) -> Dict[str, float]:
        counters = self.stats.snapshot()
        if self._adopted is not None:
            for key, value in self._adopted[1].counters.items():
                counters[key] = counters.get(key, 0.0) + value
        return counters

    # ------------------------------------------------------------------
    def metrics(self) -> "NodeMetrics":
        """Snapshot the node's run outcome."""
        from repro.core.results import NodeMetrics

        end = max(self.core_time_ns, self.window.latest_completion())
        cycles = self.clock.ns_to_cycles(end)
        if self._adopted is not None:
            stream = self._adopted[1]
            llc_misses = stream.llc_misses
            tlb_hit_rate = stream.tlb_hit_rate
            node_walks = stream.node_walks
        else:
            llc_misses = self.caches.llc_miss_count()
            tlb_hit_rate = self.mmu.tlb.hit_rate
            node_walks = self.mmu.walks
        return NodeMetrics(
            node_id=self.node_id,
            instructions=self.instructions,
            memory_accesses=self.memory_events,
            cycles=cycles,
            runtime_ns=end,
            llc_misses=llc_misses,
            fam_data_accesses=int(self.stats.get("mem.fam_data")),
            tlb_hit_rate=tlb_hit_rate,
            node_walks=node_walks,
            translation_hit_rate=self.architecture.translation_hit_rate(self),
            acm_hit_rate=self.architecture.acm_hit_rate(self),
            counters=self._counter_snapshot(),
        )
