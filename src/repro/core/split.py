"""The functional/timing split: simulate a node's side once per trace,
replay only the FAM-side timing per architecture.

The paper's four architectures (Table I) differ only in how an LLC
miss to the FAM zone crosses the fabric.  Everything on the node side —
TLB, node page walker, L1/L2/L3 tag stores, OS frame allocation — is a
pure function of the trace and the node-side configuration, so a run
splits into two halves:

* :func:`functional_pass` drives only the node side over a decoded
  trace and records what happened per event in a columnar
  :class:`NodeStream`: one code byte per event (TLB level, data-cache
  level, write-back and grant flags, walk length), one byte per
  surviving walk step, and the addresses of misses and write-backs
  only where they occur.  It makes no call to the fabric, STU,
  translator, NVM, DRAM or broker; FAM-zone grants are recorded at
  their event instead of issued.
* :func:`replay` drives the outstanding window, local DRAM, the
  architecture's :meth:`~repro.core.architectures.Architecture
  .fam_access_fast` and the broker grants from that stream.

:class:`~repro.core.system.FamSystem` memoizes each stream on its
:class:`~repro.workloads.trace.Trace` under :func:`stream_key`, so every
later job on the same trace and node-side configuration replays
instead of re-simulating.  Two rules keep that exact:

* **Reuse key.**  Node id, node seed and every field named in
  :data:`NODE_SIDE_FIELDS`.  Fields in :data:`FAM_SIDE_FIELDS` are read
  only by the replay.  The DeACT translation-cache carve-out
  (:data:`LOCAL_FRAME_FIELDS`) changes only how many local frames are
  free, so a stream is reused only where :meth:`NodeStream.fits` shows
  the consuming node's capacity yields the same allocations.
* **Float order.**  The replay adds latencies one at a time in the
  order the per-event reference loop does — issue, TLB latency, each
  walk step's cache latency or memory completion, then the data
  access — because summing them first changes the results.

``docs/functional-timing-split.md`` states the invariants in full.
"""

from __future__ import annotations

from array import array
from heapq import heapify, heappop, heappush
from typing import Dict, Generator, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.core.hotpath import hot_path
from repro.mem.request import RequestKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.config.system import SystemConfig
    from repro.core.node import Node
    from repro.workloads.trace import DecodedTrace

__all__ = [
    "NodeStream",
    "functional_pass",
    "replay",
    "run_replays",
    "stream_key",
    "NODE_SIDE_FIELDS",
    "LOCAL_FRAME_FIELDS",
    "FAM_SIDE_FIELDS",
]

# ----------------------------------------------------------------------
# Stream encoding
# ----------------------------------------------------------------------
#: Code byte, bits 0-1: TLB level (1 or 2 on a hit, 0 after a walk).
TLB_MASK = 0x03
#: Bits 2-3: data-cache level that served the access (0 on an LLC miss).
DATA_SHIFT = 2
#: Bit 4: the data access evicted a dirty LLC line (one write-back).
DATA_WRITEBACK = 0x10
#: Bit 5: the event's page fault granted FAM-zone pages.
GRANT = 0x20
#: Bits 6-7: surviving walk steps minus one (walks always read the PTE).
WALK_SHIFT = 6
#: Walk-step byte, bits 0-1: cache level (0 on a miss); bit 2: the
#: step evicted a dirty LLC line.
STEP_LEVEL = 0x03
STEP_WRITEBACK = 0x04

_KIND_DATA = RequestKind.DATA
_KIND_NODE_PTW = RequestKind.NODE_PTW
_KIND_WRITEBACK = RequestKind.WRITEBACK
_INF = float("inf")

# ----------------------------------------------------------------------
# Reuse key
# ----------------------------------------------------------------------
#: ``SystemConfig`` fields the functional pass reads (dotted paths).
#: Cache and TLB latencies are not among them: the stream records the
#: level that served each access and the replay charges its latency.
NODE_SIDE_FIELDS: Tuple[str, ...] = (
    "l1.name", "l1.size_bytes", "l1.associativity", "l1.block_bytes",
    "l1.replacement",
    "l2.name", "l2.size_bytes", "l2.associativity", "l2.block_bytes",
    "l2.replacement",
    "l3.name", "l3.size_bytes", "l3.associativity", "l3.block_bytes",
    "l3.replacement",
    "tlb.l1_entries", "tlb.l2_entries", "tlb.l1_associativity",
    "tlb.l2_associativity", "tlb.page_bytes",
    "ptw.cache_entries",
    # The FAM zone starts at the end of local memory, so its size fixes
    # every FAM-zone node-physical address.
    "local_memory.size_bytes",
    "allocation.local_fraction",
)

#: Fields that change only how many local frames a node has free; a
#: stream is reused across them under the frame rule
#: (:meth:`NodeStream.fits`), not by key.
LOCAL_FRAME_FIELDS: Tuple[str, ...] = (
    "translation_cache.size_bytes",
)

#: Fields only the timing replay reads: core timing, latencies, the
#: fabric, STU, translator, FAM device, broker and the node count.
FAM_SIDE_FIELDS: Tuple[str, ...] = (
    "nodes",
    "core.cores", "core.frequency_ghz", "core.issue_width",
    "core.max_outstanding",
    "l1.latency_ns", "l2.latency_ns", "l3.latency_ns",
    "tlb.l2_latency_ns",
    "ptw.lookup_ns",
    "local_memory.access_ns", "local_memory.banks",
    "local_memory.interleave_bytes",
    "fam.capacity_bytes", "fam.read_ns", "fam.write_ns", "fam.banks",
    "fam.max_outstanding", "fam.interleave_bytes",
    "fabric.node_to_stu_ns", "fabric.stu_to_fam_ns",
    "fabric.port_occupancy_ns",
    "stu.entries", "stu.associativity", "stu.lookup_ns", "stu.acm_bits",
    "stu.encrypted_memory_mode", "stu.walk_cache_entries",
    "stu.subways_per_way",
    "translation_cache.associativity", "translation_cache.entry_bytes",
    "translation_cache.replacement",
    "allocation.fam_policy", "allocation.seed",
)


def _field(config: "SystemConfig", path: str) -> object:
    value: object = config
    for part in path.split("."):
        value = getattr(value, part)
    return value


def stream_key(node: "Node") -> Tuple:
    """The memo key of ``node``'s stream on a trace: node id, node
    seed and the node-side configuration."""
    config = node.config
    return (node.node_id, node.seed,
            tuple(_field(config, path) for path in NODE_SIDE_FIELDS))


# ----------------------------------------------------------------------
# The stream
# ----------------------------------------------------------------------
class NodeStream:
    """One node's functional-pass record over one trace.

    Columns (consumed in order by :func:`replay`):

    ``codes``
        one byte per event (see the ``*_SHIFT``/``*_MASK`` constants);
    ``steps``
        one byte per surviving walk step of every walking event;
    ``addrs``
        node-physical byte addresses, only where an access leaves the
        caches: a write-back address before the miss address of the
        same access;
    ``grant_counts`` / ``grant_pages``
        per granting event, how many FAM-zone node pages its page
        fault allocated, and those pages in allocation order.

    The summary fields are the node-side metrics the run would report
    (they stand in for the cold structures of a node that adopts the
    stream), and the allocation record the frame rule checks.
    """

    __slots__ = ("codes", "steps", "addrs", "grant_counts", "grant_pages",
                 "local_frame_capacity", "local_frames_used",
                 "local_capped", "llc_misses", "tlb_hit_rate",
                 "node_walks", "node_probes", "counters")

    def __init__(self) -> None:
        self.codes = bytearray()
        self.steps = bytearray()
        self.addrs = array("q")
        self.grant_counts = bytearray()
        self.grant_pages = array("q")
        self.local_frame_capacity = 0
        self.local_frames_used = 0
        self.local_capped = False
        self.llc_misses = 0
        self.tlb_hit_rate = 0.0
        self.node_walks = 0
        self.node_probes = 0
        self.counters: Dict[str, float] = {}

    def __len__(self) -> int:
        return len(self.codes)

    @property
    def nbytes(self) -> int:
        """Bytes held by the stream's columns."""
        return (len(self.codes) + len(self.steps) + len(self.grant_counts)
                + self.addrs.itemsize * len(self.addrs)
                + self.grant_pages.itemsize * len(self.grant_pages))

    def columns(self) -> Tuple[bytes, bytes, bytes, bytes, bytes]:
        """The columns as bytes (for identity checks)."""
        return (bytes(self.codes), bytes(self.steps),
                self.addrs.tobytes(), bytes(self.grant_counts),
                self.grant_pages.tobytes())

    def fits(self, node: "Node") -> bool:
        """The frame rule: whether ``node``'s local capacity gives the
        same frame allocations this stream recorded.

        Equal capacity always does.  A larger or smaller capacity does
        when the recorded pass never found the local frames exhausted
        and ``node`` has at least as many as the pass used.
        """
        capacity = node.local_frame_capacity
        if capacity == self.local_frame_capacity:
            return True
        return (not self.local_capped
                and capacity >= self.local_frames_used)


# ----------------------------------------------------------------------
# Functional pass
# ----------------------------------------------------------------------
def functional_pass(node: "Node", decoded: "DecodedTrace") -> NodeStream:
    """Run ``decoded`` through ``node``'s side only; return its stream.

    Mutates the node's TLB, walker, caches, page table, frame
    allocator and node-side counters exactly as the per-event
    reference loop would; FAM-zone grants go into the stream instead
    of to the broker.
    """
    stream = NodeStream()
    stream.local_frame_capacity = node.local_frame_capacity
    before = node.stats.snapshot()
    node._pending_grants = stream.grant_pages
    try:
        _functional_loop(node, decoded, stream)
    finally:
        node._pending_grants = None
    stream.local_frames_used = node._next_local_frame
    stream.local_capped = node.local_capped
    stream.llc_misses = node.caches.llc_miss_count()
    stream.tlb_hit_rate = node.mmu.tlb.hit_rate
    stream.node_walks = node.mmu.walks
    stream.node_probes = node.node_side_probes()
    for key, value in node.stats.snapshot().items():
        delta = value - before.get(key, 0.0)
        if delta:
            stream.counters[key] = delta
    return stream


@hot_path
def _functional_loop(node: "Node", decoded: "DecodedTrace",
                     stream: NodeStream) -> None:
    """The node-side half of the per-event loop: the L1 TLB and L1
    data probes inlined, everything past them through the MMU and
    hierarchy continuations, outcomes appended to ``stream``."""
    codes = stream.codes
    append_code = codes.append
    append_step = stream.steps.append
    append_addr = stream.addrs.append
    grant_pages = stream.grant_pages
    append_grant_count = stream.grant_counts.append
    mmu = node.mmu
    translate_l1_missed = mmu.translate_after_l1_miss
    tlb_l1 = mmu.tlb.l1
    tlb_l1_sets = tlb_l1._sets
    tlb_l1_mask = tlb_l1._mask
    tlb_l1_n_sets = tlb_l1.n_sets
    caches = node.caches
    cache_access = caches.access_fast
    hier_l1_missed = caches.access_after_l1_miss
    data_l1 = caches._l1
    data_l1_sets = data_l1._sets
    data_l1_mask = data_l1._mask
    data_l1_n_sets = data_l1.n_sets
    data_l1_promote = data_l1._promote_on_hit
    mapped_vpns = node._mapped_vpns
    page_fault = node._handle_page_fault
    block_shift = node._block_shift
    frame_block_shift = node._frame_block_shift
    page_shift = node._page_shift
    translations = 0
    tlb_l1_hits = 0
    data_l1_hits = 0
    try:
        for vpn, offset, blk, is_write in zip(decoded.vpns, decoded.offsets,
                                              decoded.blocks, decoded.writes):
            code = 0
            if vpn not in mapped_vpns:
                granted = len(grant_pages)
                page_fault(vpn)
                granted = len(grant_pages) - granted
                if granted:
                    code = GRANT
                    append_grant_count(granted)

            # --- translate: L1 TLB probe inlined (always LRU) --------
            translations += 1
            lines = tlb_l1_sets[vpn & tlb_l1_mask if tlb_l1_mask >= 0
                                else vpn % tlb_l1_n_sets]
            line = lines.get(vpn)
            if line is not None:
                tlb_l1_hits += 1
                lines.move_to_end(vpn)
                frame = line[0]
                code |= 1
            else:
                tlb_l1.misses += 1
                frame, tlb_level, _latency, walk_steps = \
                    translate_l1_missed(vpn)
                if tlb_level:
                    code |= tlb_level
                else:
                    code |= (len(walk_steps) - 1) << WALK_SHIFT
                    for step in walk_steps:
                        addr = step[1]  # WalkStep.entry_addr
                        level, _latency, writebacks = cache_access(
                            addr >> block_shift, False)
                        if writebacks:
                            # An access evicts at most one LLC line.
                            append_addr(writebacks[0])
                            level |= STEP_WRITEBACK
                        if not level & STEP_LEVEL:
                            append_addr(addr)
                        append_step(level)

            # --- data reference: L1 cache probe inlined --------------
            block = (frame << frame_block_shift) | blk
            lines = data_l1_sets[block & data_l1_mask if data_l1_mask >= 0
                                 else block % data_l1_n_sets]
            line = lines.get(block)
            if line is not None:
                data_l1_hits += 1
                if is_write:
                    line[1] = True
                if data_l1_promote:
                    lines.move_to_end(block)
                append_code(code | 1 << DATA_SHIFT)
                continue
            data_l1.misses += 1
            level, _latency, writebacks = hier_l1_missed(block, is_write)
            code |= level << DATA_SHIFT
            if writebacks:
                append_addr(writebacks[0])
                code |= DATA_WRITEBACK
            if not level:
                append_addr((frame << page_shift) | offset)
            append_code(code)
    finally:
        mmu.translations += translations
        tlb_l1.hits += tlb_l1_hits
        data_l1.hits += data_l1_hits


# ----------------------------------------------------------------------
# Timing replay
# ----------------------------------------------------------------------
@hot_path
def replay(node: "Node", decoded: "DecodedTrace", stream: NodeStream,
           ) -> Generator[float, Tuple[float, bool], None]:
    """Drive ``node``'s timing side from ``stream`` (a generator).

    Prime it with ``next()``, then ``send((limit, ties_win))``: it
    replays events until the node's core time passes ``limit`` — or
    reaches it, unless ``ties_win`` (the node's index is lower than the
    index of the node holding ``limit``) — and yields the core time.
    That is exactly the order in which the multi-node heap driver
    would pop this node; a single node sends ``(inf, True)`` and runs
    to the end.  Broker grants are issued at the event that recorded
    them, before the event's first memory access.

    The core's outstanding window (``OutstandingWindow.admit`` /
    ``record``) and the LLC-miss routing (local DRAM below
    ``fam_zone_base``, else the architecture's FAM procedure) are
    inlined; every call into a component — ``DramDevice.access``, the
    architecture's ``fam_access_fast``, ``MemoryBroker.ensure_mapped``
    — stays a real call, once per operation.
    """
    window = node.window
    heap = window._completions
    capacity = window.capacity
    counters = node._stat_counters
    fam_zone_base = node.fam_zone_base
    dram_access = node.dram.access
    fam_access = node.architecture.fam_access_fast
    ensure_mapped = node.broker.ensure_mapped
    node_id = node.node_id
    grant_counts = stream.grant_counts
    grant_pages = stream.grant_pages
    steps = stream.steps
    addrs = stream.addrs
    lat1 = node.caches._lat1
    lat12 = node.caches._lat12
    lat123 = node.caches._lat123
    step_latency = (lat123, lat1, lat12, lat123)
    tlb_latency = node.mmu.tlb._l2_latency_ns
    slot_ns = node._slot_ns
    core_time = node.core_time_ns
    instructions = node.instructions
    events = node.memory_events
    admissions = 0
    grant_index = 0
    page_index = 0
    step_index = 0
    addr_index = 0
    limit, ties_win = yield core_time
    try:
        for gap, is_write, dependent, code in zip(
                decoded.gaps, decoded.writes, decoded.dependents,
                stream.codes):
            events += 1
            instructions += gap + 1
            core_time += gap * slot_ns
            # --- issue: retire finished requests, wait while full ----
            while heap and heap[0] <= core_time:
                heappop(heap)
            issue = core_time
            while len(heap) >= capacity:
                earliest = heappop(heap)
                if earliest > issue:
                    window.stall_time += earliest - issue
                    issue = earliest
            admissions += 1
            if code & GRANT:
                last = page_index + grant_counts[grant_index]
                grant_index += 1
                while page_index < last:
                    ensure_mapped(node_id, grant_pages[page_index])
                    page_index += 1

            # --- translation latency and surviving walk steps --------
            if code & TLB_MASK == 1:
                t = issue
            else:
                t = issue + tlb_latency
                if not code & TLB_MASK:
                    for _ in range((code >> WALK_SHIFT) + 1):
                        step = steps[step_index]
                        step_index += 1
                        t += step_latency[step & STEP_LEVEL]
                        if step & STEP_WRITEBACK:
                            npa = addrs[addr_index]
                            addr_index += 1
                            if npa < fam_zone_base:
                                counters["mem.local"] += 1.0
                                dram_access(npa, t, True, _KIND_WRITEBACK)
                            else:
                                counters["mem.fam"] += 1.0
                                fam_access(node, npa, t, True,
                                           _KIND_WRITEBACK)
                        if not step & STEP_LEVEL:
                            npa = addrs[addr_index]
                            addr_index += 1
                            if npa < fam_zone_base:
                                counters["mem.local"] += 1.0
                                t = dram_access(npa, t, False,
                                                _KIND_NODE_PTW)
                            else:
                                counters["mem.fam"] += 1.0
                                t = fam_access(node, npa, t, False,
                                               _KIND_NODE_PTW)

            # --- data access and retire ------------------------------
            level = (code >> DATA_SHIFT) & 3
            if level == 1:
                core_time = t + lat1
            else:
                t += step_latency[level]
                if code & DATA_WRITEBACK:
                    npa = addrs[addr_index]
                    addr_index += 1
                    if npa < fam_zone_base:
                        counters["mem.local"] += 1.0
                        dram_access(npa, t, True, _KIND_WRITEBACK)
                    else:
                        counters["mem.fam"] += 1.0
                        fam_access(node, npa, t, True, _KIND_WRITEBACK)
                if level:
                    core_time = t
                else:
                    npa = addrs[addr_index]
                    addr_index += 1
                    if npa < fam_zone_base:
                        counters["mem.local"] += 1.0
                        completion = dram_access(npa, t, is_write,
                                                 _KIND_DATA)
                    else:
                        counters["mem.fam"] += 1.0
                        counters["mem.fam_data"] += 1.0
                        completion = fam_access(node, npa, t, is_write,
                                                _KIND_DATA)
                    heappush(heap, completion)
                    if dependent and not is_write:
                        if completion > core_time:
                            core_time = completion
                    else:
                        floor = issue + slot_ns
                        if floor > core_time:
                            core_time = floor
            if core_time >= limit and (core_time > limit or not ties_win):
                node.core_time_ns = core_time
                node.instructions = instructions
                node.memory_events = events
                window.admissions += admissions
                admissions = 0
                limit, ties_win = yield core_time
    finally:
        node.core_time_ns = core_time
        node.instructions = instructions
        node.memory_events = events
        window.admissions += admissions


def run_replays(nodes: Sequence["Node"],
                replays: Sequence[Optional[Generator]]) -> None:
    """Drive primed :func:`replay` generators in global core-time order.

    ``replays[i]`` belongs to ``nodes[i]`` (``None`` for a node with an
    empty trace).  Each heap pop lets one node run until it would no
    longer be the next one popped, so the order of every shared
    fabric, FAM-bank and broker access matches the per-event driver.
    """
    frontier = [(nodes[index].core_time_ns, index)
                for index in range(len(nodes)) if replays[index] is not None]
    heapify(frontier)
    while frontier:
        _t, index = heappop(frontier)
        if frontier:
            limit, other = frontier[0]
            ties_win = index < other
        else:
            limit, ties_win = _INF, True
        try:
            node_time = replays[index].send((limit, ties_win))
        except StopIteration:
            continue
        heappush(frontier, (node_time, index))
