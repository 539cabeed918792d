"""The seed per-event simulation path, kept as a frozen reference.

The production hot path (``Trace.decoded`` + the functional/timing
split of :mod:`repro.core.split` and the allocation-free probe entry
points underneath it) replaced the
seed implementation, which boxed every intermediate outcome into a
dataclass (``AccessResult`` per fill, ``TlbLookup`` per TLB probe,
``TranslationOutcome`` per translation, ``HierarchyResult`` per cache
access, ``TranslatorLookup`` / ``WalkTiming`` / ``VerificationResult``
per FAM access).  This module preserves that implementation verbatim,
the boxes included (the components' own probes return tuples; only
``AccessResult`` and ``VerificationResult`` back a component's boxed
API), operating on the *same* component instances, so the two paths
can be run against identical state.  It serves three purposes:

* the hot-path equivalence suite (``tests/test_hot_path_equivalence``)
  proves the reworked path produces **bit-identical** run stats;
* the core-loop microbenchmark (``benchmarks/test_bench_core_loop``)
  measures the rework's speedup against the true seed cost profile;
* the node and architecture unit tests drive single accesses through
  :func:`reference_access` and single events through
  :func:`reference_step` — :class:`~repro.core.node.Node` has no
  per-event method of its own, and the oracle is bit-identical to
  the production path, so what those tests pin holds for both.

Two deliberate departures from the seed, both accounting *bugfixes*
shipped in the same change and therefore part of the reference
semantics (otherwise the equivalence proof would enshrine the bugs):

* FIFO replace-in-place no longer refreshes insertion age
  (:meth:`~repro.cache.cache.SetAssociativeCache.fill_line`);
* random replacement draws the same ``_randbelow`` deviate whether the
  victim is picked by ``rng.choice(list(...))`` (here, as the seed
  did) or by ``rng.randrange`` + ``islice`` (production).

This module reaches into private attributes of the components it
mirrors (``_sets``, ``_rng``, ``_levels`` ...); that is intentional —
it is a white-box reference, not an API.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.cache.cache import AccessResult, SetAssociativeCache
from repro.cache.hierarchy import CacheHierarchy
from repro.config.system import PAGE_BYTES
from repro.core.architectures import EFam, IFam, _DeactBase
from repro.core.node import Node
from repro.errors import AccessViolationError, ProtocolError
from repro.mem.request import RequestKind
from repro.pagetable.walker import PageTableWalker, WalkResult, _BITS_PER_LEVEL
from repro.pagetable.x86 import WalkStep
from repro.stu.organizations import DeactWAcmCache
from repro.stu.stu import Stu, VerificationResult
from repro.tlb.mmu import Mmu
from repro.tlb.tlb import TwoLevelTlb
from repro.translator.fam_translator import _TAG_MATCH_NS, FamTranslator
from repro.workloads.trace import TraceEvent

__all__ = ["reference_access", "reference_step"]

_NO_WRITEBACKS: Tuple[int, ...] = ()


# ----------------------------------------------------------------------
# The seed's result boxes (one per probe; the fast path returns tuples)
# ----------------------------------------------------------------------
@dataclass
class HierarchyResult:
    """One cache-hierarchy access: ``level`` 1..3 for the level that
    hit, 0 for a full miss; ``latency_ns`` down to the serving level;
    ``writebacks`` the byte addresses of dirty LLC victims."""

    level: int
    latency_ns: float
    writebacks: Tuple[int, ...] = _NO_WRITEBACKS

    @property
    def hit(self) -> bool:
        return self.level != 0


@dataclass
class TlbLookup:
    """One TLB probe: ``level`` 1 or 2 on a hit (``frame`` valid), 0
    on a full miss."""

    level: int
    frame: Optional[int] = None
    latency_ns: float = 0.0

    @property
    def hit(self) -> bool:
        return self.level != 0


@dataclass
class TranslationOutcome:
    """One MMU translation: the frame, the TLB level that served it
    (0 when a walk was needed), the on-chip TLB latency, and the
    page-table reads the walk left for the memory system."""

    vpn: int
    frame: int
    tlb_level: int
    tlb_latency_ns: float = 0.0
    walk_steps: List[WalkStep] = field(default_factory=list)
    walk_cache_skips: int = 0


@dataclass
class TranslatorLookup:
    """One FAM-translator lookup; ``fam_page`` is ``None`` on a miss."""

    node_page: int
    fam_page: Optional[int]
    completion_ns: float

    @property
    def hit(self) -> bool:
        return self.fam_page is not None


@dataclass
class WalkTiming:
    """One system-page-table walk performed by the STU."""

    fam_page: int
    completion_ns: float
    memory_accesses: int
    skipped_levels: int


# The outstanding-mapping list needs request identities; the simulator
# processes one FAM access at a time per call, so a module-level
# monotonic id is race-free and keeps the list exercised end to end.
_request_counter = 0


def _fresh_request_id() -> int:
    global _request_counter
    _request_counter += 1
    return _request_counter


def _last_request_id() -> int:
    return _request_counter


# ----------------------------------------------------------------------
# Tag store (seed fill: one AccessResult per fill)
# ----------------------------------------------------------------------
def _ref_fill(cache: SetAssociativeCache, key: int, value,
              dirty: bool = False) -> AccessResult:
    lines = cache._sets[key % cache.n_sets]
    cache.fills += 1
    line = lines.get(key)
    if line is not None:
        line[0] = value
        line[1] = line[1] or dirty
        # Bugfix semantics: only FIFO skips the move (insertion age);
        # LRU and random keep the seed's unconditional move_to_end.
        if cache._promote_on_hit or cache._random_evict:
            lines.move_to_end(key)
        return AccessResult(hit=True, value=value)
    evicted_key = evicted_value = None
    evicted_dirty = False
    if len(lines) >= cache.associativity:
        if cache._random_evict:
            victim_key = cache._rng.choice(list(lines))
            victim = lines.pop(victim_key)
        else:
            victim_key, victim = lines.popitem(last=False)
        evicted_key, evicted_value = victim_key, victim[0]
        evicted_dirty = victim[1]
        cache.evictions += 1
    lines[key] = [value, dirty]
    return AccessResult(hit=False, value=value,
                        evicted_key=evicted_key,
                        evicted_value=evicted_value,
                        evicted_dirty=evicted_dirty)


# ----------------------------------------------------------------------
# Cache hierarchy (seed access: HierarchyResult + boxed fills)
# ----------------------------------------------------------------------
def _ref_hier_fill_all(hierarchy: CacheHierarchy, block: int,
                       write: bool) -> Tuple[int, ...]:
    writebacks: Tuple[int, ...] = _NO_WRITEBACKS
    l3_result = _ref_fill(hierarchy._l3, block, True, dirty=write)
    if l3_result.evicted_key is not None:
        evicted = l3_result.evicted_key
        hierarchy._l1.invalidate(evicted)
        hierarchy._l2.invalidate(evicted)
        if l3_result.evicted_dirty:
            writebacks = (evicted * hierarchy.block_bytes,)
    l2_result = _ref_fill(hierarchy._l2, block, True, dirty=write)
    if l2_result.evicted_key is not None and l2_result.evicted_dirty:
        _ref_fill(hierarchy._l3, l2_result.evicted_key, True, dirty=True)
    l1_result = _ref_fill(hierarchy._l1, block, True, dirty=write)
    if l1_result.evicted_key is not None and l1_result.evicted_dirty:
        _ref_fill(hierarchy._l2, l1_result.evicted_key, True, dirty=True)
    return writebacks


def _ref_hier_access(hierarchy: CacheHierarchy, addr: int,
                     write: bool) -> HierarchyResult:
    block = addr // hierarchy.block_bytes
    if hierarchy._l1.get_line(block, write) is not None:
        return HierarchyResult(1, hierarchy._lat1)
    if hierarchy._l2.get_line(block, write) is not None:
        _ref_fill(hierarchy._l1, block, True, dirty=write)
        return HierarchyResult(2, hierarchy._lat12)
    if hierarchy._l3.get_line(block, write) is not None:
        _ref_fill(hierarchy._l2, block, True, dirty=write)
        _ref_fill(hierarchy._l1, block, True, dirty=write)
        return HierarchyResult(3, hierarchy._lat123)
    writebacks = _ref_hier_fill_all(hierarchy, block, write)
    return HierarchyResult(0, hierarchy._lat123, writebacks)


# ----------------------------------------------------------------------
# TLB + walker + MMU (seed: TlbLookup / WalkResult / TranslationOutcome)
# ----------------------------------------------------------------------
def _ref_tlb_lookup(tlb: TwoLevelTlb, vpn: int) -> TlbLookup:
    line = tlb.l1.get_line(vpn)
    if line is not None:
        return TlbLookup(level=1, frame=line[0], latency_ns=0.0)
    line = tlb.l2.get_line(vpn)
    if line is not None:
        _ref_fill(tlb.l1, vpn, line[0])
        return TlbLookup(level=2, frame=line[0],
                         latency_ns=tlb.config.l2_latency_ns)
    return TlbLookup(level=0, latency_ns=tlb.config.l2_latency_ns)


def _ref_tlb_install(tlb: TwoLevelTlb, vpn: int, frame: int) -> None:
    _ref_fill(tlb.l2, vpn, frame)
    _ref_fill(tlb.l1, vpn, frame)


def _ref_walker_walk(walker: PageTableWalker, vpn: int) -> WalkResult:
    walker.walks += 1
    all_steps, entry = walker.table.walk_entries(vpn)
    skipped = 0
    if walker._levels:
        for depth in (3, 2, 1):
            key = vpn >> (_BITS_PER_LEVEL * (4 - depth))
            if walker._levels[depth - 1].cache.get_line(key) is not None:
                skipped = depth
                break
    needed = all_steps[skipped:]
    if walker._levels:
        for step in needed[:-1]:
            depth = step.level + 1
            key = vpn >> (_BITS_PER_LEVEL * (4 - depth))
            _ref_fill(walker._levels[depth - 1].cache, key, True)
    walker.memory_accesses += len(needed)
    entry.touch(write=False)
    return WalkResult(steps=needed, skipped_levels=skipped,
                      frame=entry.frame, entry_flags=entry.flags)


def _ref_mmu_translate(mmu: Mmu, vaddr: int) -> TranslationOutcome:
    mmu.translations += 1
    vpn = mmu.vpn_of(vaddr)
    lookup = _ref_tlb_lookup(mmu.tlb, vpn)
    if lookup.hit:
        assert lookup.frame is not None
        return TranslationOutcome(vpn=vpn, frame=lookup.frame,
                                  tlb_level=lookup.level,
                                  tlb_latency_ns=lookup.latency_ns)
    mmu.walks += 1
    walk = _ref_walker_walk(mmu.walker, vpn)
    _ref_tlb_install(mmu.tlb, vpn, walk.frame)
    return TranslationOutcome(vpn=vpn, frame=walk.frame, tlb_level=0,
                              tlb_latency_ns=lookup.latency_ns,
                              walk_steps=walk.steps,
                              walk_cache_skips=walk.skipped_levels)


# ----------------------------------------------------------------------
# FAM translator + STU (seed: boxed lookups, walks, verifications)
# ----------------------------------------------------------------------
def _ref_translator_lookup(translator: FamTranslator, node_page: int,
                           now: float) -> TranslatorLookup:
    served = translator.dram.access(translator.row_address(node_page), now,
                                    is_write=False,
                                    kind=RequestKind.NODE_PTW)
    t = served + _TAG_MATCH_NS
    fam_page = translator.cache.lookup(node_page)
    if fam_page is None:
        translator.stats.incr("misses")
    else:
        translator.stats.incr("hits")
    return TranslatorLookup(node_page=node_page, fam_page=fam_page,
                            completion_ns=t)


def _ref_translator_install(translator: FamTranslator, node_page: int,
                            fam_page: int, now: float) -> float:
    row = translator.row_address(node_page)
    read_done = translator.dram.access(row, now, is_write=False,
                                       kind=RequestKind.NODE_PTW)
    write_done = translator.dram.access(row, read_done, is_write=True,
                                        kind=RequestKind.NODE_PTW)
    _ref_fill(translator.cache._cache, node_page, fam_page)
    translator.cache.stats.incr("installs")
    translator.stats.incr("updates")
    return write_done


def _ref_stu_walk(stu: Stu, node_page: int, now: float) -> WalkTiming:
    result = _ref_walker_walk(stu.walker, node_page)
    t = now if now > stu._ptw_busy_until else stu._ptw_busy_until
    if t > now:
        stu.stats.incr("ptw_queue_time", t - now)
    for step in result.steps:
        depart = stu.fabric.stu_to_fam_arrival(t)
        served = stu.fam.access(step.entry_addr, depart, is_write=False,
                                kind=RequestKind.FAM_PTW,
                                node_id=stu.node_id)
        t = stu.fabric.fam_to_stu_arrival(served)
    stu._ptw_busy_until = t
    stu.stats.incr("walks")
    stu.stats.incr("walk_accesses", len(result.steps))
    return WalkTiming(fam_page=result.frame, completion_ns=t,
                      memory_accesses=len(result.steps),
                      skipped_levels=result.skipped_levels)


def _ref_stu_verify(stu: Stu, fam_addr: int, now: float,
                    needed, enforce: bool = True) -> VerificationResult:
    layout = stu.acm_store.layout
    fam_page = layout.page_number(fam_addr)
    t = now + stu.config.lookup_ns
    organization = stu.organization
    acm_hit = organization.lookup(fam_page)
    if acm_hit:
        stu.stats.incr("acm.hits")
    else:
        stu.stats.incr("acm.misses")
        block_addr = layout.acm_block_addr(fam_addr)
        depart = stu.fabric.stu_to_fam_arrival(t)
        served = stu.fam.access(block_addr, depart, is_write=False,
                                kind=RequestKind.ACM, node_id=stu.node_id)
        t = stu.fabric.fam_to_stu_arrival(served)
        if isinstance(organization, DeactWAcmCache):
            _ref_fill(organization._cache,
                      organization._group(fam_page), True)
        else:
            _ref_fill(organization._cache, fam_page, True)
    allowed, consulted_bitmap = stu.acm_store.check(stu.node_id, fam_addr,
                                                    needed)
    if consulted_bitmap:
        bitmap_addr = layout.bitmap_block_addr(fam_addr, stu.node_id)
        depart = stu.fabric.stu_to_fam_arrival(t)
        served = stu.fam.access(bitmap_addr, depart, is_write=False,
                                kind=RequestKind.ACM, node_id=stu.node_id)
        t = stu.fabric.fam_to_stu_arrival(served)
        stu.stats.incr("bitmap_fetches")
    if not allowed:
        stu.stats.incr("violations")
        if enforce:
            raise AccessViolationError(
                f"{stu.name}: node {stu.node_id} denied {needed!r} "
                f"at FAM {fam_addr:#x}",
                node_id=stu.node_id, fam_addr=fam_addr)
    return VerificationResult(allowed=allowed, completion_ns=t,
                              acm_hit=acm_hit,
                              bitmap_fetched=consulted_bitmap)


def _ref_ifam_translate(stu: Stu, node_page: int,
                        now: float) -> Tuple[int, float, bool]:
    t = now + stu.config.lookup_ns
    fam_page = stu.organization.lookup(node_page)
    if fam_page is not None:
        stu.stats.incr("mapping.hits")
        return fam_page, t, True
    stu.stats.incr("mapping.misses")
    walk = _ref_stu_walk(stu, node_page, t)
    _ref_fill(stu.organization._cache, node_page, walk.fam_page)
    return walk.fam_page, walk.completion_ns, False


# ----------------------------------------------------------------------
# Architecture access procedures (seed bodies)
# ----------------------------------------------------------------------
def _ref_fam_access(node: Node, npa: int, now: float, is_write: bool,
                    kind: RequestKind) -> float:
    architecture = node.architecture
    if isinstance(architecture, EFam):
        fam_addr = architecture._fam_address(node, npa)
        depart = node.fabric.node_to_fam_arrival(now)
        served = node.fam.access(fam_addr, depart, is_write=is_write,
                                 kind=kind, node_id=node.node_id)
        if is_write:
            return served
        return node.fabric.fam_to_node_arrival(served)

    if isinstance(architecture, IFam):
        if node.stu is None:
            raise ProtocolError("I-FAM node has no STU attached")
        node_page = npa // PAGE_BYTES
        t = node.fabric.node_to_stu_arrival(now)
        fam_page, t, hit = _ref_ifam_translate(node.stu, node_page, t)
        node.stats.incr("stu.translation_hits" if hit
                        else "stu.translation_misses")
        fam_addr = fam_page * PAGE_BYTES + (npa % PAGE_BYTES)
        node.broker.acm.verify(node.node_id, fam_addr,
                               architecture._needed_permission(is_write))
        depart = node.fabric.stu_to_fam_arrival(t)
        served = node.fam.access(fam_addr, depart, is_write=is_write,
                                 kind=kind, node_id=node.node_id)
        if is_write:
            return served
        return node.fabric.fam_to_node_arrival(served)

    if not isinstance(architecture, _DeactBase):
        raise ProtocolError(
            f"reference path: unknown architecture {architecture!r}")
    if node.stu is None or node.fam_translator is None:
        raise ProtocolError("DeACT node missing STU or FAM translator")
    translator = node.fam_translator
    node_page = npa // PAGE_BYTES
    offset = npa % PAGE_BYTES
    needed = architecture._needed_permission(is_write)
    skip_verification = (node.stu.config.encrypted_memory_mode
                         and not is_write)
    lookup = _ref_translator_lookup(translator, node_page, now)
    if lookup.hit:
        fam_addr = lookup.fam_page * PAGE_BYTES + offset
        if not is_write:
            translator.register_response_mapping(
                _fresh_request_id(), fam_addr, npa)
        t = node.fabric.node_to_stu_arrival(lookup.completion_ns)
        if skip_verification:
            node.stats.incr("stu.reads_unverified")
        else:
            verification = _ref_stu_verify(node.stu, fam_addr, t,
                                           needed=needed)
            t = verification.completion_ns
    else:
        t = node.fabric.node_to_stu_arrival(lookup.completion_ns)
        walk = _ref_stu_walk(node.stu, node_page, t)
        fam_addr = walk.fam_page * PAGE_BYTES + offset
        if skip_verification:
            node.stats.incr("stu.reads_unverified")
            t = walk.completion_ns
        else:
            verification = _ref_stu_verify(node.stu, fam_addr,
                                           walk.completion_ns,
                                           needed=needed)
            t = verification.completion_ns
        mapping_at_node = node.fabric.stu_to_node_arrival(t)
        _ref_translator_install(translator, node_page, walk.fam_page,
                                mapping_at_node)
        if not is_write:
            translator.register_response_mapping(
                _fresh_request_id(), fam_addr, npa)
    depart = node.fabric.stu_to_fam_arrival(t)
    served = node.fam.access(fam_addr, depart, is_write=is_write,
                             kind=kind, node_id=node.node_id)
    if is_write:
        return served
    arrival = node.fabric.fam_to_node_arrival(served)
    translator.outstanding.resolve(_last_request_id())
    return arrival


# ----------------------------------------------------------------------
# Node memory path + per-event step (seed bodies)
# ----------------------------------------------------------------------
def _ref_memory_access(node: Node, npa: int, now: float, is_write: bool,
                       kind: RequestKind) -> float:
    if npa < node.fam_zone_base:
        node.stats.incr("mem.local")
        return node.dram.access(npa, now, is_write=is_write, kind=kind)
    node.stats.incr("mem.fam")
    if kind == RequestKind.DATA:
        node.stats.incr("mem.fam_data")
    return _ref_fam_access(node, npa, now, is_write, kind)


def _ref_cached_access(node: Node, npa: int, now: float, is_write: bool,
                       kind: RequestKind) -> Tuple[float, int]:
    result = _ref_hier_access(node.caches, npa, is_write)
    t = now + result.latency_ns
    for wb_addr in result.writebacks:
        _ref_memory_access(node, wb_addr, t, True, RequestKind.WRITEBACK)
    if result.hit:
        return t, result.level
    return _ref_memory_access(node, npa, t, is_write, kind), 0


def reference_access(node: Node, vaddr: int, is_write: bool,
                     now: float) -> Tuple[float, int]:
    """One virtual-address access by ``node`` issued at ``now``:
    demand paging, translation (walk reads charged through the caches
    and memory path), then the data reference.

    Returns ``(completion_ns, level)`` with ``level`` 1..3 for an
    on-chip hit and 0 when memory served the data.  Core time and the
    outstanding window are not touched (see :func:`reference_step`).
    """
    vpn = node.mmu.vpn_of(vaddr)
    if vpn not in node._mapped_vpns:
        node._handle_page_fault(vpn)
    outcome = _ref_mmu_translate(node.mmu, vaddr)
    t = now + outcome.tlb_latency_ns
    for step in outcome.walk_steps:
        t, _level = _ref_cached_access(node, step.entry_addr, t, False,
                                       RequestKind.NODE_PTW)
    npa = node.mmu.physical_address(outcome.frame, vaddr)
    return _ref_cached_access(node, npa, t, is_write, RequestKind.DATA)


def reference_step(node: Node, event: TraceEvent) -> float:
    """Advance ``node`` over one event through the seed path."""
    gap, vaddr, is_write, dependent = event
    node.instructions += gap + 1
    node.memory_events += 1
    node.core_time_ns += gap * node._slot_ns

    issue = node.window.admit(node.core_time_ns)
    completion, level = reference_access(node, vaddr, is_write, issue)
    if level:
        node.core_time_ns = completion
    else:
        node.window.record(completion)
        if dependent and not is_write:
            node.core_time_ns = max(node.core_time_ns, completion)
        else:
            node.core_time_ns = max(node.core_time_ns,
                                    issue + node._slot_ns)
    return node.core_time_ns
