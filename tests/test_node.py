"""Tests for the compute node model.

Single accesses and single events drive a node through the reference
oracle (:func:`reference_access`, :func:`reference_step`), which is
bit-identical to the production path; :class:`TestCoreTimingFastPath`
pins the same core-timing properties on the production path itself,
through ``FamSystem.run``.
"""

import pytest

from repro.config.presets import small_config
from repro.config.system import PAGE_BYTES
from repro.core.refpath import reference_access, reference_step
from repro.core.system import FamSystem
from repro.workloads.trace import Trace, TraceEvent


def make_node(architecture="e-fam", nodes=1, local_fraction=0.2):
    from dataclasses import replace
    config = small_config(nodes=nodes)
    config = config.replace(
        allocation=replace(config.allocation,
                           local_fraction=local_fraction))
    system = FamSystem(config, architecture, seed=42)
    return system.nodes[0], system


class TestDemandPaging:
    def test_first_touch_maps_page(self):
        node, _system = make_node()
        reference_access(node, 0x5000_0000, False, 0.0)
        vpn = 0x5000_0000 // PAGE_BYTES
        assert node.page_table.lookup(vpn) is not None
        assert node.stats.get("page_faults") == 1

    def test_second_touch_no_fault(self):
        node, _system = make_node()
        reference_access(node, 0x5000_0000, False, 0.0)
        reference_access(node, 0x5000_0040, False, 0.0)
        assert node.stats.get("page_faults") == 1

    def test_placement_split(self):
        """With local_fraction=1.0 every frame is local DRAM."""
        node, _system = make_node(local_fraction=1.0)
        for page in range(20):
            reference_access(node, 0x5000_0000 + page * PAGE_BYTES, False, 0.0)
        assert node.stats.get("frames.fam") == 0
        assert node.stats.get("frames.local") > 0

    def test_zero_local_fraction_goes_to_fam(self):
        node, _system = make_node(local_fraction=0.0)
        for page in range(20):
            reference_access(node, 0x5000_0000 + page * PAGE_BYTES, False, 0.0)
        assert node.stats.get("frames.local") == 0
        assert node.stats.get("frames.fam") >= 20  # data + PT pages

    def test_fam_zone_pages_broker_backed(self):
        node, system = make_node(local_fraction=0.0)
        reference_access(node, 0x5000_0000, False, 0.0)
        vpn = 0x5000_0000 // PAGE_BYTES
        frame = node.page_table.lookup(vpn).frame
        node_page = frame  # frame number == node page number
        assert system.broker.translate(0, node_page) is not None


class TestAddressMap:
    def test_fam_zone_starts_after_local(self):
        node, _system = make_node()
        assert node.fam_zone_base == node.config.local_memory.size_bytes

    def test_deact_reserves_translation_cache_region(self):
        node, _system = make_node("deact-n")
        tcache_bytes = node.config.translation_cache.size_bytes
        expected_base = node.config.local_memory.size_bytes - tcache_bytes
        assert node.fam_translator.region_base == expected_base

    def test_efam_has_no_translator(self):
        node, _system = make_node("e-fam")
        assert node.fam_translator is None
        assert node.stu is None

    def test_ifam_has_stu_but_no_translator(self):
        node, _system = make_node("i-fam")
        assert node.stu is not None
        assert node.fam_translator is None


class TestAccessTiming:
    def test_cache_hit_is_fast(self):
        node, _system = make_node(local_fraction=1.0)
        reference_access(node, 0x5000_0000, False, 0.0)
        completion, level = reference_access(node, 0x5000_0000, False, 1000.0)
        assert level >= 1
        assert completion - 1000.0 < 30.0

    def test_local_miss_hits_dram(self):
        node, _system = make_node(local_fraction=1.0)
        before = node.dram.accesses
        reference_access(node, 0x5000_0000, False, 0.0)
        assert node.dram.accesses > before

    def test_fam_zone_miss_reaches_fam(self):
        node, system = make_node(local_fraction=0.0)
        reference_access(node, 0x5000_0000, False, 0.0)
        assert system.fam.accesses > 0

    def test_fam_access_includes_fabric_latency(self):
        node, _system = make_node("e-fam", local_fraction=0.0)
        completion, level = reference_access(node, 0x5000_0000, False, 0.0)
        assert level == 0
        assert completion >= 2 * 500.0  # round trip at least

    def test_walk_steps_charged_through_caches(self):
        node, _system = make_node(local_fraction=1.0)
        reference_access(node, 0x5000_0000, False, 0.0)
        # A TLB-missing access to a fresh page in the same PMD region:
        # the walk's PTE read goes through the hierarchy.
        llc_before = node.caches.llc.accesses
        reference_access(node, 0x5000_0000 + PAGE_BYTES, False, 10_000.0)
        assert node.caches.llc.accesses >= llc_before


class TestCoreStepping:
    def test_gap_advances_core_time(self):
        node, _system = make_node(local_fraction=1.0)
        reference_step(node, TraceEvent(80, 0x5000_0000, False, False))
        # 80 instructions at 8 slots/cycle, 0.5ns cycle = 5ns, plus
        # the access.
        assert node.core_time_ns >= 5.0
        assert node.instructions == 81

    def test_dependent_load_stalls_core(self):
        node_dep, _ = make_node("e-fam", local_fraction=0.0)
        node_ind, _ = make_node("e-fam", local_fraction=0.0)
        reference_step(node_dep, TraceEvent(0, 0x5000_0000, False, True))
        reference_step(node_ind, TraceEvent(0, 0x5000_0000, False, False))
        assert node_dep.core_time_ns > node_ind.core_time_ns

    def test_independent_misses_overlap(self):
        node, _system = make_node("e-fam", local_fraction=0.0)
        for page in range(8):
            reference_step(node, TraceEvent(
                0, 0x5000_0000 + page * PAGE_BYTES, False, False))
        # Core time stays small while 8 misses are in flight.
        assert len(node.window) > 1

    def test_drain_waits_for_outstanding(self):
        node, _system = make_node("e-fam", local_fraction=0.0)
        reference_step(node, TraceEvent(0, 0x5000_0000, False, False))
        before = node.core_time_ns
        after = node.drain()
        assert after >= before
        assert after >= node.window.latest_completion()

    def test_metrics_snapshot(self):
        node, _system = make_node("e-fam", local_fraction=0.0)
        for page in range(4):
            reference_step(node, TraceEvent(
                2, 0x5000_0000 + page * PAGE_BYTES, False, False))
        node.drain()
        metrics = node.metrics()
        assert metrics.instructions == node.instructions
        assert metrics.memory_accesses == 4
        assert metrics.cycles > 0
        assert 0 < metrics.ipc


def run_fast(events, architecture="e-fam", local_fraction=0.0):
    """Run one node over ``events`` ((gap, vaddr, is_write, dependent)
    tuples) on the production path; returns the node after the run."""
    node, system = make_node(architecture, local_fraction=local_fraction)
    gaps, vaddrs, writes, dependents = (list(column)
                                        for column in zip(*events))
    trace = Trace("unit", gaps, vaddrs, writes, dependents)
    system.run(trace, mode="fast")
    return node


class TestCoreTimingFastPath:
    """The core-timing properties of :class:`TestCoreStepping`, on the
    functional/timing split every run executes."""

    def test_gap_advances_core_time(self):
        base = run_fast([(0, 0x5000_0000, False, False)],
                        local_fraction=1.0)
        gapped = run_fast([(80, 0x5000_0000, False, False)],
                          local_fraction=1.0)
        # 80 instructions at 8 slots/cycle of 0.5 ns = 5 ns more.
        assert gapped.instructions == 81
        assert gapped.core_time_ns == pytest.approx(base.core_time_ns + 5.0)

    def test_dependent_load_stalls_core(self):
        # A second access issues only after a dependent load returns,
        # but right away after an independent one.
        events = [(0, 0x5000_0000, False, True),
                  (0, 0x5000_0000 + PAGE_BYTES, False, False)]
        dependent = run_fast(events)
        independent = run_fast([(0, 0x5000_0000, False, False),
                                events[1]])
        assert dependent.core_time_ns > independent.core_time_ns

    def test_independent_misses_overlap(self):
        pages = range(8)
        independent = run_fast([(0, 0x5000_0000 + page * PAGE_BYTES,
                                 False, False) for page in pages])
        dependent = run_fast([(0, 0x5000_0000 + page * PAGE_BYTES,
                               False, True) for page in pages])
        # Several misses are still in flight when the trace ends, and
        # the overlapped run finishes well before the serialized one.
        assert len(independent.window) > 1
        assert 2 * independent.core_time_ns < dependent.core_time_ns
