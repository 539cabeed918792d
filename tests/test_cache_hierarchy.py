"""Tests for the inclusive three-level cache hierarchy."""

import pytest

from repro.cache.hierarchy import CacheHierarchy
from repro.config.system import CacheConfig


def tiny_hierarchy():
    """A hierarchy small enough to force evictions quickly."""
    return CacheHierarchy(
        CacheConfig("L1", 256, associativity=2, latency_ns=1.0),
        CacheConfig("L2", 512, associativity=2, latency_ns=3.0),
        CacheConfig("L3", 1024, associativity=2, latency_ns=10.0),
    )


def access(hierarchy, addr, write=False):
    """Byte-address access: ``(level, latency_ns, writebacks)``."""
    return hierarchy.access_fast(addr >> hierarchy.block_shift, write)


class TestHitPath:
    def test_cold_miss_hits_no_level(self):
        hierarchy = tiny_hierarchy()
        level, latency, _writebacks = access(hierarchy, 0)
        assert level == 0
        assert latency == 14.0  # checked all three levels

    def test_second_access_hits_l1(self):
        hierarchy = tiny_hierarchy()
        access(hierarchy, 0)
        level, latency, _writebacks = access(hierarchy, 0)
        assert level == 1
        assert latency == 1.0

    def test_block_granularity(self):
        hierarchy = tiny_hierarchy()
        access(hierarchy, 0)
        assert access(hierarchy, 63)[0] == 1  # same 64B block

    def test_adjacent_block_misses(self):
        hierarchy = tiny_hierarchy()
        access(hierarchy, 0)
        assert access(hierarchy, 64)[0] == 0

    def test_l2_hit_refills_l1(self):
        hierarchy = tiny_hierarchy()
        access(hierarchy, 0)
        # Evict block 0 from L1 (2-way sets of 2: fill same L1 set).
        l1_sets = hierarchy.levels[0].n_sets
        access(hierarchy, 64 * l1_sets)
        access(hierarchy, 64 * 2 * l1_sets)
        assert hierarchy.levels[0].probe(0) is None
        assert access(hierarchy, 0)[0] == 2
        # And L1 now holds it again.
        assert hierarchy.levels[0].probe(0) is not None


class TestInclusivity:
    def test_l3_eviction_back_invalidates(self):
        hierarchy = tiny_hierarchy()
        l3 = hierarchy.levels[2]
        access(hierarchy, 0)
        # Fill the L3 set containing block 0 until 0 is evicted.
        addr = 0
        while l3.probe(0) is not None:
            addr += 64 * l3.n_sets
            access(hierarchy, addr)
        assert hierarchy.levels[0].probe(0) is None
        assert hierarchy.levels[1].probe(0) is None

    def test_inner_levels_subset_of_l3(self):
        hierarchy = tiny_hierarchy()
        for i in range(200):
            access(hierarchy, i * 64 * 3)
        l3 = hierarchy.levels[2]
        for inner in hierarchy.levels[:2]:
            for lines in inner._sets:
                for key in lines:
                    assert key in l3, "inclusivity violated"


class TestWritebacks:
    def test_dirty_l3_eviction_reports_writeback(self):
        hierarchy = tiny_hierarchy()
        l3 = hierarchy.levels[2]
        access(hierarchy, 0, write=True)
        writebacks = []
        addr = 0
        while l3.probe(0) is not None:
            addr += 64 * l3.n_sets
            writebacks += access(hierarchy, addr)[2]
        assert 0 in writebacks

    def test_clean_eviction_no_writeback(self):
        hierarchy = tiny_hierarchy()
        l3 = hierarchy.levels[2]
        access(hierarchy, 0, write=False)
        writebacks = []
        addr = 0
        while l3.probe(0) is not None:
            addr += 64 * l3.n_sets
            writebacks += access(hierarchy, addr)[2]
        assert 0 not in writebacks


class TestStats:
    def test_llc_miss_count(self):
        hierarchy = tiny_hierarchy()
        access(hierarchy, 0)
        access(hierarchy, 0)
        access(hierarchy, 6400)
        assert hierarchy.llc_miss_count() == 2

    def test_miss_latency(self):
        assert tiny_hierarchy().miss_latency_ns == 14.0

    def test_contains(self):
        hierarchy = tiny_hierarchy()
        access(hierarchy, 0)
        assert hierarchy.contains(0) == 1
        assert hierarchy.contains(10_000_000) is None

    def test_table_ii_geometry(self):
        """The default Table II hierarchy has the right set counts."""
        from repro.config.presets import default_config
        config = default_config()
        hierarchy = CacheHierarchy(config.l1, config.l2, config.l3)
        assert hierarchy.levels[0].n_sets * 8 * 64 == 32 * 1024
        assert hierarchy.levels[1].n_sets * 8 * 64 == 256 * 1024
        assert hierarchy.levels[2].n_sets * 16 * 64 == 1024 * 1024
