"""Tests for the four-level page table and walker."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TranslationFault
from repro.pagetable.walker import PageTableWalker
from repro.pagetable.x86 import (
    FourLevelPageTable,
    LEVEL_NAMES,
    WeakFrameAllocator,
)


def make_table():
    counter = itertools.count()
    return FourLevelPageTable(lambda: next(counter) * 4096, name="t")


class TestMapping:
    def test_map_then_lookup(self):
        table = make_table()
        table.map(0x123, 77)
        entry = table.lookup(0x123)
        assert entry is not None
        assert entry.frame == 77

    def test_unmapped_lookup_is_none(self):
        assert make_table().lookup(0x999) is None

    def test_contains(self):
        table = make_table()
        table.map(5, 1)
        assert 5 in table
        assert 6 not in table

    def test_remap_replaces(self):
        table = make_table()
        table.map(5, 1)
        table.map(5, 2)
        assert table.lookup(5).frame == 2
        assert table.mapped_pages == 1

    def test_unmap(self):
        table = make_table()
        table.map(5, 1)
        assert table.unmap(5) is True
        assert table.unmap(5) is False
        assert table.lookup(5) is None

    def test_translate_raises_on_unmapped(self):
        with pytest.raises(TranslationFault):
            make_table().translate(42)

    def test_table_pages_allocated_lazily(self):
        table = make_table()
        assert table.table_pages == 1  # root only
        table.map(0, 1)
        assert table.table_pages == 4  # root + PUD + PMD + PTE
        table.map(1, 2)  # same subtree: no new tables
        assert table.table_pages == 4
        table.map(1 << 27, 3)  # different PGD slot: 3 new tables
        assert table.table_pages == 7

    def test_iter_mappings(self):
        table = make_table()
        table.map(7, 70)
        table.map(1 << 20, 71)
        found = dict(table.iter_mappings())
        assert found[7].frame == 70
        assert found[1 << 20].frame == 71


class TestSplitVpn:
    def test_known_split(self):
        # vpn with 9-bit groups: [1, 2, 3, 4]
        vpn = (1 << 27) | (2 << 18) | (3 << 9) | 4
        assert FourLevelPageTable.split_vpn(vpn) == [1, 2, 3, 4]

    @given(st.integers(min_value=0, max_value=(1 << 36) - 1))
    def test_split_reassembles(self, vpn):
        parts = FourLevelPageTable.split_vpn(vpn)
        rebuilt = 0
        for part in parts:
            rebuilt = (rebuilt << 9) | part
        assert rebuilt == vpn


class TestWalk:
    def test_walk_has_four_steps(self):
        table = make_table()
        table.map(0xABC, 9)
        steps = table.walk(0xABC)
        assert [s.level for s in steps] == [0, 1, 2, 3]
        assert [s.level_name for s in steps] == list(LEVEL_NAMES)

    def test_walk_addresses_fall_in_table_pages(self):
        table = make_table()
        table.map(0xABC, 9)
        for step in table.walk(0xABC):
            assert step.table_base <= step.entry_addr < step.table_base + 4096

    def test_walk_unmapped_faults(self):
        with pytest.raises(TranslationFault):
            make_table().walk(1)

    def test_walk_entries_matches_walk(self):
        table = make_table()
        table.map(0x55, 3)
        steps, entry = table.walk_entries(0x55)
        assert steps == table.walk(0x55)
        assert entry.frame == 3

    def test_shared_prefix_shares_table_pages(self):
        table = make_table()
        table.map(0, 1)
        table.map(1, 2)
        a = table.walk(0)
        b = table.walk(1)
        # Same interior tables, different PTE slot.
        assert a[2].table_base == b[2].table_base
        assert a[3].entry_addr != b[3].entry_addr


class TestWalker:
    def test_cold_walk_costs_four_accesses(self):
        table = make_table()
        table.map(0x777, 5)
        walker = PageTableWalker(table, cache_entries=32)
        result = walker.walk(0x777)
        assert result.memory_accesses == 4
        assert result.frame == 5

    def test_warm_walk_skips_interior_levels(self):
        table = make_table()
        table.map(0x700, 5)
        table.map(0x701, 6)
        walker = PageTableWalker(table, cache_entries=32)
        walker.walk(0x700)
        result = walker.walk(0x701)  # same PMD: only the PTE access
        assert result.memory_accesses == 1
        assert result.skipped_levels == 3

    def test_no_cache_walker_always_walks_four(self):
        table = make_table()
        table.map(0x700, 5)
        walker = PageTableWalker(table, cache_entries=0)
        walker.walk(0x700)
        result = walker.walk(0x700)
        assert result.memory_accesses == 4

    def test_invalidate_flushes(self):
        table = make_table()
        table.map(0x700, 5)
        walker = PageTableWalker(table, cache_entries=32)
        walker.walk(0x700)
        walker.invalidate()
        assert walker.walk(0x700).memory_accesses == 4

    def test_average_accesses(self):
        table = make_table()
        table.map(0x700, 5)
        walker = PageTableWalker(table, cache_entries=32)
        walker.walk(0x700)
        walker.walk(0x700)
        assert 1.0 <= walker.average_accesses_per_walk <= 4.0

    def test_walks_set_accessed_bit(self):
        table = make_table()
        entry = table.map(0x700, 5)
        assert entry.accessed is False
        PageTableWalker(table, cache_entries=0).walk(0x700)
        assert entry.accessed is True

    @given(st.lists(st.integers(min_value=0, max_value=(1 << 30) - 1),
                    min_size=1, max_size=40, unique=True))
    @settings(max_examples=30)
    def test_walker_frame_matches_table(self, vpns):
        """Invariant: walk caches never change the translation result."""
        table = make_table()
        for index, vpn in enumerate(vpns):
            table.map(vpn, index + 100)
        walker = PageTableWalker(table, cache_entries=8)
        for _ in range(2):
            for index, vpn in enumerate(vpns):
                assert walker.walk(vpn).frame == index + 100


def _radix_leaf(table, vpn):
    """The leaf entry a root-to-leaf descent of the radix tree reaches
    for ``vpn``, or ``None``."""
    indices = table.split_vpn(vpn)
    node = table._root
    for index in indices[:3]:
        node = node.slots.get(index)
        if node is None:
            return None
    return node.slots.get(indices[3])


#: VPNs that share interior tables, plus two that alias a small VPN
#: once the four 9-bit level indices mask them.
_VPN_POOL = [0, 1, 511, 512, 0x1234, 0x7FFFF, (1 << 36) - 1,
             1 << 36, (1 << 36) | 0x1234]


class TestFlatLeafIndex:
    """``lookup`` reads a flat leaf index that ``map``/``unmap`` keep
    in step with the radix tree the walkers descend."""

    @given(st.lists(st.tuples(st.sampled_from(["map", "unmap"]),
                              st.sampled_from(_VPN_POOL),
                              st.integers(min_value=0, max_value=1 << 20)),
                    max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_lookup_equals_radix_descent(self, operations):
        table = make_table()
        for op, vpn, frame in operations:
            if op == "map":
                table.map(vpn, frame)
            else:
                table.unmap(vpn)
            for probe in _VPN_POOL:
                assert table.lookup(probe) is _radix_leaf(table, probe)
        assert len(list(table.iter_mappings())) == table.mapped_pages


class TestWeakFrameAllocator:
    def test_calls_through_and_holds_owner_weakly(self):
        class Owner:
            frames = 0

            def allocate(self):
                self.frames += 1
                return self.frames * 4096

        owner = Owner()
        allocate = WeakFrameAllocator(owner.allocate)
        assert allocate() == 4096
        del owner
        with pytest.raises(ReferenceError):
            allocate()
