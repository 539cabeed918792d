"""End-to-end security tests: the paper's threat model.

Section II-A: a malicious application or OS on one node tries to reach
pages of other nodes/users in the shared FAM.  The system-level checks
(broker-owned metadata, STU verification) must deny every such attempt
— including ones that abuse DeACT's *unverified* node-side translation
cache, which is exactly the new attack surface the decoupling opens.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.acm.metadata import PERM_RO, PERM_RW, Permission
from repro.config.presets import small_config, with_nodes
from repro.core.system import FamSystem
from repro.errors import AccessViolationError, ConfigError
from repro.mem.request import RequestKind

PAGE = 4096


@pytest.fixture()
def two_node_deact():
    system = FamSystem(with_nodes(small_config(), 2), "deact-n", seed=7)
    return system


class TestCrossTenantIsolation:
    def test_forged_fam_address_denied(self, two_node_deact):
        """Node 1 presents node 0's FAM address with V=1 — the attack
        unverified caching enables; the STU must reject it."""
        system = two_node_deact
        fam_page = system.broker.allocate_for_node(0, node_page=0x100)
        with pytest.raises(AccessViolationError) as excinfo:
            system.nodes[1].stu.verify_access(fam_page * PAGE, now=0.0,
                                              needed=Permission.READ)
        assert excinfo.value.node_id == 1
        assert excinfo.value.fam_addr == fam_page * PAGE

    def test_owner_still_allowed(self, two_node_deact):
        system = two_node_deact
        fam_page = system.broker.allocate_for_node(0, node_page=0x100)
        result = system.nodes[0].stu.verify_access(
            fam_page * PAGE, now=0.0, needed=Permission.WRITE)
        assert result.allowed

    def test_unallocated_page_denied(self, two_node_deact):
        """Scanning for free pages must fail too (no entry = no
        access)."""
        system = two_node_deact
        with pytest.raises(AccessViolationError):
            system.nodes[0].stu.verify_access(123456 * PAGE, now=0.0)

    def test_acm_region_unreachable_through_layout(self, two_node_deact):
        """Addresses inside the metadata region are rejected before
        verification even consults the store."""
        from repro.errors import ConfigError
        system = two_node_deact
        layout = system.broker.layout
        with pytest.raises((AccessViolationError, ConfigError)):
            system.nodes[0].stu.verify_access(layout.metadata_base,
                                              now=0.0)


class TestUseAfterRelease:
    def test_released_page_denied_even_if_cached(self, two_node_deact):
        """Node keeps a stale (unverified) translation after the broker
        releases the page: verification must catch the stale use."""
        system = two_node_deact
        node = system.nodes[0]
        fam_page = system.broker.allocate_for_node(0, node_page=0x100)
        # Warm the node's unverified translation cache and the STU ACM.
        node.fam_translator.install(0x100, fam_page, now=0.0)
        node.stu.verify_access(fam_page * PAGE, now=0.0)
        # Broker releases the page and shoots down the STU's ACM (the
        # broker-controlled part); the node's translator entry is stale.
        system.broker.release_page(0, 0x100)
        node.stu.invalidate_fam_page(fam_page)
        assert node.fam_translator.cache.lookup(0x100) == fam_page
        with pytest.raises(AccessViolationError):
            node.stu.verify_access(fam_page * PAGE, now=1000.0)

    def test_migrated_page_denied_to_old_owner(self, two_node_deact):
        system = two_node_deact
        fam_page = system.broker.allocate_for_node(0, node_page=0x100)
        system.nodes[0].stu.verify_access(fam_page * PAGE, now=0.0)
        system.broker.migrate_node_pages(
            0, 1, on_invalidate=lambda np, fp:
            system.nodes[0].stu.invalidate_fam_page(fp))
        with pytest.raises(AccessViolationError):
            system.nodes[0].stu.verify_access(fam_page * PAGE, now=10.0)
        assert system.nodes[1].stu.verify_access(
            fam_page * PAGE, now=10.0, needed=Permission.WRITE).allowed


class TestSharedSegmentPermissions:
    def test_mixed_permissions_enforced(self, two_node_deact):
        system = two_node_deact
        segment = system.broker.create_shared_segment(
            {0: PERM_RW, 1: PERM_RO}, n_pages=4)
        addr = segment.fam_pages[0] * PAGE
        assert system.nodes[0].stu.verify_access(
            addr, now=0.0, needed=Permission.WRITE).allowed
        assert system.nodes[1].stu.verify_access(
            addr, now=0.0, needed=Permission.READ).allowed
        with pytest.raises(AccessViolationError):
            system.nodes[1].stu.verify_access(addr, now=0.0,
                                              needed=Permission.WRITE)

    def test_ungranted_node_denied_on_shared_page(self):
        system = FamSystem(with_nodes(small_config(), 3), "deact-n",
                           seed=7)
        segment = system.broker.create_shared_segment(
            {0: PERM_RW, 1: PERM_RO}, n_pages=2)
        addr = segment.fam_pages[0] * PAGE
        with pytest.raises(AccessViolationError):
            system.nodes[2].stu.verify_access(addr, now=0.0,
                                              needed=Permission.READ)

    def test_revocation_takes_effect(self, two_node_deact):
        system = two_node_deact
        segment = system.broker.create_shared_segment(
            {0: PERM_RW, 1: PERM_RO}, n_pages=2)
        addr = segment.fam_pages[0] * PAGE
        region = segment.regions[0]
        system.broker.acm.bitmap_for_region(region).revoke(1)
        system.nodes[1].stu.invalidate_fam_page(segment.fam_pages[0])
        with pytest.raises(AccessViolationError):
            system.nodes[1].stu.verify_access(addr, now=0.0,
                                              needed=Permission.READ)


class TestIFamEnforcement:
    def test_ifam_checks_against_authoritative_store(self):
        """I-FAM's coupled path still verifies functionally: a node
        whose system table somehow maps a foreign frame is caught."""
        from repro.mem.request import RequestKind

        system = FamSystem(with_nodes(small_config(), 2), "i-fam",
                           seed=7)
        victim_page = system.broker.allocate_for_node(0, node_page=0x50)
        # Corrupt node 1's system table to alias node 0's frame — the
        # bug/attack the broker-side ACM exists to catch.
        system.broker.system_table(1).map(0x60, victim_page)
        node = system.nodes[1]
        with pytest.raises(AccessViolationError):
            node.architecture.fam_access_fast(node, 0x60 * PAGE, 0.0,
                                              False, RequestKind.DATA)


class TestHonestWorkloadsNeverViolate:
    @pytest.mark.parametrize("arch", ["i-fam", "deact-w", "deact-n"])
    def test_no_violations(self, arch):
        from repro.workloads.synthetic import PatternSpec, generate_trace
        trace = generate_trace(
            "sec", 800, 300,
            [PatternSpec("zipf", 1.0, {"alpha": 0.6})],
            gap_mean=4.0, write_fraction=0.4, dependent_fraction=0.4,
            seed=3, reuse_fraction=0.5, reuse_window=128)
        system = FamSystem(small_config(), arch, seed=7)
        system.run(trace, benchmark="sec")
        if system.nodes[0].stu is not None:
            assert system.nodes[0].stu.stats.get("violations") == 0


class TestFastPathEnforcement:
    """The allocation-free entry points the timing replay calls keep
    every check of the boxed API."""

    @pytest.mark.parametrize("arch", ["deact-w", "deact-n"])
    @given(beyond=st.integers(min_value=0, max_value=1 << 24))
    @settings(max_examples=25, deadline=None)
    def test_outside_usable_region_raises(self, arch, beyond):
        system = FamSystem(small_config(), arch, seed=7)
        stu = system.nodes[0].stu
        end = system.broker.layout.metadata_base
        for fam_addr in (end + beyond, -1 - beyond):
            with pytest.raises(ConfigError):
                stu.verify_access_fast(fam_addr, 0.0, Permission.READ)
            with pytest.raises(ConfigError):
                system.broker.acm.check(0, fam_addr, Permission.READ)
        assert stu.stats.get("acm.hits") + stu.stats.get("acm.misses") == 0

    @pytest.mark.parametrize("arch", ["deact-w", "deact-n"])
    @pytest.mark.parametrize("needed", [Permission.READ, Permission.WRITE])
    def test_foreign_owned_page_raises(self, arch, needed):
        system = FamSystem(with_nodes(small_config(), 2), arch, seed=7)
        fam_page = system.broker.allocate_for_node(0, node_page=0x100)
        stu = system.nodes[1].stu
        for _ in range(2):  # an ACM-cache miss, then a hit
            with pytest.raises(AccessViolationError) as excinfo:
                stu.verify_access_fast(fam_page * PAGE, 0.0, needed)
            assert excinfo.value.node_id == 1
        assert stu.stats.get("violations") == 2

    @pytest.mark.parametrize("arch", ["deact-w", "deact-n"])
    @pytest.mark.parametrize("is_write", [False, True])
    def test_forged_translation_raises_through_the_access(self, arch,
                                                          is_write):
        """Node 1's unverified translation cache is poisoned with node
        0's FAM page; the access procedure must still be denied."""
        system = FamSystem(with_nodes(small_config(), 2), arch, seed=7)
        fam_page = system.broker.allocate_for_node(0, node_page=0x100)
        node = system.nodes[1]
        node_page = node.fam_zone_base // PAGE + 5
        system.broker.ensure_mapped(1, node_page)
        node.fam_translator.cache.install(node_page, fam_page)
        with pytest.raises(AccessViolationError):
            node.architecture.fam_access_fast(
                node, node_page * PAGE, 0.0, is_write, RequestKind.DATA)
