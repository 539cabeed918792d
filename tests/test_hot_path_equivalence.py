"""The hot-path equivalence guarantee.

The production path — the vectorized ``Trace.decoded`` front-end and
the functional/timing split of :mod:`repro.core.split` over the
allocation-free probe entry points — must produce **bit-identical**
run stats to the seed implementation preserved in
:mod:`repro.core.refpath`.  This suite pins that down across every
catalog benchmark, every replacement policy, every architecture, and
the multi-node interleaved driver — comparing full serialized result
dicts, so a single drifting counter anywhere in the system fails
loudly.  Each comparison builds fresh traces, so the fast run
simulates its node side itself; ``tests/test_split.py`` covers runs
that replay a memoized stream.

Tier-1 runs a deterministic ~25% sample of the catalog × policy
matrix (stratified per policy, seeded — the picked cells never change
between invocations); set ``REPRO_FULL_MATRIX=1`` to run every cell,
which the nightly CI job does.
"""

import dataclasses
import os
import random

import pytest

from repro.cache.cache import SetAssociativeCache
from repro.config.presets import default_config, with_nodes
from repro.core.refpath import _ref_fill
from repro.core.system import FamSystem
from repro.experiments.runner import (
    RunSettings,
    _result_to_dict,
    build_traces,
)
from repro.workloads.catalog import benchmark_names

#: Small but non-trivial: enough events to exercise walks, evictions,
#: write-backs and FAM contention on every benchmark.
FAST = RunSettings(n_events=1000, footprint_scale=0.01, seed=5)

ARCHITECTURES = ("e-fam", "i-fam", "deact-w", "deact-n")
POLICIES = ("lru", "fifo", "random")

#: Full matrix under ``REPRO_FULL_MATRIX=1`` (the nightly CI job);
#: otherwise tier-1 runs the deterministic sampled slice below.
FULL_MATRIX = os.environ.get("REPRO_FULL_MATRIX") == "1"


def _matrix_cells():
    """The catalog × policy cells tier-1 actually runs.

    The full product under ``REPRO_FULL_MATRIX=1``; otherwise a
    seeded ~25% sample, stratified per policy so every replacement
    policy keeps coverage every run.  The sample is a pure function of
    the catalog and the fixed seed — no time, no environment — so the
    picked cells are identical on every machine and every invocation
    (deterministic test IDs, reproducible failures).
    """
    benches = benchmark_names()
    if FULL_MATRIX:
        return [(bench, policy) for policy in POLICIES
                for bench in benches]
    rng = random.Random(0xD5EC)
    quarter = max(1, round(len(benches) * 0.25))
    cells = []
    for policy in POLICIES:
        for bench in sorted(rng.sample(benches, quarter)):
            cells.append((bench, policy))
    return cells


def _with_data_cache_policy(config, policy):
    """The Table II config with every data-cache level using
    ``policy`` replacement."""
    return config.replace(
        l1=dataclasses.replace(config.l1, replacement=policy),
        l2=dataclasses.replace(config.l2, replacement=policy),
        l3=dataclasses.replace(config.l3, replacement=policy))


def _run_both(bench, architecture, config):
    """Run both tiers on fresh systems and fresh traces; return the
    serialized dicts ``(fast, reference)``."""
    traces = build_traces(bench, config.nodes, FAST)
    seed = FAST.seed * 31 + 5
    fast = FamSystem(config, architecture, seed=seed).run(
        traces, benchmark=bench, mode="fast")
    reference = FamSystem(config, architecture, seed=seed).run(
        traces, benchmark=bench, mode="reference")
    return _result_to_dict(fast), _result_to_dict(reference)


class TestCatalogEquivalence:
    """Catalog benchmark × replacement policy cells (sampled in
    tier-1, full under ``REPRO_FULL_MATRIX=1``).

    The architecture rotates per (benchmark, policy) cell so all four
    access procedures are exercised across the matrix without running
    the full 14 × 3 × 4 cube.
    """

    @pytest.mark.parametrize("bench,policy", _matrix_cells())
    def test_fast_and_batch_match_seed_path(self, bench, policy):
        # The name predates the removal of the batch tier; the fast
        # tier is now the only production path to compare.
        index = benchmark_names().index(bench)
        architecture = ARCHITECTURES[
            (index + POLICIES.index(policy)) % len(ARCHITECTURES)]
        config = _with_data_cache_policy(default_config(), policy)
        fast, reference = _run_both(bench, architecture, config)
        assert fast == reference

    def test_all_architectures_one_benchmark(self):
        for architecture in ARCHITECTURES:
            fast, reference = _run_both("mcf", architecture,
                                        default_config())
            assert fast == reference

    @pytest.mark.parametrize("policy", POLICIES)
    def test_multi_node_interleaved_driver(self, policy):
        # nodes > 1 interleaves the nodes' timing replays through the
        # heap driver: each node runs until it would no longer be the
        # next one popped.
        config = _with_data_cache_policy(
            with_nodes(default_config(), 3), policy)
        fast, reference = _run_both("dc", "deact-n", config)
        assert fast == reference

    def test_encrypted_memory_mode(self):
        config = default_config()
        config = config.replace(
            stu=dataclasses.replace(config.stu, encrypted_memory_mode=True))
        fast, reference = _run_both("canl", "deact-n", config)
        assert fast == reference

    def test_hit_dominated_workload(self):
        # Long stretches of L1 hits, where the replay charges only
        # the L1 latency per event.
        from repro.experiments.bench import hot_loop_trace

        for architecture in ARCHITECTURES:
            seed = 77
            reference = FamSystem(default_config(), architecture,
                                  seed=seed).run(
                [hot_loop_trace(4000, seed=11)], benchmark="hot-loop",
                mode="reference")
            fast = FamSystem(default_config(), architecture,
                             seed=seed).run(
                [hot_loop_trace(4000, seed=11)], benchmark="hot-loop",
                mode="fast")
            assert _result_to_dict(fast) == _result_to_dict(reference)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_multi_node_hit_dominated(self, policy):
        # Long hit stretches under the heap-interleaved multi-node
        # driver, for every replacement policy.
        config = _with_data_cache_policy(
            with_nodes(default_config(), 3), policy)
        fast, reference = _run_both("hotspot", "deact-w", config)
        assert fast == reference

    def test_all_architectures_hit_dominated_catalog(self):
        # The hotspot preset (block-granular reuse) across all four
        # access procedures.
        for architecture in ARCHITECTURES:
            fast, reference = _run_both("hotspot", architecture,
                                        default_config())
            assert fast == reference

    def test_not_vacuous(self):
        # Different seeds must differ, or the comparisons above would
        # pass for a runner that ignores its inputs.
        traces = build_traces("mcf", 1, FAST)
        base = FamSystem(default_config(), "deact-n", seed=1).run(
            traces, benchmark="mcf")
        other = FamSystem(default_config(), "deact-n", seed=2).run(
            traces, benchmark="mcf")
        assert _result_to_dict(base) != _result_to_dict(other)


def _banks(banked):
    return [(bank.reservations, bank.busy_time, bank.busy_until)
            for bank in map(banked.bank, range(banked.n_banks))]


def _window(window):
    return (window.admissions, window.stall_time,
            sorted(window._completions))


def _timing_state(system):
    """The timing state a ``RunResult`` does not carry: windows, every
    bank and port reservation, the outstanding mapping lists and the
    STU page-walk units."""
    port = system.fabric.fam_port
    state = {"fam.window": _window(system.fam.window),
             "fam.banks": _banks(system.fam.banks),
             "fabric.fam_port": (port.reservations, port.busy_time,
                                 port.busy_until)}
    for node in system.nodes:
        state[f"{node.name}.window"] = _window(node.window)
        state[f"{node.name}.dram"] = _banks(node.dram.banks)
        if node.fam_translator is not None:
            outstanding = node.fam_translator.outstanding
            state[f"{node.name}.outstanding"] = (
                outstanding.registered, outstanding.peak_occupancy,
                len(outstanding))
        if node.stu is not None:
            state[f"{node.name}.stu_ptw_busy_until"] = \
                node.stu._ptw_busy_until
    return state


class TestTimingStateEquivalence:
    """Fast and reference runs leave the same timing state behind,
    including the parts no result field reports, so an inlined
    reservation or window that skipped its bookkeeping fails here."""

    @pytest.mark.parametrize("nodes", [1, 2])
    @pytest.mark.parametrize("architecture", ARCHITECTURES)
    def test_fast_matches_reference(self, architecture, nodes):
        config = with_nodes(default_config(), nodes)
        traces = build_traces("canl", nodes, FAST)
        seed = FAST.seed * 31 + 5
        fast = FamSystem(config, architecture, seed=seed)
        fast.run(traces, benchmark="canl", mode="fast")
        reference = FamSystem(config, architecture, seed=seed)
        reference.run(traces, benchmark="canl", mode="reference")
        fast_state = _timing_state(fast)
        assert fast_state == _timing_state(reference)
        # Non-vacuous: the run reserved the FAM and (for DeACT)
        # tracked outstanding reads.
        assert sum(n for n, _busy, _until in fast_state["fam.banks"]) > 0
        if architecture.startswith("deact"):
            assert fast_state["node0.outstanding"][0] > 0


class TestDecodedFrontEnd:
    """The vectorized decode must agree with per-event derivation."""

    def test_decode_matches_scalar_derivation(self):
        trace = build_traces("mcf", 1, FAST)[0]
        decoded = trace.decoded(4096, 64)
        assert len(decoded) == len(trace)
        for vaddr, vpn, offset, block in zip(
                trace.vaddrs, decoded.vpns, decoded.offsets,
                decoded.blocks):
            assert vpn == vaddr // 4096
            assert offset == vaddr % 4096
            assert block == (vaddr % 4096) // 64
            # Physical-block recomposition identity of the functional
            # pass.
            for frame in (0, 7, 123456):
                npa = (frame << 12) | offset
                assert npa // 64 == (frame << 6) | block

    def test_decode_is_cached_per_geometry(self):
        trace = build_traces("mg", 1, FAST)[0]
        assert trace.decoded(4096, 64) is trace.decoded(4096, 64)
        assert trace.decoded(4096, 64) is not trace.decoded(4096, 128)

    def test_decode_rejects_non_power_of_two(self):
        from repro.errors import TraceError

        trace = build_traces("mg", 1, FAST)[0]
        with pytest.raises(TraceError):
            trace.decoded(page_bytes=4095)
        with pytest.raises(TraceError):
            trace.decoded(block_bytes=48)

    def test_columns_are_plain_python_scalars(self):
        # The per-event loop relies on plain ints/bools (NumPy scalar
        # attribute access is an order of magnitude slower).
        trace = build_traces("bc", 1, FAST)[0]
        decoded = trace.decoded()
        assert type(decoded.vpns[0]) is int
        assert type(decoded.offsets[0]) is int
        assert type(decoded.blocks[0]) is int
        assert type(trace.gaps[0]) is int
        assert type(trace.writes[0]) is bool


class TestTagStoreEquivalence:
    """Property test: the slim ``fill_line`` and the seed's boxed fill
    (preserved as ``refpath._ref_fill``) stay in lockstep — same
    contents, counters, eviction decisions and RNG draws — under
    random operation sequences for all three policies."""

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("seed", range(3))
    def test_random_operation_sequences(self, policy, seed):
        import random

        rng = random.Random(1000 * seed + POLICIES.index(policy))
        fast = SetAssociativeCache("fast", 4, 2, replacement=policy,
                                   seed=seed)
        reference = SetAssociativeCache("ref", 4, 2, replacement=policy,
                                        seed=seed)
        for _ in range(600):
            key = rng.randrange(64)
            op = rng.random()
            if op < 0.5:
                fast_line = fast.get_line(key, write=op < 0.1)
                ref_line = reference.get_line(key, write=op < 0.1)
                assert (fast_line is None) == (ref_line is None)
            elif op < 0.9:
                evicted = fast.fill_line(key, key * 3, dirty=op > 0.8)
                boxed = _ref_fill(reference, key, key * 3, dirty=op > 0.8)
                if evicted is None:
                    assert boxed.evicted_key is None
                else:
                    assert evicted == (boxed.evicted_key,
                                       boxed.evicted_value,
                                       boxed.evicted_dirty)
            else:
                assert fast.invalidate(key) == reference.invalidate(key)
        assert fast._sets == reference._sets
        assert (fast.hits, fast.misses, fast.fills, fast.evictions) == \
            (reference.hits, reference.misses, reference.fills,
             reference.evictions)
