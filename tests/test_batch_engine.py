"""Unit and property tests for the fast tier's engine.

The fast tier is the functional/timing split (:mod:`repro.core.split`):
a functional pass drives the node side and records a stream, and a
timing replay charges the FAM side from it.  The full-system
bit-identity proof lives in ``tests/test_hot_path_equivalence.py`` and
the reuse rules in ``tests/test_split.py``; this module pins the
engine's building blocks against the seed reference path — the
replay's exact-rounding clock charge, the node state a stream stands
for when an adopting node materializes it, the reuse gate per
node-side configuration and architecture, the L2-refill geometries —
and the windowed interleave property: running a trace as any
alternation of split windows and reference-loop windows leaves every
counter and result bit-identical to the seed reference path.
"""

import dataclasses
import random

import pytest

from repro.config.presets import default_config, with_nodes
from repro.config.system import KIB, MIB
from repro.core import split
from repro.core.refpath import reference_step
from repro.core.results import RunResult
from repro.core.system import FamSystem
from repro.experiments.bench import hot_loop_trace
from repro.experiments.runner import (
    RunSettings,
    _result_to_dict,
    build_traces,
)
from repro.workloads.trace import Trace

SETTINGS = RunSettings(n_events=2000, footprint_scale=0.01, seed=5)
SEED = SETTINGS.seed * 31 + 5
#: Stream code of an event served by the L1 TLB and the L1 data cache.
L1_HIT = 1 | 1 << split.DATA_SHIFT


def _flat_trace(vaddrs, gaps=None, writes=None):
    n = len(vaddrs)
    return Trace("ext-kernel", list(gaps) if gaps else [0] * n, vaddrs,
                 list(writes) if writes else [False] * n, [False] * n)


def _policy_config(policy):
    config = default_config()
    return config.replace(
        l1=dataclasses.replace(config.l1, replacement=policy),
        l2=dataclasses.replace(config.l2, replacement=policy),
        l3=dataclasses.replace(config.l3, replacement=policy))


def _tag_stores(node):
    """Every node-side tag store: both TLB levels, the data caches and
    the node walker's walk caches."""
    return ([node.mmu.tlb.l1, node.mmu.tlb.l2] + list(node.caches.levels)
            + [level.cache for level in node.mmu.walker._levels])


def _assemble(system, benchmark):
    """The RunResult ``FamSystem.run`` would build for ``system``."""
    return RunResult(
        architecture=system.architecture.key, benchmark=benchmark,
        nodes=[node.metrics() for node in system.nodes],
        fam_counters=system.fam.stats.snapshot(),
        fabric_counters=system.fabric.stats.snapshot())


def _replay_stepwise(node, trace):
    """Functional pass over ``trace``, then a primed replay that has
    charged exactly the first event; returns the generator."""
    decoded = trace.decoded()
    stream = split.functional_pass(node, decoded)
    generator = split.replay(node, decoded, stream)
    next(generator)
    generator.send((float("-inf"), False))
    return stream, generator


# ----------------------------------------------------------------------
# Clock charge: bit-identical accumulation in the replay
# ----------------------------------------------------------------------
class TestChargeClockRun:
    """The float-order rule: the replay adds each event's issue gap and
    latency one at a time, exactly as a scalar loop would."""

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_scalar_accumulation_bitwise(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(2, 3000)
        gaps = [rng.randrange(0, 400) for _ in range(n)]
        config = default_config()
        config = config.replace(
            core=dataclasses.replace(config.core,
                                     issue_width=rng.randrange(1, 9)),
            l1=dataclasses.replace(config.l1,
                                   latency_ns=rng.choice((2.0, 1.5, 3.25))))
        # One block: a cold miss, then L1 hits only.
        trace = _flat_trace([0x1000_0040] * n, gaps=gaps)
        node = FamSystem(config, "deact-n", seed=seed).nodes[0]
        stream, generator = _replay_stepwise(node, trace)
        assert set(stream.codes[1:]) == {L1_HIT}
        slot_ns = node._slot_ns
        lat1 = config.l1.latency_ns
        expected = node.core_time_ns
        for gap in gaps[1:]:
            expected = expected + gap * slot_ns
            expected = expected + lat1
        with pytest.raises(StopIteration):
            generator.send((float("inf"), True))
        assert node.core_time_ns == expected  # bit-identical, not approx
        oracle = FamSystem(config, "deact-n", seed=seed)
        oracle.run([trace], mode="reference")
        # The reference run ends with a drain (the cold miss may still
        # be outstanding).
        assert oracle.nodes[0].core_time_ns == node.drain()

    def test_single_event(self):
        trace = _flat_trace([0x1000_0040] * 2, gaps=[0, 3])
        node = FamSystem(default_config(), "deact-n", seed=1).nodes[0]
        _stream, generator = _replay_stepwise(node, trace)
        start = node.core_time_ns
        with pytest.raises(StopIteration):
            generator.send((float("inf"), True))
        assert node.core_time_ns == (start + 3 * node._slot_ns) + \
            default_config().l1.latency_ns


# ----------------------------------------------------------------------
# Materialized node state equals per-event state
# ----------------------------------------------------------------------
class TestBatchedRecency:
    """A node that adopted a memoized stream keeps its structures cold;
    :meth:`~repro.core.node.Node.materialize` rebuilds them.  The
    rebuilt contents, recency order, dirty bits, counters and RNG
    state must equal what per-event reference probes leave."""

    @pytest.mark.parametrize("policy", ("lru", "fifo", "random"))
    @pytest.mark.parametrize("seed", range(3))
    def test_touch_run_equals_per_event_hits(self, policy, seed):
        bench = ("bc", "mcf", "canl")[seed]
        settings = RunSettings(n_events=1500, footprint_scale=0.01,
                               seed=seed + 2)
        config = _policy_config(policy)
        traces = build_traces(bench, 1, settings)
        FamSystem(config, "e-fam", seed=SEED).run(traces)
        adopter = FamSystem(config, "i-fam", seed=SEED)
        adopter.run(traces)
        assert adopter.stream_counts["reused"] == 1
        node = adopter.nodes[0]
        assert node.mmu.translations == 0     # still cold
        node.materialize()
        oracle = FamSystem(config, "i-fam", seed=SEED)
        oracle.run(build_traces(bench, 1, settings), mode="reference")
        ref_node = oracle.nodes[0]
        for store, ref_store in zip(_tag_stores(node),
                                    _tag_stores(ref_node)):
            assert store._sets == ref_store._sets  # same order per set
            assert (store.hits, store.misses) == (ref_store.hits,
                                                  ref_store.misses)
            assert store._rng.getstate() == ref_store._rng.getstate()
        assert node._mapped_vpns == ref_node._mapped_vpns
        assert node.node_side_probes() == ref_node.node_side_probes()

    def test_hierarchy_l1_hit_run_sets_dirty_bits(self):
        rng = random.Random(4)
        blocks = [0x2000_0000 + 64 * rng.randrange(24) for _ in range(600)]
        writes = [rng.random() < 0.3 for _ in blocks]
        trace = _flat_trace(blocks, writes=writes)
        FamSystem(default_config(), "e-fam", seed=5).run([trace])
        adopter = FamSystem(default_config(), "deact-w", seed=5)
        adopter.run([trace])
        assert adopter.stream_counts["reused"] == 1
        node = adopter.nodes[0]
        node.materialize()
        oracle = FamSystem(default_config(), "deact-w", seed=5)
        oracle.run([_flat_trace(blocks, writes=writes)], mode="reference")
        l1 = node.caches._l1
        ref_l1 = oracle.nodes[0].caches._l1
        assert any(line[1] for lines in l1._sets for line in lines.values())
        assert l1._sets == ref_l1._sets
        assert l1.hits == ref_l1.hits


# ----------------------------------------------------------------------
# Reuse gate per node-side configuration and architecture
# ----------------------------------------------------------------------
class TestBatchGate:
    def test_default_config_is_batch_capable(self):
        # Under the default config every architecture's node shares one
        # stream key, and a stream built on any of them fits the others.
        traces = build_traces("mg", 1, SETTINGS)
        nodes = [FamSystem(default_config(), arch, seed=SEED).nodes[0]
                 for arch in ("e-fam", "i-fam", "deact-w", "deact-n")]
        assert len({split.stream_key(node) for node in nodes}) == 1
        for producer in nodes:
            stream = split.functional_pass(
                FamSystem(default_config(), producer.architecture.key,
                          seed=SEED).nodes[0], traces[0].decoded())
            assert all(stream.fits(node) for node in nodes)

    def test_unknown_policy_bails_out_to_fast(self):
        # A node-side change (here the data-cache replacement policy)
        # must miss the memo: the run simulates its own node side.
        traces = build_traces("mg", 1, SETTINGS)
        FamSystem(default_config(), "i-fam", seed=SEED).run(traces)
        config = _policy_config("fifo")
        system = FamSystem(config, "i-fam", seed=SEED)
        result = system.run(traces, benchmark="mg")
        assert system.stream_counts == {"built": 1, "reused": 0,
                                        "refused": 0}
        reference = FamSystem(config, "i-fam", seed=SEED).run(
            build_traces("mg", 1, SETTINGS), benchmark="mg",
            mode="reference")
        assert _result_to_dict(result) == _result_to_dict(reference)

    def test_architecture_opt_out_bails_out_to_fast(self):
        # An architecture whose translation-cache carve-out changes the
        # node's frame allocations refuses the stream and builds its own.
        config = default_config()
        config = config.replace(local_memory=dataclasses.replace(
            config.local_memory, size_bytes=1 * MIB + 64 * KIB))
        traces = build_traces("mcf", 1, SETTINGS)
        FamSystem(config, "e-fam", seed=SEED).run(traces)
        system = FamSystem(config, "deact-n", seed=SEED)
        result = system.run(traces, benchmark="mcf")
        assert system.stream_counts == {"built": 1, "reused": 0,
                                        "refused": 1}
        reference = FamSystem(config, "deact-n", seed=SEED).run(
            build_traces("mcf", 1, SETTINGS), benchmark="mcf",
            mode="reference")
        assert _result_to_dict(result) == _result_to_dict(reference)

    def test_unknown_mode_rejected(self):
        from repro.errors import ConfigError

        traces = build_traces("mg", 1, SETTINGS)
        with pytest.raises(ConfigError):
            FamSystem(default_config(), "e-fam").run(
                traces, benchmark="mg", mode="warp")


# ----------------------------------------------------------------------
# Windowed split/reference interleave (the mid-trace property)
# ----------------------------------------------------------------------
def _drive_windowed(system, trace, widths, benchmark):
    """Run ``trace`` on a single-node system as alternating split
    windows (functional pass plus timing replay of the window) and
    reference-loop windows of the given widths (cycled), then assemble
    the same RunResult ``FamSystem.run`` would.  Returns the result
    and the number of events the split windows replayed."""
    node = system.nodes[0]
    cursor = 0
    index = 0
    replayed = 0
    n = len(trace)
    while cursor < n:
        width = widths[index % len(widths)]
        stop = min(cursor + width, n)
        if index % 2 == 0:
            decoded = trace.slice(cursor, stop).decoded(
                system.config.page_bytes, system.config.block_bytes)
            stream = split.functional_pass(node, decoded)
            generator = split.replay(node, decoded, stream)
            next(generator)
            split.run_replays([node], [generator])
            replayed += len(stream)
        else:
            for position in range(cursor, stop):
                reference_step(node, trace[position])
        cursor = stop
        index += 1
    node.drain()
    return _assemble(system, benchmark), replayed


class TestWindowedInterleave:
    @pytest.mark.parametrize("widths", [(1,), (7, 3), (64, 1, 9),
                                        (500, 333)])
    def test_alternating_windows_match_reference(self, widths):
        trace = hot_loop_trace(SETTINGS.n_events, seed=21)
        seed = 909
        reference = FamSystem(default_config(), "deact-w", seed=seed).run(
            [trace], benchmark="hot-loop", mode="reference")
        system = FamSystem(default_config(), "deact-w", seed=seed)
        windowed, _ = _drive_windowed(system, trace, widths, "hot-loop")
        assert _result_to_dict(windowed) == _result_to_dict(reference)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_windows_match_reference_and_telemetry(self, seed):
        rng = random.Random(seed)
        widths = tuple(rng.randrange(1, 400) for _ in range(8))
        trace = build_traces("bc", 1, SETTINGS)[0]
        ref_system = FamSystem(default_config(), "deact-n", seed=SEED)
        reference = ref_system.run([trace], benchmark="bc",
                                   mode="reference")
        system = FamSystem(default_config(), "deact-n", seed=SEED)
        windowed, _ = _drive_windowed(system, trace, widths, "bc")
        assert _result_to_dict(windowed) == _result_to_dict(reference)
        # Raw telemetry counters, not just the serialized result: the
        # functional pass must keep every probe census in lockstep.
        ref_node = ref_system.nodes[0]
        node = system.nodes[0]
        assert node.mmu.tlb.l1.hits == ref_node.mmu.tlb.l1.hits
        assert node.mmu.tlb.l1.misses == ref_node.mmu.tlb.l1.misses
        assert node.mmu.tlb.l2.accesses == ref_node.mmu.tlb.l2.accesses
        assert node.caches._l1.hits == ref_node.caches._l1.hits
        assert node.caches._l1.misses == ref_node.caches._l1.misses
        assert node.mmu.walks == ref_node.mmu.walks
        assert node.window.admissions == ref_node.window.admissions
        assert node.tag_store_probes() == ref_node.tag_store_probes()

    def test_batch_tier_actually_batches(self):
        """Guard against a vacuous proof: the windowed drive really
        replays most events from streams, and a replay touches no
        node-side tag store."""
        trace = hot_loop_trace(4000, seed=3)
        system = FamSystem(default_config(), "e-fam", seed=5)
        _result, replayed = _drive_windowed(system, trace, (900, 100),
                                            "hot-loop")
        assert replayed > len(trace) // 2

        node = FamSystem(default_config(), "e-fam", seed=5).nodes[0]
        decoded = trace.decoded()
        stream = split.functional_pass(node, decoded)
        assert stream.codes.count(L1_HIT) > len(trace) // 2
        probes = node.node_side_probes()
        translations = node.mmu.translations
        generator = split.replay(node, decoded, stream)
        next(generator)
        split.run_replays([node], [generator])
        assert node.memory_events == len(trace)
        assert node.node_side_probes() == probes
        assert node.mmu.translations == translations


# ----------------------------------------------------------------------
# L2-refill geometries
# ----------------------------------------------------------------------
def _count_codes(streams, predicate):
    return sum(1 for stream in streams for code in stream.codes
               if predicate(code))


def _tlb_overflow_pages():
    """A hot page set that stays TLB-L1 resident and a warm set that
    overflows L1 into the L2 TLB."""
    probe = FamSystem(default_config(), "e-fam", seed=5).nodes[0]
    tlb_l1 = probe.mmu.tlb.l1
    t1_cap = tlb_l1.n_sets * tlb_l1.associativity
    n_pages = t1_cap + t1_cap // 2
    base = 0x3000_0000
    # Stagger each page's single block so the data-L1 sets spread
    # (page-aligned addresses would all collide into set 0 and the
    # data side, not the TLB, would take the refills).
    pages = [base + i * 4096 + (i * 64) % 4096 for i in range(n_pages)]
    return pages[:t1_cap // 2], pages[t1_cap // 2:], probe


class TestRefillExtendedRuns:
    """Hit stretches broken by TLB-L2 and data-L2 refills: the stream
    records the refill levels, and replaying them is bit-identical to
    the reference path."""

    def test_data_l2_refills_extend_runs(self):
        # Hot blocks that fit L1 plus excursions to a small set of
        # page-aligned addresses.  Page-aligned physical blocks all
        # map to data-L1 set 0, so twice the associativity of them
        # thrash that one L1 set while staying resident in the much
        # larger L2: each excursion is a data-L2 hit mid-stretch.
        probe = FamSystem(default_config(), "e-fam", seed=5).nodes[0]
        l1 = probe.caches._l1
        l1_cap = l1.n_sets * l1.associativity
        assert (4096 // 64) % l1.n_sets == 0
        rng = random.Random(42)
        base = 0x2000_0000
        hot = [base + i * 64 for i in range(l1_cap // 2)]
        medium_base = base + l1_cap * 64
        medium = [medium_base + i * 4096
                  for i in range(2 * l1.associativity)]
        vaddrs = [rng.choice(hot) if rng.random() < 0.92
                  else rng.choice(medium) for _ in range(6000)]
        trace = _flat_trace(vaddrs)
        reference = FamSystem(default_config(), "e-fam", seed=5).run(
            [trace], benchmark="ext-kernel", mode="reference")
        system = FamSystem(default_config(), "e-fam", seed=5)
        fast = system.run([trace], benchmark="ext-kernel")
        assert _result_to_dict(fast) == _result_to_dict(reference)
        (stream,) = trace.stream_memo().get(
            split.stream_key(system.nodes[0]))
        l2_hits = _count_codes(
            [stream], lambda code: (code >> split.DATA_SHIFT) & 3 == 2)
        assert l2_hits > 50  # the geometry really refills from L2

    def test_tlb_l2_refills_extend_runs(self):
        hot, warm, probe = _tlb_overflow_pages()
        assert (probe.mmu.tlb.l2.n_sets * probe.mmu.tlb.l2.associativity
                >= len(hot) + len(warm))
        rng = random.Random(7)
        vaddrs = [rng.choice(hot) if rng.random() < 0.92
                  else rng.choice(warm) for _ in range(6000)]
        trace = _flat_trace(vaddrs)
        reference = FamSystem(default_config(), "e-fam", seed=5).run(
            [trace], benchmark="ext-kernel", mode="reference")
        system = FamSystem(default_config(), "e-fam", seed=5)
        fast = system.run([trace], benchmark="ext-kernel")
        assert _result_to_dict(fast) == _result_to_dict(reference)
        (stream,) = trace.stream_memo().get(
            split.stream_key(system.nodes[0]))
        assert _count_codes(
            [stream], lambda code: code & split.TLB_MASK == 2) > 50

    def test_tlb_l2_refills_extend_runs_multi_node(self):
        # The same hot/warm TLB-overflow geometry, one trace per node
        # through the interleaved replay driver: a node replaying a
        # stretch must not reorder any shared-state access of the
        # others, including around TLB-L2 refills.
        hot, warm, _probe = _tlb_overflow_pages()

        def node_traces():
            traces = []
            for node_seed in (7, 8, 9):
                rng = random.Random(node_seed)
                traces.append(_flat_trace(
                    [rng.choice(hot) if rng.random() < 0.92
                     else rng.choice(warm) for _ in range(3000)]))
            return traces

        config = with_nodes(default_config(), 3)
        reference = FamSystem(config, "e-fam", seed=5).run(
            node_traces(), benchmark="ext-kernel", mode="reference")
        traces = node_traces()
        system = FamSystem(config, "e-fam", seed=5)
        fast = system.run(traces, benchmark="ext-kernel")
        assert _result_to_dict(fast) == _result_to_dict(reference)
        streams = [stream
                   for node, trace in zip(system.nodes, traces)
                   for stream in trace.stream_memo().get(
                       split.stream_key(node))]
        assert len(streams) == 3
        assert _count_codes(
            streams, lambda code: code & split.TLB_MASK == 2) > 50
