"""Soundness of the functional/timing split (:mod:`repro.core.split`).

The fast path simulates each node's side once per trace and replays
only the FAM-side timing per architecture.  That is exact only while
four properties hold, each tested here:

* **architecture blindness** — the stream a node's functional pass
  builds is byte-identical whichever architecture the node belongs
  to, and the pass never touches the FAM side;
* **reuse equivalence** — runs that replay a memoized stream match
  the reference oracle bit for bit;
* **the frame rule** — a stream is refused when the DeACT carve-out
  would change the node's local-frame allocations, and results stay
  identical;
* **warm nodes** — a node that has already run never takes a stream
  memoized for a fresh node;

plus the completeness of the reuse key over every ``SystemConfig``
field.
"""

import dataclasses

import pytest

from repro.config.presets import default_config, with_nodes
from repro.config.system import KIB, MIB, SystemConfig
from repro.core import split
from repro.core.system import FamSystem
from repro.experiments.runner import (
    ExperimentRunner,
    RunSettings,
    _result_to_dict,
    build_traces,
)
from repro.workloads.catalog import benchmark_names

SETTINGS = RunSettings(n_events=800, footprint_scale=0.01, seed=5)
SEED = SETTINGS.seed * 31 + 5
ARCHITECTURES = ("e-fam", "i-fam", "deact-w", "deact-n")
POLICIES = ("lru", "fifo", "random")


def _policy_config(policy, nodes=1):
    config = default_config()
    config = config.replace(
        l1=dataclasses.replace(config.l1, replacement=policy),
        l2=dataclasses.replace(config.l2, replacement=policy),
        l3=dataclasses.replace(config.l3, replacement=policy))
    return with_nodes(config, nodes) if nodes > 1 else config


def _streams(config, architecture, traces):
    """Build every node's stream with a functional pass on a fresh
    system of ``architecture``."""
    system = FamSystem(config, architecture, seed=SEED)
    streams = []
    for node, trace in zip(system.nodes, traces):
        decoded = trace.decoded(config.page_bytes, config.block_bytes)
        streams.append(split.functional_pass(node, decoded))
    return streams


def _signature(stream):
    return (stream.columns(), stream.local_frames_used,
            stream.local_capped, stream.llc_misses, stream.tlb_hit_rate,
            stream.node_walks, stream.node_probes,
            sorted(stream.counters.items()))


def _reference(config, architecture, traces, benchmark):
    return _result_to_dict(FamSystem(config, architecture, seed=SEED).run(
        traces, benchmark=benchmark, mode="reference"))


class TestArchitectureBlindness:
    @pytest.mark.parametrize("nodes", (1, 2, 4))
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("bench", benchmark_names())
    def test_stream_identical_on_every_architecture(self, bench, policy,
                                                    nodes):
        config = _policy_config(policy, nodes)
        traces = build_traces(bench, nodes, SETTINGS)
        signatures = [[_signature(stream)
                       for stream in _streams(config, arch, traces)]
                      for arch in ARCHITECTURES]
        assert all(sig == signatures[0] for sig in signatures[1:])

    def test_functional_pass_touches_no_fam_side(self, monkeypatch):
        system = FamSystem(default_config(), "deact-n", seed=SEED)
        node = system.nodes[0]

        def forbidden(*args, **kwargs):
            raise AssertionError("functional pass reached the FAM side")

        for owner, name in ((node.broker, "ensure_mapped"),
                            (node.broker, "translate"),
                            (node.dram, "access"), (node.fam, "access"),
                            (node.fabric, "node_to_stu_arrival"),
                            (node.fabric, "stu_to_fam_arrival"),
                            (node.stu, "verify_access_fast"),
                            (node.fam_translator, "lookup_fast"),
                            (node.architecture, "fam_access_fast")):
            monkeypatch.setattr(owner, name, forbidden)
        trace = build_traces("mcf", 1, SETTINGS)[0]
        stream = split.functional_pass(node, trace.decoded())
        assert len(stream) == len(trace)
        assert len(stream.grant_pages) == stream.counters["frames.fam"]

    def test_stream_is_compact(self):
        trace = build_traces("mcf", 1, RunSettings(
            n_events=4000, footprint_scale=0.02, seed=5))[0]
        (stream,) = _streams(default_config(), "e-fam", [trace])
        assert stream.nbytes < 32 * len(stream)


class TestReuse:
    @pytest.mark.parametrize("nodes", (1, 2))
    @pytest.mark.parametrize("bench", ("mcf", "pf", "dc", "cc"))
    def test_back_to_back_architectures_match_reference(self, bench,
                                                        nodes):
        config = _policy_config("lru", nodes)
        traces = build_traces(bench, nodes, SETTINGS)
        for index, arch in enumerate(ARCHITECTURES):
            system = FamSystem(config, arch, seed=SEED)
            fast = _result_to_dict(system.run(traces, benchmark=bench))
            expected = {"built": 0 if index else nodes,
                        "reused": nodes if index else 0, "refused": 0}
            assert system.stream_counts == expected
            fresh = build_traces(bench, nodes, SETTINGS)
            assert fast == _reference(config, arch, fresh, bench)

    def test_adopting_node_reports_stream_summary(self):
        traces = build_traces("mcf", 1, SETTINGS)
        first = FamSystem(default_config(), "e-fam", seed=SEED)
        first.run(traces)
        second = FamSystem(default_config(), "deact-n", seed=SEED)
        result = second.run(traces)
        node = second.nodes[0]
        assert second.stream_counts["reused"] == 1
        # Its own node-side structures stayed cold...
        assert node.mmu.translations == 0
        assert node.caches.llc_miss_count() == 0
        # ...while its metrics carry the stream's outcome.
        producer = first.nodes[0]
        assert result.nodes[0].llc_misses == \
            producer.caches.llc_miss_count()
        assert result.nodes[0].node_walks == producer.mmu.walks
        assert result.nodes[0].counters["page_faults"] == \
            producer.stats.get("page_faults")

    def test_runner_reports_reuse_telemetry(self):
        runner = ExperimentRunner(SETTINGS)
        for arch in ARCHITECTURES:
            runner.run("mg", arch)
        summary = runner.telemetry_summary()
        assert summary["streams_built"] == 1.0
        assert summary["streams_reused"] == 3.0
        assert summary["streams_refused"] == 0.0


def _tiny_local_config():
    """Local memory barely larger than the DeACT translation cache, so
    the carve-out leaves DeACT nodes a handful of local frames."""
    config = default_config()
    return config.replace(local_memory=dataclasses.replace(
        config.local_memory, size_bytes=1 * MIB + 64 * KIB))


class TestFrameRule:
    def test_carve_out_refuses_reuse_and_stays_exact(self):
        config = _tiny_local_config()
        traces = build_traces("mcf", 1, SETTINGS)
        counts = {}
        for arch in ARCHITECTURES:
            system = FamSystem(config, arch, seed=SEED)
            fast = _result_to_dict(system.run(traces, benchmark="mcf"))
            counts[arch] = system.stream_counts
            fresh = build_traces("mcf", 1, SETTINGS)
            assert fast == _reference(config, arch, fresh, "mcf")
        assert counts["e-fam"] == {"built": 1, "reused": 0, "refused": 0}
        assert counts["i-fam"] == {"built": 0, "reused": 1, "refused": 0}
        # The carve-out exhausts DeACT's local frames: E-FAM's stream
        # no longer describes its allocations.
        assert counts["deact-w"] == {"built": 1, "reused": 0,
                                     "refused": 1}
        # DeACT-N has DeACT-W's capacity, so it takes that stream.
        assert counts["deact-n"] == {"built": 0, "reused": 1, "refused": 0}

    def test_exhausted_stream_records_the_cap(self):
        config = _tiny_local_config()
        traces = build_traces("mcf", 1, SETTINGS)
        (capped,) = _streams(config, "deact-n", traces)
        (roomy,) = _streams(config, "e-fam", traces)
        assert capped.local_capped
        assert not roomy.local_capped
        assert roomy.local_frames_used > capped.local_frame_capacity
        deact = FamSystem(config, "deact-w", seed=SEED).nodes[0]
        efam = FamSystem(config, "e-fam", seed=SEED).nodes[0]
        assert not roomy.fits(deact)
        assert capped.fits(deact)
        assert not capped.fits(efam)

    def test_uncapped_stream_fits_smaller_capacity(self):
        traces = build_traces("mcf", 1, SETTINGS)
        (stream,) = _streams(default_config(), "e-fam", traces)
        deact = FamSystem(default_config(), "deact-n", seed=SEED).nodes[0]
        assert deact.local_frame_capacity < stream.local_frame_capacity
        assert stream.fits(deact)


class TestWarmNodes:
    @pytest.mark.parametrize("first_mode", ("fast", "reference"))
    def test_second_run_builds_its_own_stream(self, first_mode):
        first, second = (build_traces(bench, 1, SETTINGS)
                         for bench in ("mcf", "dc"))
        # Memoize fresh-node streams for both traces.
        FamSystem(default_config(), "e-fam", seed=SEED).run(first)
        FamSystem(default_config(), "e-fam", seed=SEED).run(second)

        system = FamSystem(default_config(), "deact-n", seed=SEED)
        system.run(first, mode=first_mode)
        result = system.run(second)
        assert system.stream_counts == {"built": 1, "reused": 0,
                                        "refused": 0}

        oracle = FamSystem(default_config(), "deact-n", seed=SEED)
        oracle.run(build_traces("mcf", 1, SETTINGS), mode="reference")
        expected = oracle.run(build_traces("dc", 1, SETTINGS),
                              mode="reference")
        assert _result_to_dict(result) == _result_to_dict(expected)

    def test_reference_after_adopted_run_matches(self):
        first = build_traces("mcf", 1, SETTINGS)
        FamSystem(default_config(), "e-fam", seed=SEED).run(first)
        system = FamSystem(default_config(), "i-fam", seed=SEED)
        system.run(first)
        assert system.stream_counts["reused"] == 1
        result = system.run(build_traces("dc", 1, SETTINGS),
                            mode="reference")

        oracle = FamSystem(default_config(), "i-fam", seed=SEED)
        oracle.run(build_traces("mcf", 1, SETTINGS), mode="reference")
        expected = oracle.run(build_traces("dc", 1, SETTINGS),
                              mode="reference")
        assert _result_to_dict(result) == _result_to_dict(expected)

    def test_warm_stream_is_not_memoized(self):
        traces = build_traces("mcf", 1, SETTINGS)
        system = FamSystem(default_config(), "e-fam", seed=SEED)
        system.run(build_traces("dc", 1, SETTINGS))
        system.run(traces)
        later = FamSystem(default_config(), "e-fam", seed=SEED)
        later.run(traces)
        assert later.stream_counts == {"built": 1, "reused": 0,
                                       "refused": 0}


def _leaf_paths(cls, prefix=""):
    for field in dataclasses.fields(cls):
        path = prefix + field.name
        default = (field.default_factory()
                   if field.default_factory is not dataclasses.MISSING
                   else field.default)
        if dataclasses.is_dataclass(default):
            yield from _leaf_paths(type(default), path + ".")
        else:
            yield path


class TestReuseKey:
    def test_every_config_field_is_classified(self):
        # A new SystemConfig field must be placed in the node-side key,
        # the frame rule or the FAM-side list, or stream reuse could
        # silently ignore it.
        listed = (split.NODE_SIDE_FIELDS + split.LOCAL_FRAME_FIELDS
                  + split.FAM_SIDE_FIELDS)
        assert len(listed) == len(set(listed)), "a field is listed twice"
        leaves = set(_leaf_paths(SystemConfig))
        assert leaves - set(listed) == set(), "unclassified fields"
        assert set(listed) - leaves == set(), "stale field names"

    def test_key_ignores_fam_side_and_tracks_node_side(self):
        base = default_config()
        node = FamSystem(base, "e-fam", seed=SEED).nodes[0]
        fam_side = base.replace(stu=dataclasses.replace(base.stu,
                                                        entries=256))
        other_node = FamSystem(fam_side, "deact-n", seed=SEED).nodes[0]
        assert split.stream_key(node) == split.stream_key(other_node)
        node_side = base.replace(l3=dataclasses.replace(
            base.l3, size_bytes=2 * MIB))
        changed = FamSystem(node_side, "e-fam", seed=SEED).nodes[0]
        assert split.stream_key(node) != split.stream_key(changed)
        reseeded = FamSystem(base, "e-fam", seed=SEED + 1).nodes[0]
        assert split.stream_key(node) != split.stream_key(reseeded)


class TestRemovedTier:
    def test_batch_mode_raises_config_error(self):
        from repro.errors import ConfigError

        system = FamSystem(default_config(), "e-fam", seed=SEED)
        with pytest.raises(ConfigError,
                           match="unknown execution mode 'batch'"):
            system.run(build_traces("mg", 1, SETTINGS), mode="batch")
