"""Property tests for how the timing replay is scheduled.

:func:`repro.core.split.replay` is a generator that charges events
until its node's core time passes a limit, and
:func:`repro.core.split.run_replays` drives one per node in global
core-time order.  The headline property: how the replay is cut into
windows never affects results.  A replay forced to yield after every
single event must reproduce ``mode="fast"`` bit-identically — clock,
counters, tag probes — on every catalog workload, and a per-event heap
driver over the same generators must match the whole-stretch driver.
The rest pins the stream's column invariants and the per-run stream
census (``FamSystem.stream_counts`` and its runner telemetry).
"""

import heapq

import pytest

from repro.config.presets import default_config, with_nodes
from repro.core import split
from repro.core.results import RunResult
from repro.core.system import FamSystem
from repro.experiments.report import render_telemetry
from repro.experiments.runner import (
    ExperimentRunner,
    RunSettings,
    _result_to_dict,
    build_traces,
)
from repro.workloads.catalog import benchmark_names

SETTINGS = RunSettings(n_events=1000, footprint_scale=0.01, seed=5)
SEED = SETTINGS.seed * 31 + 5
_INF = float("inf")


def _run_fast(trace, benchmark):
    """The fast tier through ``FamSystem.run`` — the oracle for the
    windowing properties."""
    system = FamSystem(default_config(), "deact-n", seed=SEED)
    result = system.run([trace], benchmark=benchmark, mode="fast")
    node = system.nodes[0]
    return (_result_to_dict(result), node.core_time_ns,
            system.tag_store_probes())


def _run_windowed(trace, benchmark, next_limit):
    """A functional pass, then the replay driven one window at a time:
    each window ends once the core time passes ``next_limit(now)``.
    Returns the assembled result, clock, probes and window count."""
    system = FamSystem(default_config(), "deact-n", seed=SEED)
    node = system.nodes[0]
    decoded = trace.decoded(system.config.page_bytes,
                            system.config.block_bytes)
    stream = split.functional_pass(node, decoded)
    generator = split.replay(node, decoded, stream)
    now = next(generator)
    windows = 0
    while True:
        try:
            now = generator.send((next_limit(now), False))
        except StopIteration:
            break
        windows += 1
    node.drain()
    result = RunResult(
        architecture=system.architecture.key, benchmark=benchmark,
        nodes=[node.metrics()],
        fam_counters=system.fam.stats.snapshot(),
        fabric_counters=system.fabric.stats.snapshot())
    return (_result_to_dict(result), node.core_time_ns,
            system.tag_store_probes(), windows)


def _decode_columns(stream):
    """Walk a stream's columns the way the replay consumes them;
    returns how many step bytes, addresses, grant records and granted
    pages the codes call for."""
    steps = addrs = grants = 0
    for code in stream.codes:
        tlb_level = code & split.TLB_MASK
        assert tlb_level in (0, 1, 2)
        if code & split.GRANT:
            grants += 1
        if not tlb_level:
            for _ in range((code >> split.WALK_SHIFT) + 1):
                step = stream.steps[steps]
                steps += 1
                assert step & ~(split.STEP_LEVEL | split.STEP_WRITEBACK) \
                    == 0
                addrs += bool(step & split.STEP_WRITEBACK)
                addrs += not step & split.STEP_LEVEL
        level = (code >> split.DATA_SHIFT) & 3
        if level != 1:
            addrs += bool(code & split.DATA_WRITEBACK)
            addrs += not level
        else:
            assert not code & split.DATA_WRITEBACK
    return steps, addrs, grants, sum(stream.grant_counts)


class TestDegeneratePlan:
    """A replay forced to one event per window IS the fast path."""

    @pytest.mark.parametrize("bench", benchmark_names())
    def test_all_length_one_segments_match_step_fast(self, bench):
        trace = build_traces(bench, 1, SETTINGS)[0]
        fast_result, fast_clock, fast_probes = _run_fast(trace, bench)
        result, clock, probes, windows = _run_windowed(
            trace, bench, lambda _now: -_INF)
        assert result == fast_result
        assert clock == fast_clock        # bit-identical, not approx
        assert probes == fast_probes
        # Every event really went through a window of its own.
        assert windows == len(trace)

    def test_coarse_scalar_plan_matches_too(self):
        # Windowing must never affect results: an arbitrary time
        # quantum (here a prime number of nanoseconds, so windows
        # straddle every natural boundary) is as bit-identical as
        # per-event windows.
        trace = build_traces("mcf", 1, SETTINGS)[0]
        fast_result, fast_clock, fast_probes = _run_fast(trace, "mcf")
        result, clock, probes, windows = _run_windowed(
            trace, "mcf", lambda now: now + 97.0)
        assert (result, clock, probes) == (fast_result, fast_clock,
                                           fast_probes)
        assert 1 < windows < len(trace)


class TestPlannerSegments:
    """Structural invariants of the streams a functional pass emits."""

    @pytest.mark.parametrize("bench", ("hotspot", "bc"))
    def test_segments_are_contiguous_and_typed(self, bench):
        trace = build_traces(bench, 1, SETTINGS)[0]
        node = FamSystem(default_config(), "deact-n", seed=SEED).nodes[0]
        stream = split.functional_pass(node, trace.decoded())
        assert len(stream) == len(trace)
        steps, addrs, grants, pages = _decode_columns(stream)
        # The codes account for every byte of every other column.
        assert steps == len(stream.steps)
        assert addrs == len(stream.addrs)
        assert grants == len(stream.grant_counts)
        assert pages == len(stream.grant_pages)
        assert all(count > 0 for count in stream.grant_counts)

    def test_hit_dominated_trace_plans_runs(self):
        trace = build_traces("hotspot", 1, SETTINGS)[0]
        node = FamSystem(default_config(), "deact-n", seed=SEED).nodes[0]
        stream = split.functional_pass(node, trace.decoded())
        l1_hits = stream.codes.count(1 | 1 << split.DATA_SHIFT)
        assert l1_hits > len(trace) // 2


class TestSegmentStats:
    """The stream census: ``FamSystem.stream_counts`` per run and the
    runner's ``streams_*`` telemetry."""

    def test_observe_and_merge(self):
        runner = ExperimentRunner(SETTINGS)
        for bench in ("mcf", "dc"):
            for arch in ("e-fam", "deact-n"):
                runner.run(bench, arch)
        per_job = [result.telemetry for result in runner._memo.values()]
        assert sorted(t["streams_built"] for t in per_job) == [0, 0, 1, 1]
        summary = runner.telemetry_summary()
        assert summary["streams_built"] == 2.0
        assert summary["streams_reused"] == 2.0
        assert summary["streams_refused"] == 0.0

    def test_render_mentions_every_kind(self):
        text = render_telemetry({"streams_built": 3.0,
                                 "streams_reused": 9.0,
                                 "streams_refused": 1.0})
        assert "3 built" in text
        assert "9 reused" in text
        assert "1 refused" in text

    def test_system_run_exposes_census(self):
        trace = build_traces("hotspot", 1, SETTINGS)[0]
        system = FamSystem(default_config(), "deact-n", seed=SEED)
        system.run([trace], benchmark="hotspot")
        assert system.stream_counts == {"built": 1, "reused": 0,
                                        "refused": 0}
        (stream,) = trace.stream_memo().get(
            split.stream_key(system.nodes[0]))
        assert len(stream) == len(trace)
        again = FamSystem(default_config(), "e-fam", seed=SEED)
        again.run([trace], benchmark="hotspot")
        assert again.stream_counts == {"built": 0, "reused": 1,
                                       "refused": 0}

    def test_reference_run_has_no_census(self):
        trace = build_traces("mcf", 1, SETTINGS)[0]
        system = FamSystem(default_config(), "deact-n", seed=SEED)
        system.run([trace], benchmark="mcf", mode="reference")
        assert system.stream_counts == {"built": 0, "reused": 0,
                                        "refused": 0}
        assert len(trace.stream_memo()) == 0

    def test_fast_tier_census_is_all_scalar(self):
        # One stream per node on a multi-node fast run, each covering
        # its node's whole trace.
        config = with_nodes(default_config(), 3)
        traces = build_traces("mcf", 3, SETTINGS)
        system = FamSystem(config, "deact-n", seed=SEED)
        system.run(traces, benchmark="mcf")
        assert system.stream_counts == {"built": 3, "reused": 0,
                                        "refused": 0}
        for node, trace in zip(system.nodes, traces):
            (stream,) = trace.stream_memo().get(split.stream_key(node))
            assert len(stream) == len(trace)


class TestScalarExecutorParity:
    def test_advance_matches_run(self):
        # A per-event heap driver (one event per pop, like the
        # reference loop) over the same replays must match
        # run_replays, which lets a node run until it would no longer
        # be the next one popped.
        config = with_nodes(default_config(), 3)
        traces = build_traces("canl", 3, SETTINGS)
        whole = FamSystem(config, "deact-n", seed=SEED)
        expected = whole.run(traces, benchmark="canl")

        stepped = FamSystem(config, "deact-n", seed=SEED)
        replays = []
        for node, trace in zip(stepped.nodes, traces):
            decoded = trace.decoded()
            stream = split.functional_pass(node, decoded)
            replays.append(split.replay(node, decoded, stream))
            next(replays[-1])
        frontier = [(node.core_time_ns, index)
                    for index, node in enumerate(stepped.nodes)]
        heapq.heapify(frontier)
        pops = 0
        while frontier:
            _t, index = heapq.heappop(frontier)
            try:
                node_time = replays[index].send((-_INF, False))
            except StopIteration:
                continue
            pops += 1
            heapq.heappush(frontier, (node_time, index))
        for node in stepped.nodes:
            node.drain()
        result = RunResult(
            architecture=stepped.architecture.key, benchmark="canl",
            nodes=[node.metrics() for node in stepped.nodes],
            fam_counters=stepped.fam.stats.snapshot(),
            fabric_counters=stepped.fabric.stats.snapshot())
        assert pops == sum(len(trace) for trace in traces)
        assert _result_to_dict(result) == _result_to_dict(expected)
        assert [n.core_time_ns for n in stepped.nodes] == \
            [n.core_time_ns for n in whole.nodes]
