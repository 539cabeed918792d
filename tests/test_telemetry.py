"""Per-job timing telemetry: capture, persistence, aggregation.

Telemetry (wall time, events/sec, tag-store probe counts) is
measurement metadata attached to every executed run.  It must flow
into the on-disk result cache and back out on recall, surface in the
CLI and reports, and — critically — never participate in result
equality: two runs of the same job serialize bit-identically even
though their wall clocks differ.
"""

import json

from repro.config.presets import default_config
from repro.core.results import NodeMetrics, RunResult
from repro.experiments.report import render_telemetry
from repro.experiments.runner import (
    ExperimentRunner,
    RunSettings,
    SweepJob,
    _result_from_dict,
    _result_to_dict,
    execute_job,
)

FAST = RunSettings(n_events=1200, footprint_scale=0.01, seed=3)

TELEMETRY_KEYS = ("wall_s", "events", "events_per_sec", "tag_probes",
                  "probes_per_event")


class TestCapture:
    def test_runner_attaches_telemetry(self):
        result = ExperimentRunner(FAST).run("mcf", "deact-n")
        assert result.telemetry is not None
        for key in TELEMETRY_KEYS:
            assert key in result.telemetry
        assert result.telemetry["events"] == FAST.n_events
        assert result.telemetry["wall_s"] > 0
        assert result.telemetry["events_per_sec"] > 0
        # A dozen probes per trace event is the design point; anything
        # below 1/event means the census is broken.
        assert result.telemetry["probes_per_event"] > 1.0

    def test_worker_payload_carries_telemetry(self):
        payload = execute_job(
            SweepJob("mg", "e-fam", default_config(), FAST))
        telemetry = payload["telemetry"]
        for key in TELEMETRY_KEYS:
            assert key in telemetry
        assert telemetry["trace_build_s"] >= 0.0

    def test_tag_probe_census_counts_translation_structures(self):
        from repro.core.system import FamSystem
        from repro.experiments.runner import build_traces

        traces = build_traces("mcf", 1, FAST)
        system = FamSystem(default_config(), "deact-n", seed=99)
        system.run(traces, benchmark="mcf")
        probes = system.tag_store_probes()
        node = system.nodes[0]
        # At minimum: one TLB probe and one L1 probe per event.
        assert probes >= 2 * FAST.n_events
        assert probes == node.tag_store_probes()


class TestEqualitySemantics:
    def test_result_to_dict_excludes_telemetry(self):
        result = ExperimentRunner(FAST).run("mcf", "e-fam")
        assert result.telemetry is not None
        assert "telemetry" not in _result_to_dict(result)

    def test_runresult_equality_ignores_telemetry(self):
        nodes = [NodeMetrics(node_id=0, instructions=10,
                             memory_accesses=5, cycles=1.0,
                             runtime_ns=2.0)]
        a = RunResult("e-fam", "mcf", nodes, telemetry={"wall_s": 1.0})
        b = RunResult("e-fam", "mcf", list(nodes),
                      telemetry={"wall_s": 9.0})
        assert a == b

    def test_two_executions_serialize_identically(self):
        first = execute_job(SweepJob("mcf", "e-fam", default_config(),
                                     FAST))
        second = execute_job(SweepJob("mcf", "e-fam", default_config(),
                                      FAST))
        first.pop("telemetry")
        second.pop("telemetry")
        assert first == second


class TestPersistence:
    def test_cache_round_trips_telemetry(self, tmp_path):
        cache = str(tmp_path / "cache.json")
        executed = ExperimentRunner(FAST, cache_path=cache).run(
            "mcf", "i-fam")
        assert executed.telemetry is not None
        on_disk = json.load(open(cache))
        [entry] = on_disk.values()
        assert entry["telemetry"]["events"] == FAST.n_events
        recalled = ExperimentRunner(FAST, cache_path=cache).run(
            "mcf", "i-fam")
        assert recalled.telemetry is not None
        assert recalled.telemetry["wall_s"] == \
            executed.telemetry["wall_s"]
        assert _result_to_dict(recalled) == _result_to_dict(executed)

    def test_from_dict_without_telemetry_is_none(self):
        data = _result_to_dict(ExperimentRunner(FAST).run("mg", "e-fam"))
        assert _result_from_dict(data).telemetry is None


class TestAggregation:
    def test_summary_over_memoized_runs(self):
        runner = ExperimentRunner(FAST)
        runner.run("mcf", "e-fam")
        runner.run("mg", "e-fam")
        summary = runner.telemetry_summary()
        assert summary["runs"] == 2.0
        assert summary["runs_with_telemetry"] == 2.0
        assert summary["events"] == 2.0 * FAST.n_events
        assert summary["wall_s"] > 0
        assert summary["events_per_sec"] > 0

    def test_render_telemetry(self):
        runner = ExperimentRunner(FAST)
        runner.run("mcf", "e-fam")
        text = render_telemetry(runner.telemetry_summary())
        assert "events per second" in text
        assert "tag-store probes" in text
        assert "node streams       : 1 built, 0 reused, 0 refused" in text
        assert "1 of 1" in text

    def test_empty_runner_summary(self):
        summary = ExperimentRunner(FAST).telemetry_summary()
        assert summary["runs"] == 0.0
        assert summary["events_per_sec"] == 0.0
