"""Core per-event loop microbenchmark: the two execution tiers.

Measures the per-event simulation core by running the same traces
through every tier on fresh systems each time:

* ``reference`` — the frozen seed loop (:mod:`repro.core.refpath`);
* ``fast`` — the functional/timing split (:mod:`repro.core.split`),
  timed cold: every sample simulates the node side again.

Workloads: ``mcf``, ``lu`` and ``bc`` from the catalog (pointer
chasing and miss-heavy: the cells that gate the fast tier), plus the
hit-dominated ``hotspot`` kernel and synthetic ``hot-loop`` sweep as
diagnostics for the on-chip hit path.  Every cell is first checked
bit-identical across tiers — a fast-but-wrong path must not win the
benchmark.

The measurement pass is shared with ``deact bench``
(:mod:`repro.experiments.bench`) and always *appends* the census to
the ``BENCH_core_loop.json`` trajectory (override the path with
``REPRO_BENCH_JSON``) so later changes can track the events/s
trajectory per tier; regression gating against the committed baseline
is ``deact bench compare --against-baseline`` (the CI step), which
scores every (benchmark, architecture, tier) cell.

Smoke mode (``REPRO_BENCH_CORE_SMOKE=1``, the CI microbenchmark step)
shrinks the trace and skips the wall-clock ratio gates — sub-100ms
runs on shared runners are too jittery for strict per-run floors.
"""

import os

import pytest

from repro.config.presets import default_config
from repro.core.system import FamSystem
from repro.experiments.bench import (
    DEFAULT_BENCHMARKS,
    build_bench_traces,
    measure_core_loop,
    render_census,
    write_bench_json,
)
from repro.experiments.runner import RunSettings

SMOKE = os.environ.get("REPRO_BENCH_CORE_SMOKE", "") == "1"
SETTINGS = RunSettings(n_events=4000 if SMOKE else 16000,
                       footprint_scale=0.06, seed=13)
ARCHS = ("e-fam", "i-fam", "deact-w", "deact-n")
#: The catalog workloads the speed gates read.
HEADLINE_BENCH = "lu"
SECONDARY_BENCH = "bc"
#: Repeat floor per cell: the harness rotates tiers and tops up
#: short-wall cells to a fixed sample budget (``bench.MIN_SAMPLE_S``),
#: so 3 is the floor the long reference walls settle at, not the
#: sample count the ratio gates ride on.
REPEATS = 3
#: Acceptance gate: the fast tier, timed cold, at >= 2x the seed path
#: on ``lu``.
MIN_FAST_SPEEDUP = 2.0


@pytest.fixture(scope="module")
def core_loop_measurement(tmp_path_factory):
    """One two-tier measurement pass shared by the assertions below;
    always appended to the perf-trajectory JSON.

    Only full-size runs may append to the committed repo-root baseline
    — a smoke pass writes its census to a temp file (or wherever
    ``REPRO_BENCH_JSON`` points) so running the CI command locally
    cannot pollute the real trajectory with 4000-event jitter.
    """
    payload = measure_core_loop(SETTINGS, DEFAULT_BENCHMARKS, ARCHS,
                                repeats=REPEATS)
    payload["smoke"] = SMOKE
    if SMOKE and not os.environ.get("REPRO_BENCH_JSON"):
        out = str(tmp_path_factory.mktemp("bench") /
                  "BENCH_core_loop.json")
    else:
        out = None  # default: $REPRO_BENCH_JSON or the repo-root baseline
    path = write_bench_json(payload, out)
    # Always print the census — this is what the CI smoke step surfaces.
    print()
    print(render_census(payload))
    print(f"  -> {path}")
    return payload


def test_all_tiers_bit_identical(core_loop_measurement):
    # Guard: a fast-but-wrong loop must not win the benchmark.
    assert all(row["identical_to_first_tier"]
               for row in core_loop_measurement["rows"])


def test_bench_json_schema(core_loop_measurement):
    payload = core_loop_measurement
    tiers = {row["tier"] for row in payload["rows"]}
    assert tiers == {"reference", "fast"}
    for bench in DEFAULT_BENCHMARKS:
        aggregate = payload["aggregates"][bench]
        assert "fast_speedup_vs_reference" in aggregate
        assert all(rate > 0
                   for rate in aggregate["events_per_sec"].values())


def test_core_loop_speedup(core_loop_measurement):
    """The fast tier, timed cold, >= 2x the seed on ``lu``."""
    if SMOKE:
        pytest.skip("ratio gate needs full-size traces on a quiet "
                    "machine; smoke mode prints the census only")
    aggregate = core_loop_measurement["aggregates"][HEADLINE_BENCH]
    assert aggregate["fast_speedup_vs_reference"] >= MIN_FAST_SPEEDUP, (
        f"core loop fast-vs-seed speedup "
        f"{aggregate['fast_speedup_vs_reference']:.2f}x on "
        f"{HEADLINE_BENCH} fell below {MIN_FAST_SPEEDUP}x")


def test_secondary_workload_speedup(core_loop_measurement):
    """The graph-reuse workload must also clearly beat the seed path
    (floor below the headline gate: more FAM-path dilution)."""
    if SMOKE:
        pytest.skip("ratio gate needs full-size traces on a quiet "
                    "machine; smoke mode prints the census only")
    aggregate = core_loop_measurement["aggregates"][SECONDARY_BENCH]
    assert aggregate["fast_speedup_vs_reference"] >= 1.5


def test_bench_json_appends_trajectory_entry(core_loop_measurement,
                                             tmp_path):
    """Two writes to one path append two provenance-stamped entries —
    the trajectory is a time series, never an overwrite."""
    from repro.experiments.bench import write_bench_json
    from repro.experiments.trajectory import load_trajectory

    path = str(tmp_path / "trajectory.json")
    write_bench_json(core_loop_measurement, path)
    write_bench_json(core_loop_measurement, path)
    trajectory = load_trajectory(path)
    assert len(trajectory["entries"]) == 2
    for entry in trajectory["entries"]:
        assert entry["provenance"]["hostname"]
        assert entry["settings_fingerprint"]


def test_bench_core_loop_fast_path(benchmark):
    """pytest-benchmark record of the production (fast) path."""
    traces = build_bench_traces(HEADLINE_BENCH, SETTINGS)
    config = default_config()

    def run():
        return FamSystem(config, "deact-n",
                         seed=SETTINGS.seed * 31 + 5).run(
            traces, benchmark=HEADLINE_BENCH)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.nodes[0].memory_accesses == SETTINGS.n_events
