"""Tests of the benchmark itself, at a tiny trace scale.

Each workload must print every metric ``BENCHMARK.json`` names, with
its unit, fail no job, and (traced) reconcile every traced count with
the simulator's own counters.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

from perfbench.checks import digest, project
from perfbench.metrics import END_TO_END, LAYER_METRICS, job_tail
from perfbench.tracer import Hook, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
TINY = ["--events", "800", "--footprint-scale", "0.01", "--seconds", "1"]

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)


def _bench(*args, cwd=ROOT):
    done = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)
    return done


def _result(done) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_workload_prints_every_metric(workload, trace):
    done = _bench("--workload", workload, "--seed", "5", "--trace", trace,
                  *TINY)
    result = _result(done)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {name: value["unit"] for name, value in
            result["metrics"].items()} == {m["name"]: m["unit"]
                                           for m in wanted}
    for name, value in result["metrics"].items():
        assert isinstance(value["value"], float), name
    if trace == "1":
        metrics = result["metrics"]
        assert metrics["trace.reconcile_mismatches"]["value"] == 0
        for layer in ("core", "tlb", "cache", "stu", "acm", "translator",
                      "architectures", "fabric", "mem", "broker",
                      "pagetable", "workloads", "experiments"):
            assert metrics[f"{layer}.calls"]["value"] > 0, layer
            assert metrics[f"{layer}.self_s"]["value"] > 0, layer
    else:
        for name, value in result["metrics"].items():
            assert value["value"] > 0, name
    for line in ("job_p50_s:", "job_tail_s:", "failed_frac: 0.0000",
                 "claims_held:"):
        assert line in done.stdout


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _bench("--workload", "main-matrix", "--seed", "1", "--trace",
                  "0", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def _passes_of_seed(seed: str) -> list:
    """Live pass processes (and their workers) started with ``seed``."""
    found = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                args = handle.read().split(b"\0")
        except OSError:
            continue
        if b"perfbench.passrun" in args and seed.encode() in args:
            found.append(pid)
    return found


def _wait_until(condition, seconds: float) -> bool:
    deadline = time.monotonic() + seconds
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


def test_sigterm_stops_every_pass_process_and_prints_no_result(tmp_path):
    # A pass at this scale runs for several seconds, so a pass the
    # benchmark left behind would outlive the grace period below.  Output
    # goes to files: a leftover pass holding a pipe would delay the wait.
    seed = "424242"
    out = tmp_path / "stdout"
    with open(out, "w", encoding="utf-8") as stdout:
        bench = subprocess.Popen(
            [sys.executable, "perfbench/run.py", "--workload", "stu-sweep",
             "--seed", seed, "--trace", "0", "--events", "20000",
             "--footprint-scale", "0.01", "--seconds", "1"],
            cwd=ROOT, stdout=stdout, stderr=subprocess.DEVNULL)
        try:
            # The pass process and at least one sweep worker.
            assert _wait_until(lambda: len(_passes_of_seed(seed)) >= 2, 60)
            bench.terminate()
            bench.wait(timeout=60)
        finally:
            bench.kill()
            bench.wait(timeout=60)
    assert bench.returncode != 0
    assert '"metrics"' not in out.read_text(encoding="utf-8")
    assert _wait_until(lambda: not _passes_of_seed(seed), 2)


def test_spec_documents_every_metric():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(END_TO_END)
    assert [m["name"] for m in SPEC["per_layer"]] == list(LAYER_METRICS)
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in SPEC["end_to_end"])


def test_self_time_excludes_child_spans():
    class Layered:
        def outer(self):
            time.sleep(0.02)
            self.inner()

        def inner(self):
            time.sleep(0.03)

    tracer = Tracer([Hook("a", "outer", [(Layered, "outer")]),
                     Hook("b", "inner", [(Layered, "inner")])],
                    record_dir=".", span_cap=10)
    tracer.install()
    try:
        Layered().outer()
    finally:
        tracer.uninstall()
    record = tracer.drain(job="t")
    assert record["calls"] == {"outer": 1, "inner": 1}
    outer, inner = record["spans"]
    assert inner[3] == 0 and outer[3] == -1
    inner_s = inner[2] - inner[1]
    assert record["self_s"]["inner"] == pytest.approx(inner_s, abs=1e-9)
    assert record["self_s"]["outer"] == pytest.approx(
        outer[2] - outer[1] - inner_s, abs=1e-9)
    assert record["self_s"]["outer"] >= 0.02 and inner_s >= 0.03
    assert not hasattr(Layered.outer, "__wrapped__")  # uninstalled


def test_digest_ignores_added_counters_but_not_changed_values():
    from repro.core.results import NodeMetrics, RunResult

    def result(counters):
        return RunResult("i-fam", "mcf", [NodeMetrics(
            0, 10, 5, 20.0, 9.5, counters=counters)],
            fam_counters={"accesses": 3.0})

    projection = {"fam_counters": ["accesses"], "fabric_counters": [],
                  "node_counters": ["mem.fam"]}
    base = digest(project(result({"mem.fam": 2.0}), projection))
    assert digest(project(result({"mem.fam": 2.0, "new": 1.0}),
                          projection)) == base
    assert digest(project(result({"mem.fam": 3.0}), projection)) != base


def test_job_tail_needs_eleven_jobs():
    assert job_tail([float(i) for i in range(10)]) is None
    assert job_tail([float(i) for i in range(11)]) == (0.0, 100.0 / 11)
    wall, percentile = job_tail([float(i) for i in range(60)])
    assert wall == 49.0 and round(percentile, 1) == 83.3
