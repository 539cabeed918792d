"""The benchmark's three workloads, run through the public harness API.

Each workload is a closed loop over a fixed list of jobs: the next job
starts when a worker frees up.  Every job builds a fresh ``FamSystem``,
so modelled caches, TLBs and the STU start empty in every job, exactly
as the figure runs do; nothing is warmed before statistics start.

* ``main-matrix`` -- the union of the Figure 3/4/9-12 run matrices
  (every catalog benchmark x the four architectures, default
  configuration), executed by ``ExperimentRunner(jobs=1)`` in one
  process with no results cache, then assembled by the figure
  builders.
* ``stu-sweep`` -- Figure 13's STU-size axis on the STU-hostile
  ``canl``/``sssp`` plus ``dc``, for I-FAM and DeACT-N, run by
  ``SweepEngine(jobs=2)`` into a fresh results cache.
* ``multi-node`` -- the Figure 16 cells for ``pf`` and ``dc`` at 2 and
  4 nodes, run serially in-process.

A pass returns the results, the jobs that failed, and a closure that
evaluates the paper's claims from those results with zero extra runs.
"""

from __future__ import annotations

import os
import random
from typing import Callable, Dict, List, Tuple

from repro.config.presets import default_config, with_nodes
from repro.core.results import RunResult
from repro.core.system import FamSystem
from repro.errors import SweepFailure
from repro.experiments.figures import (
    ALL_FIGURES,
    figure13,
    figure16,
    figure_matrix,
)
from repro.experiments.runner import (
    ExperimentRunner,
    RunSettings,
    SweepJob,
    build_traces,
)
from repro.experiments.sweep import SweepEngine, SweepSpec
from repro.experiments.validation import check_figure

__all__ = ["WORKLOADS", "WORKERS", "Pass", "run_pass", "reference_check",
           "job_label"]

MAIN_FIGURES = ("3", "4", "9", "10", "11", "12")
STU_BENCHMARKS = ("canl", "sssp", "dc")
STU_ARCHITECTURES = ("i-fam", "deact-n")
STU_ENTRIES = (256, 512, 1024, 2048, 4096)
MULTI_BENCHMARKS = ("pf", "dc")
MULTI_ARCHITECTURES = ("i-fam", "deact-n")
MULTI_NODES = (2, 4)

#: Worker processes each workload runs its jobs on.
WORKERS = {"main-matrix": 1, "stu-sweep": 2, "multi-node": 1}
WORKLOADS = tuple(WORKERS)

#: ``(benchmark, architecture, variant label)``
Cell = Tuple[str, str, str]


def job_label(cell: Cell) -> str:
    return "/".join(cell)


class Pass:
    """The outcome of one pass over a workload's job list."""

    def __init__(self, jobs: Dict[Cell, SweepJob],
                 results: Dict[Cell, RunResult], failed: List[str],
                 claims: Callable[[], List[dict]]) -> None:
        self.jobs = jobs
        self.results = results
        self.failed = failed
        self.claims = claims


def _claims(figures) -> List[dict]:
    return [{"figure": figure.figure_id, "claim": outcome.claim.description,
             "held": bool(outcome.passed)}
            for figure in figures for outcome in check_figure(figure)]


def _prewarmed(runner: ExperimentRunner,
               cells: Dict[Cell, SweepJob]) -> Tuple[Dict[Cell, RunResult],
                                                     List[str]]:
    """Run ``cells`` serially through the runner; collect the results."""
    failed: List[str] = []
    try:
        runner.prewarm([(job.benchmark, job.architecture, job.config)
                        for job in cells.values()])
    except SweepFailure as exc:
        failed = [failure.describe() for failure in exc.report.failures]
        return {}, failed or [str(exc)]
    results = {cell: runner.run(job.benchmark, job.architecture, job.config)
               for cell, job in cells.items()}
    return results, failed


def _main_matrix(settings: RunSettings, scratch: str) -> Pass:
    cells: Dict[Cell, SweepJob] = {}
    for figure_id in MAIN_FIGURES:
        for bench, arch, config in figure_matrix(figure_id):
            cells.setdefault((bench, arch, "default"),
                             SweepJob(bench, arch, config, settings))
    runner = ExperimentRunner(settings, jobs=1)
    results, failed = _prewarmed(runner, cells)
    return Pass(cells, results, failed, lambda: _claims(
        [ALL_FIGURES[f](runner) for f in MAIN_FIGURES]))


def _stu_sweep(settings: RunSettings, scratch: str) -> Pass:
    cache = os.path.join(scratch, "sweep-cache.json")
    spec = SweepSpec.build(STU_BENCHMARKS, STU_ARCHITECTURES,
                           {"stu-entries": list(STU_ENTRIES)})
    cells = dict(spec.jobs(settings))
    engine = SweepEngine(settings, cache_path=cache,
                         jobs=WORKERS["stu-sweep"])
    results = engine.run(spec, keep_going=True)
    failed = ([failure.describe() for failure in engine.failures.failures]
              if engine.failures else [])

    def claims() -> List[dict]:
        runner = ExperimentRunner(settings, cache_path=cache)
        return _claims([figure13(runner, STU_BENCHMARKS, STU_ENTRIES)])
    return Pass(cells, results, failed, claims)


def _multi_node(settings: RunSettings, scratch: str) -> Pass:
    base = default_config()
    cells = {(bench, arch, f"nodes={nodes}"):
             SweepJob(bench, arch, with_nodes(base, nodes), settings)
             for nodes in MULTI_NODES for bench in MULTI_BENCHMARKS
             for arch in MULTI_ARCHITECTURES}
    runner = ExperimentRunner(settings, jobs=1)
    results, failed = _prewarmed(runner, cells)
    return Pass(cells, results, failed, lambda: _claims(
        [figure16(runner, MULTI_BENCHMARKS, MULTI_NODES)]))


_RUNNERS = {"main-matrix": _main_matrix, "stu-sweep": _stu_sweep,
            "multi-node": _multi_node}


def run_pass(workload: str, settings: RunSettings, scratch: str) -> Pass:
    """Run every job of ``workload`` once; ``scratch`` holds any files."""
    return _RUNNERS[workload](settings, scratch)


def reference_check(done: Pass, sample: int, seed: int) -> List[str]:
    """Re-run a seeded sample of the pass's jobs on the reference tier.

    The reference tier is the simulator's per-event oracle; its results
    must equal the production results bit for bit.  The system seed
    mirrors :func:`repro.experiments.runner.execute_job`'s.  Returns the
    labels of the jobs that differ.
    """
    cells = sorted(done.results)
    picked = random.Random(seed).sample(cells, min(sample, len(cells)))
    mismatched = []
    for cell in picked:
        job = done.jobs[cell]
        traces = build_traces(job.benchmark, job.config.nodes, job.settings)
        system = FamSystem(job.config, job.architecture,
                           seed=job.settings.seed * 31 + 5)
        reference = system.run(traces, benchmark=job.benchmark,
                               mode="reference")
        if reference != done.results[cell]:
            mismatched.append(job_label(cell))
    return mismatched
