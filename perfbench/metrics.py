"""Metric definitions and their computation from pass records.

``BENCHMARK.json`` fixes each metric's unit, direction and bound.  This
module records what it has no room for, whether a metric is host time
or a simulated quantity, and computes every metric from the records
``perfbench.passrun`` prints.  ``perfbench/README.md`` maps each layer
to the end-to-end metric and workload it should move.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence, Tuple

from perfbench.tracer import IO_HOOKS

__all__ = ["END_TO_END", "LAYER_METRICS", "end_to_end", "job_walls",
           "job_tail", "layer_metrics"]

#: End-to-end metrics (host time unless marked "sim").
END_TO_END = {
    "wall_s": ("host", "seconds to finish the workload, set-up included "
                       "(median over passes)"),
    "setup_s": ("host", "trace generation and decode, FamSystem "
                        "construction and worker start-up, without the "
                        "cyclic-GC pauses inside them (median over "
                        "passes)"),
    "events_per_s": ("host", "simulated trace events, summed over nodes, "
                             "per host second of simulation summed over "
                             "jobs; set-up excluded"),
    "peak_rss_mb": ("host", "peak resident memory of the pass process "
                            "plus each worker's peak (median over passes)"),
}

#: Per-layer metrics: name -> (host|sim, what it is).
LAYER_METRICS = {
    "workloads.calls": ("host", "trace build and decode calls"),
    "workloads.self_s": ("host", "self time of trace build and decode"),
    "workloads.build_s": ("host", "BenchmarkProfile.build_trace time"),
    "workloads.decode_s": ("host", "Trace.decoded / decoded_arrays time"),
    "core.calls": ("host", "FamSystem construction and run calls"),
    "core.self_s": ("host", "FamSystem.run self time (core loop, inlined "
                            "L1 probes, heap driver) plus construction"),
    "core.events": ("sim", "trace events simulated, summed over nodes"),
    "core.ns_per_event": ("host", "FamSystem.run self time per event"),
    "tlb.calls": ("host", "Mmu.translate_after_l1_miss / translate_fast"),
    "tlb.self_s": ("host", "TLB self time"),
    "tlb.walks": ("sim", "node page walks"),
    "tlb.hit_rate": ("sim", "two-level TLB hit rate"),
    "pagetable.calls": ("host", "PageTableWalker.walk, node and STU"),
    "pagetable.self_s": ("host", "page walker self time"),
    "cache.calls": ("host", "CacheHierarchy.access_after_l1_miss / "
                            "access_fast"),
    "cache.self_s": ("host", "cache hierarchy self time"),
    "cache.llc_misses": ("sim", "LLC misses"),
    "stu.calls": ("host", "Stu.ifam_translate / verify_access_fast / "
                          "walk_system_table_fast"),
    "stu.self_s": ("host", "STU self time"),
    "stu.sim_ns": ("sim", "simulated ns spent in the STU (outermost "
                          "calls: result time minus now)"),
    "stu.translation_hit_rate": ("sim", "I-FAM STU mapping hit rate"),
    "stu.acm_hit_rate": ("sim", "DeACT STU ACM hit rate"),
    "stu.walks": ("sim", "system page-table walks by the STU"),
    "acm.calls": ("host", "AcmStore.check / verify"),
    "acm.self_s": ("host", "ACM store self time"),
    "translator.calls": ("host", "FamTranslator.lookup_fast / install"),
    "translator.self_s": ("host", "FAM translator self time"),
    "translator.sim_ns": ("sim", "simulated ns in translator lookups and "
                                 "installs"),
    "translator.hit_rate": ("sim", "in-DRAM translation cache hit rate"),
    "architectures.calls": ("host", "Architecture.fam_access_fast"),
    "architectures.self_s": ("host", "FAM-path glue self time"),
    "fabric.calls": ("host", "the four FabricNetwork hop methods"),
    "fabric.self_s": ("host", "fabric self time"),
    "fabric.port_wait_sim_ns": ("sim", "simulated wait for the shared "
                                       "FAM port"),
    "mem.calls": ("host", "NvmDevice.access / DramDevice.access"),
    "mem.self_s": ("host", "memory device self time"),
    "mem.fam_calls": ("host", "NvmDevice.access calls"),
    "mem.dram_calls": ("host", "DramDevice.access calls"),
    "mem.fam_queue_sim_ns": ("sim", "simulated FAM queueing (window "
                                    "admission and bank wait)"),
    "mem.at_fraction": ("sim", "address-translation share of FAM "
                               "requests"),
    "broker.calls": ("host", "MemoryBroker.ensure_mapped / translate"),
    "broker.self_s": ("host", "broker self time"),
    "experiments.calls": ("host", "job entry, cache I/O, payload "
                                  "(de)serialization, pipe transfer, "
                                  "worker start"),
    "experiments.self_s": ("host", "harness self time in those calls"),
    "experiments.io_s": ("host", "cache file I/O plus payload "
                                 "(de)serialization and pipe transfer"),
    "experiments.worker_busy_frac": ("host", "sum of job walls / (workers "
                                             "x pass wall)"),
    "experiments.retries": ("host", "job re-attempts"),
    "trace.traced_wall_s": ("host", "wall of the traced pass"),
    "trace.untraced_wall_s": ("host", "wall of the untraced pass"),
    "trace.overhead_s": ("host", "traced minus untraced wall"),
    "trace.unattributed_frac": ("host", "share of workers x traced wall "
                                        "that no layer span covers"),
    "trace.reconcile_mismatches": ("host", "traced counts that disagree "
                                           "with the simulator's counters"),
}

# ----------------------------------------------------------------------
def _jobs(record_set: dict) -> List[dict]:
    return [r for r in record_set["records"] if r["job"] != "pass"]


def _total(records: Sequence[dict], field: str, key: str) -> float:
    return sum(r[field].get(key, 0.0) for r in records)


def _peak_rss_mb(record_set: dict) -> float:
    """The pass process's peak plus each worker's peak."""
    peaks: Dict[int, int] = {}
    for record in record_set["records"]:
        peaks[record["pid"]] = max(peaks.get(record["pid"], 0),
                                   record["maxrss_kb"])
    return sum(peaks.values()) / 1024.0


def end_to_end(passes: Sequence[dict]) -> Dict[str, float]:
    """End-to-end metrics over one or more untraced passes."""
    sim_s = events = 0.0
    for record_set in passes:
        records = record_set["records"]
        sim_s += (_total(records, "kind_s", "run")
                  - _total(records, "kind_s", "setup_in_run"))
        events += _total(records, "counters", "events")
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(
            _total(p["records"], "kind_s", "setup")
            - _total(p["records"], "kind_s", "setup_gc") for p in passes),
        "events_per_s": events / sim_s if sim_s > 0 else 0.0,
        "peak_rss_mb": statistics.median(_peak_rss_mb(p) for p in passes),
    }


def job_walls(passes: Sequence[dict]) -> List[float]:
    """Host wall of every job of every pass, sorted."""
    return sorted(r["wall_s"] for p in passes for r in _jobs(p))


def job_tail(walls: Sequence[float]) -> Optional[Tuple[float, float]]:
    """``(wall, percentile)`` at the highest percentile of the sorted
    ``walls`` with at least ten jobs beyond it, or ``None`` below 11."""
    n = len(walls)
    if n < 11:
        return None
    return walls[n - 11], 100.0 * (n - 10) / n


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traced: dict, untraced: dict, workers: int,
                  mismatches: int) -> Dict[str, float]:
    """Per-layer metrics of the traced pass (``untraced`` gives the
    overhead baseline)."""
    records = traced["records"]
    layer_of = traced["hook_layers"]
    calls: Dict[str, float] = {}
    self_s: Dict[str, float] = {}
    for record in records:
        for name, count in record["calls"].items():
            layer = layer_of[name]
            calls[layer] = calls.get(layer, 0) + count
        for name, seconds in record["self_s"].items():
            layer = layer_of[name]
            self_s[layer] = self_s.get(layer, 0.0) + seconds
    counter = {key: _total(records, "counters", key)
               for key in {k for r in records for k in r["counters"]}}
    mark = {key: _total(records, "marks", key)
            for key in {k for r in records for k in r["marks"]}}
    hook_calls = {name: sum(r["calls"].get(name, 0) for r in records)
                  for name in layer_of}
    run_self = sum(r["self_s"].get("FamSystem.run", 0.0) for r in records)
    events = counter.get("events", 0.0)
    wall = traced["wall_s"]
    c = counter.get
    out: Dict[str, float] = {}
    for metric in LAYER_METRICS:
        layer, _, field = metric.partition(".")
        if field == "calls":
            out[metric] = float(calls.get(layer, 0))
        elif field == "self_s":
            out[metric] = self_s.get(layer, 0.0)
    out.update({
        "workloads.build_s": _total(records, "kind_s", "build"),
        "workloads.decode_s": _total(records, "kind_s", "decode"),
        "core.events": events,
        "core.ns_per_event": _ratio(run_self * 1e9, events),
        "tlb.walks": c("mmu.walks", 0.0),
        "tlb.hit_rate": _ratio(c("tlb.l1_accesses", 0.0)
                               - c("tlb.l2_misses", 0.0),
                               c("tlb.l1_accesses", 0.0)),
        "cache.llc_misses": c("cache.llc_misses", 0.0),
        "stu.sim_ns": mark.get("stu.sim_ns", 0.0),
        "stu.translation_hit_rate": _ratio(
            c("stu.mapping.hits", 0.0),
            c("stu.mapping.hits", 0.0) + c("stu.mapping.misses", 0.0)),
        "stu.acm_hit_rate": _ratio(
            c("stu.acm.hits", 0.0),
            c("stu.acm.hits", 0.0) + c("stu.acm.misses", 0.0)),
        "stu.walks": c("stu.walks", 0.0),
        "translator.sim_ns": mark.get("translator.sim_ns", 0.0),
        "translator.hit_rate": _ratio(
            c("translator.hits", 0.0),
            c("translator.hits", 0.0) + c("translator.misses", 0.0)),
        "fabric.port_wait_sim_ns": mark.get("fabric.port_wait_sim_ns", 0.0),
        "mem.fam_calls": float(hook_calls.get("NvmDevice.access", 0)),
        "mem.dram_calls": float(hook_calls.get("DramDevice.access", 0)),
        "mem.fam_queue_sim_ns": mark.get("mem.fam_queue_sim_ns", 0.0),
        "mem.at_fraction": _ratio(c("fam.at_accesses", 0.0),
                                  c("fam.accesses", 0.0)),
        "experiments.io_s": sum(r["self_s"].get(name, 0.0)
                                for r in records for name in IO_HOOKS),
        "experiments.worker_busy_frac": _ratio(
            sum(r["wall_s"] for r in _jobs(traced)), workers * wall),
        "experiments.retries": mark.get("experiments.retries", 0.0),
        "trace.traced_wall_s": wall,
        "trace.untraced_wall_s": untraced["wall_s"],
        "trace.overhead_s": wall - untraced["wall_s"],
        "trace.unattributed_frac": max(
            0.0, 1.0 - sum(self_s.values()) / (workers * wall)),
        "trace.reconcile_mismatches": float(mismatches),
    })
    return out
