"""Output checks: result digests and trace-count reconciliation.

Digests pin the simulator's outputs.  A job's result is first
*projected* onto the result fields and counter names that existed when
the digests were committed (``projection`` in ``digests.json``), then
hashed, so a later change that only adds fields or counters keeps the
same digest while any change to an existing value does not.

Reconciliation compares what the traced pass counted at the wrapped
functions with the simulator's own counters for the same jobs.  A code
path that bypasses a wrapped function shows up here as a mismatch
instead of as silently missing time.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["NODE_FIELDS", "project", "digest", "counter_keys",
           "reconcile"]

#: ``NodeMetrics`` fields that are hashed (``counters`` is projected
#: separately, by key).
NODE_FIELDS = ("node_id", "instructions", "memory_accesses", "cycles",
               "runtime_ns", "llc_misses", "fam_data_accesses",
               "tlb_hit_rate", "node_walks", "translation_hit_rate",
               "acm_hit_rate")
_COUNTER_SETS = ("fam_counters", "fabric_counters", "node_counters")


def _keep(counters: Dict[str, float], allowed: Optional[Sequence[str]]):
    return {key: value for key, value in sorted(counters.items())
            if allowed is None or key in allowed}


def project(result, projection: Optional[Dict[str, List[str]]]) -> dict:
    """The hashed view of a ``RunResult`` (``projection=None`` keeps
    every counter)."""
    allowed = projection or {}
    return {
        "architecture": result.architecture,
        "benchmark": result.benchmark,
        "fam_counters": _keep(result.fam_counters,
                              allowed.get("fam_counters")),
        "fabric_counters": _keep(result.fabric_counters,
                                 allowed.get("fabric_counters")),
        "nodes": [dict({field: getattr(node, field)
                        for field in NODE_FIELDS},
                       counters=_keep(node.counters,
                                      allowed.get("node_counters")))
                  for node in result.nodes],
    }


def digest(projected: dict) -> str:
    text = json.dumps(projected, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def counter_keys(results) -> Dict[str, List[str]]:
    """Every counter name the results carry, per counter set."""
    keys: Dict[str, set] = {name: set() for name in _COUNTER_SETS}
    for result in results:
        keys["fam_counters"].update(result.fam_counters)
        keys["fabric_counters"].update(result.fabric_counters)
        for node in result.nodes:
            keys["node_counters"].update(node.counters)
    return {name: sorted(values) for name, values in keys.items()}


# ----------------------------------------------------------------------
# Reconciliation
# ----------------------------------------------------------------------
def _calls(record: dict, *names: str) -> float:
    return sum(record["calls"].get(name, 0) for name in names)


def _counter(record: dict, *names: str) -> float:
    return sum(record["counters"].get(name, 0.0) for name in names)


def _mark(record: dict, name: str) -> float:
    return record["marks"].get(name, 0.0)


def _pairs(record: dict) -> List[Tuple[str, float, float]]:
    """``(what, traced count, simulator counter)`` for one record."""
    arch_calls = sum(count for name, count in record["calls"].items()
                     if name.endswith(".fam_access_fast"))
    pairs = [
        ("FamSystem.run calls vs runs", _calls(record, "FamSystem.run"),
         _counter(record, "runs")),
        ("NvmDevice.access calls vs fam_counters[accesses]",
         _calls(record, "NvmDevice.access"), _counter(record, "fam.accesses")),
        ("DramDevice.access calls vs DRAM accesses",
         _calls(record, "DramDevice.access"),
         _counter(record, "dram.accesses")),
        ("TLB calls missing L1 vs L1-TLB misses",
         _mark(record, "tlb.l1_miss_calls"), _counter(record, "tlb.l1_misses")),
        ("TLB calls that walked vs MMU walks",
         _mark(record, "tlb.walk_calls"), _counter(record, "mmu.walks")),
        ("PageTableWalker.walk calls vs node+STU walker walks",
         _calls(record, "PageTableWalker.walk"),
         _counter(record, "walker.walks")),
        ("access_after_l1_miss calls vs L1-data misses",
         _calls(record, "CacheHierarchy.access_after_l1_miss"),
         _counter(record, "cache.l1_misses")),
        ("cache calls missing the LLC vs LLC misses",
         _mark(record, "cache.llc_miss_calls"),
         _counter(record, "cache.llc_misses")),
        ("Stu.ifam_translate calls vs STU mapping hits+misses",
         _calls(record, "Stu.ifam_translate"),
         _counter(record, "stu.mapping.hits", "stu.mapping.misses")),
        ("Stu.verify_access_fast calls vs STU ACM hits+misses",
         _calls(record, "Stu.verify_access_fast"),
         _counter(record, "stu.acm.hits", "stu.acm.misses")),
        ("Stu.walk_system_table_fast calls vs STU walks",
         _calls(record, "Stu.walk_system_table_fast"),
         _counter(record, "stu.walks")),
        ("FamTranslator.lookup_fast calls vs translator hits+misses",
         _calls(record, "FamTranslator.lookup_fast"),
         _counter(record, "translator.hits", "translator.misses")),
        ("FamTranslator.install calls vs translator updates",
         _calls(record, "FamTranslator.install"),
         _counter(record, "translator.updates")),
        ("fam_access_fast calls vs node mem.fam counters", arch_calls,
         _counter(record, "node.mem.fam")),
        ("MemoryBroker.ensure_mapped calls vs node frames.fam counters",
         _calls(record, "MemoryBroker.ensure_mapped"),
         _counter(record, "node.frames.fam")),
    ]
    for hop in ("node_to_stu", "stu_to_node", "stu_to_fam", "fam_to_stu"):
        pairs.append((f"FabricNetwork.{hop}_arrival calls vs "
                      f"fabric_counters[{hop}]",
                      _calls(record, f"FabricNetwork.{hop}_arrival"),
                      _counter(record, "fabric." + hop)))
    return pairs


def reconcile(records: Sequence[dict]) -> List[str]:
    """Every traced count that disagrees with its simulator counter,
    checked job by job."""
    problems = []
    for record in records:
        for what, traced, counted in _pairs(record):
            if traced != counted:
                problems.append(f"{record.get('job', 'pass')}: {what}: "
                                f"traced {traced:g} != simulator "
                                f"{counted:g}")
    return problems
