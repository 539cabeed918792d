"""Outside-in tracer: spans and counts around calls into each layer.

The benchmark never edits the simulator.  It replaces public functions
of each layer (class methods, or module functions at every module that
binds them) with a wrapper that records a span (name, start, end,
parent) and a call count, then calls the original.  Wrappers are
installed before any simulator object is built, so bound methods that
the fast loops cache in locals are the wrapped ones too.

Two hook sets exist:

* the *job* hooks (trace build and decode, ``FamSystem`` construction
  and ``run``, the per-job entry point, worker start-up) fire a few
  times per job.  They are installed in every pass, traced or not, and
  give set-up time, simulation time and per-job wall time;
* the *layer* hooks fire per simulated event or per miss.  They are
  installed only in the traced pass.

Self time of a span is its duration minus the time covered by its
child spans, so the self times of a job's spans add up to the job's
covered wall time without double counting.

State lives in flat lists indexed by hook id and is reset in place, so
the wrapper closures stay valid across ``reset`` and across ``fork``:
a forked sweep worker starts from an empty state
(``os.register_at_fork``) and writes one record file per job, which
the pass process collects when the sweep ends.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["Hook", "Tracer", "job_hooks", "layer_hooks", "IO_HOOKS"]

#: Set-up kinds: the time of the outermost set-up span counts once.
SETUP_KINDS = ("build", "decode", "construct", "worker_start")


class Hook:
    """One wrapped function.

    ``targets`` lists the ``(owner, attribute)`` pairs to replace; all
    must hold the same function object.  ``kind`` marks the job hooks
    (a set-up kind, ``"run"`` or ``"job"``); ``observe(tracer, args,
    kwargs, result)`` derives simulated quantities from a call.
    """

    def __init__(self, layer: str, name: str,
                 targets: Sequence[Tuple[object, str]],
                 kind: Optional[str] = None,
                 observe: Optional[Callable] = None) -> None:
        self.layer = layer
        self.name = name
        self.targets = list(targets)
        self.kind = kind
        self.observe = observe


class Tracer:
    """Records spans, call counts and observer marks in memory."""

    def __init__(self, hooks: Sequence[Hook], record_dir: str,
                 span_cap: int = 0) -> None:
        self.hooks = list(hooks)
        self.layer_of = [hook.layer for hook in self.hooks]
        self.record_dir = record_dir
        self.span_cap = span_cap
        #: The pass process; job records from any other (forked
        #: worker) process go to ``record_dir`` instead of ``jobs``.
        self.main_pid = os.getpid()
        n = len(self.hooks)
        self.calls: List[int] = [0] * n
        self.self_s: List[float] = [0.0] * n
        self.stack: List[list] = []
        self.spans: List[list] = []
        self.marks: Dict[str, float] = defaultdict(float)
        self.counters: Dict[str, float] = defaultdict(float)
        self.kind_s: Dict[str, float] = defaultdict(float)
        self.depth: Dict[str, int] = defaultdict(int)
        self.jobs: List[dict] = []
        self._seq = 0
        self._gc_start = 0.0
        self._undo: List[Tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self._after_fork)

    # ------------------------------------------------------------------
    def install(self) -> None:
        for hook_id, hook in enumerate(self.hooks):
            original = getattr(*hook.targets[0])
            wrapper = self._wrap(hook_id, hook, original)
            for owner, attr in hook.targets:
                if getattr(owner, attr) is not original:
                    raise RuntimeError(
                        f"{hook.name}: {owner!r}.{attr} is not the function "
                        f"bound at {hook.targets[0]}")
                self._undo.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, wrapper)
        gc.callbacks.append(self._gc_pause)

    def uninstall(self) -> None:
        if self._gc_pause in gc.callbacks:
            gc.callbacks.remove(self._gc_pause)
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _gc_pause(self, phase: str, info: dict) -> None:
        """Time cyclic-GC pauses that land inside set-up spans.

        A full collection walks every object the earlier jobs left
        behind, so where one lands depends on allocation history, not
        on the set-up code; set-up time is reported without them.
        """
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif any(self.depth[kind] for kind in SETUP_KINDS):
            self.kind_s["setup_gc"] += time.perf_counter() - self._gc_start

    def reset(self) -> None:
        """Forget everything recorded since the last drain (in place)."""
        n = len(self.hooks)
        self.calls[:] = [0] * n
        self.self_s[:] = [0.0] * n
        self.spans.clear()
        self.marks.clear()
        self.counters.clear()
        self.kind_s.clear()

    def _after_fork(self) -> None:
        self.stack.clear()
        self.depth.clear()
        self.jobs.clear()
        self.reset()

    # ------------------------------------------------------------------
    def parent_layer(self) -> Optional[str]:
        """Layer of the innermost open span (valid inside ``observe``)."""
        return self.layer_of[self.stack[-1][2]] if self.stack else None

    def _wrap(self, hook_id: int, hook: Hook, original: Callable):
        calls, self_s, stack, spans = (self.calls, self.self_s, self.stack,
                                       self.spans)
        clock = time.perf_counter
        cap = self.span_cap
        observe = hook.observe
        kind = hook.kind
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [0.0, -1, hook_id]
            if len(spans) < cap:
                frame[1] = len(spans)
                spans.append([hook_id, 0.0, 0.0,
                              stack[-1][1] if stack else -1])
            if kind is not None:
                tracer.depth[kind] += 1
            stack.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s[hook_id] += duration - frame[0]
                calls[hook_id] += 1
                if stack:
                    stack[-1][0] += duration
                if 0 <= frame[1] < len(spans):
                    span = spans[frame[1]]
                    span[1] = start
                    span[2] = end
                if kind is not None:
                    tracer.depth[kind] -= 1
            if observe is not None:
                observe(tracer, args, kwargs, result)
            if kind is not None:
                tracer._account(kind, duration, args, result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def _account(self, kind: str, duration: float, args, result) -> None:
        depth = self.depth
        if kind in SETUP_KINDS:
            if depth[kind] == 0:
                self.kind_s[kind] += duration
            if not any(depth[k] for k in SETUP_KINDS):
                self.kind_s["setup"] += duration
                if depth["run"]:
                    self.kind_s["setup_in_run"] += duration
        elif kind == "run" and depth["run"] == 0:
            self.kind_s["run"] += duration
            snapshot_counters(args[0], result, self.counters)
        elif kind == "job" and depth["job"] == 0:
            self._finish_job(duration, args)

    # ------------------------------------------------------------------
    def drain(self, **extra) -> dict:
        """Everything recorded since the last drain, then reset."""
        record = {
            "pid": os.getpid(),
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "calls": {h.name: c for h, c in zip(self.hooks, self.calls)
                      if c},
            "self_s": {h.name: s for h, s in zip(self.hooks, self.self_s)
                       if s},
            "marks": dict(self.marks),
            "counters": dict(self.counters),
            "kind_s": dict(self.kind_s),
            "spans": [[self.hooks[h].name, s, e, p]
                      for h, s, e, p in self.spans],
        }
        record.update(extra)
        self.reset()
        return record

    def _finish_job(self, wall_s: float, args) -> None:
        job = args[0]
        record = self.drain(job=f"{job.benchmark}/{job.architecture}",
                            wall_s=wall_s)
        if os.getpid() == self.main_pid:
            self.jobs.append(record)
            return
        self._seq += 1
        path = os.path.join(self.record_dir,
                            f"job-{os.getpid()}-{self._seq}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)

    def collect_worker_jobs(self) -> List[dict]:
        """Collect (and delete) the job records forked workers wrote."""
        records = []
        for name in sorted(os.listdir(self.record_dir)):
            if name.startswith("job-") and name.endswith(".json"):
                path = os.path.join(self.record_dir, name)
                with open(path, encoding="utf-8") as handle:
                    records.append(json.load(handle))
                os.remove(path)
        return records


# ----------------------------------------------------------------------
# Simulated counters, read after each FamSystem.run
# ----------------------------------------------------------------------
_STU_COUNTERS = ("mapping.hits", "mapping.misses", "acm.hits",
                 "acm.misses", "walks")
_TRANSLATOR_COUNTERS = ("hits", "misses", "updates")
FABRIC_HOPS = ("node_to_stu", "stu_to_node", "stu_to_fam", "fam_to_stu")


def snapshot_counters(system, result, acc: Dict[str, float]) -> None:
    """Add the simulator's own counters for one finished run to ``acc``.

    These are what the trace counts are reconciled against: the
    counters in the returned result, plus the per-structure counters
    of the live system that the result does not carry.
    """
    for node in system.nodes:
        tlb = node.mmu.tlb
        acc["tlb.l1_misses"] += tlb.l1.misses
        acc["tlb.l1_accesses"] += tlb.l1.accesses
        acc["tlb.l2_misses"] += tlb.l2.misses
        acc["mmu.walks"] += node.mmu.walks
        acc["walker.walks"] += node.mmu.walker.walks
        acc["cache.l1_misses"] += node.caches.levels[0].misses
        acc["cache.llc_misses"] += node.caches.llc_miss_count()
        acc["dram.accesses"] += node.dram.accesses
        if node.stu is not None:
            acc["walker.walks"] += node.stu.walker.walks
            for key in _STU_COUNTERS:
                acc["stu." + key] += node.stu.stats.get(key)
        if node.fam_translator is not None:
            for key in _TRANSLATOR_COUNTERS:
                acc["translator." + key] += node.fam_translator.stats.get(key)
    acc["fam.accesses"] += result.fam_counters.get("accesses", 0.0)
    acc["fam.at_accesses"] += result.fam_counters.get("at_accesses", 0.0)
    for hop in FABRIC_HOPS:
        acc["fabric." + hop] += result.fabric_counters.get(hop, 0.0)
    for node in result.nodes:
        acc["node.mem.fam"] += node.counters.get("mem.fam", 0.0)
        acc["node.frames.fam"] += node.counters.get("frames.fam", 0.0)
        acc["events"] += node.memory_accesses
    acc["runs"] += 1


# ----------------------------------------------------------------------
# Observers: simulated quantities derived from a call's arguments and
# result.  ``now`` is the third positional argument (after ``self``)
# unless a hook says otherwise.
# ----------------------------------------------------------------------
def _now(args, kwargs, index: int = 2) -> float:
    return args[index] if len(args) > index else kwargs["now"]


def _tlb(tracer, args, kwargs, result) -> None:
    level = result[1]
    if level != 1:
        tracer.marks["tlb.l1_miss_calls"] += 1
    if level == 0:
        tracer.marks["tlb.walk_calls"] += 1


def _cache(tracer, args, kwargs, result) -> None:
    if result[0] == 0:
        tracer.marks["cache.llc_miss_calls"] += 1


def _sim_ns(layer: str, index: Optional[int], now_index: int = 2):
    """Simulated ns a call spends (result time minus ``now``), counted
    only for the outermost span of ``layer``, so nested calls (an
    I-FAM lookup that walks) are not counted twice."""
    key = layer + ".sim_ns"

    def observe(tracer, args, kwargs, result) -> None:
        if tracer.parent_layer() == layer:
            return
        done = result if index is None else result[index]
        tracer.marks[key] += done - _now(args, kwargs, now_index)
    return observe


def _port_wait(tracer, args, kwargs, result) -> None:
    fabric, depart = args[0], args[1]
    config = fabric.config
    wait = result - config.stu_to_fam_ns - config.port_occupancy_ns - depart
    if wait > 1e-6:
        tracer.marks["fabric.port_wait_sim_ns"] += wait


def _fam_queue(tracer, args, kwargs, result) -> None:
    device = args[0]
    is_write = args[3] if len(args) > 3 else kwargs.get("is_write", False)
    service = device.config.write_ns if is_write else device.config.read_ns
    wait = result - _now(args, kwargs) - service
    if wait > 1e-6:
        tracer.marks["mem.fam_queue_sim_ns"] += wait


def _retry(tracer, args, kwargs, result) -> None:
    attempt = args[1] if len(args) > 1 else kwargs.get("attempt", 0)
    if attempt:
        tracer.marks["experiments.retries"] += 1


# ----------------------------------------------------------------------
# Hook tables
# ----------------------------------------------------------------------
def _bindings(function, modules) -> List[Tuple[object, str]]:
    """Every ``(module, name)`` among ``modules`` bound to ``function``."""
    name = function.__name__
    return [(module, name) for module in modules
            if getattr(module, name, None) is function]


def job_hooks() -> List[Hook]:
    """The per-job hooks, installed in every pass."""
    import multiprocessing.process

    from repro.core.system import FamSystem
    from repro.experiments import supervisor
    from repro.workloads.catalog import BenchmarkProfile
    from repro.workloads.trace import Trace

    return [
        Hook("workloads", "BenchmarkProfile.build_trace",
             [(BenchmarkProfile, "build_trace")], kind="build"),
        Hook("workloads", "Trace.decoded", [(Trace, "decoded")],
             kind="decode"),
        Hook("workloads", "Trace.decoded_arrays",
             [(Trace, "decoded_arrays")], kind="decode"),
        Hook("core", "FamSystem.__init__", [(FamSystem, "__init__")],
             kind="construct"),
        Hook("core", "FamSystem.run", [(FamSystem, "run")], kind="run"),
        Hook("experiments", "run_with_faults",
             [(supervisor, "run_with_faults")], kind="job",
             observe=_retry),
        Hook("experiments", "Process.start",
             [(multiprocessing.process.BaseProcess, "start")],
             kind="worker_start"),
    ]


def layer_hooks() -> List[Hook]:
    """The per-event layer hooks, installed only in the traced pass."""
    import multiprocessing.connection

    from repro.acm.store import AcmStore
    from repro.broker.broker import MemoryBroker
    from repro.cache.hierarchy import CacheHierarchy
    from repro.core.architectures import ARCHITECTURES
    from repro.experiments import cachefile, runner, supervisor, sweep
    from repro.fabric.network import FabricNetwork
    from repro.mem.device import DramDevice, NvmDevice
    from repro.pagetable.walker import PageTableWalker
    from repro.stu.stu import Stu
    from repro.tlb.mmu import Mmu
    from repro.translator.fam_translator import FamTranslator

    hooks = [
        Hook("tlb", "Mmu.translate_after_l1_miss",
             [(Mmu, "translate_after_l1_miss")], observe=_tlb),
        Hook("tlb", "Mmu.translate_fast", [(Mmu, "translate_fast")],
             observe=_tlb),
        Hook("pagetable", "PageTableWalker.walk",
             [(PageTableWalker, "walk")]),
        Hook("cache", "CacheHierarchy.access_after_l1_miss",
             [(CacheHierarchy, "access_after_l1_miss")], observe=_cache),
        Hook("cache", "CacheHierarchy.access_fast",
             [(CacheHierarchy, "access_fast")]),
        Hook("stu", "Stu.ifam_translate", [(Stu, "ifam_translate")],
             observe=_sim_ns("stu", 1)),
        Hook("stu", "Stu.verify_access_fast",
             [(Stu, "verify_access_fast")], observe=_sim_ns("stu", None)),
        Hook("stu", "Stu.walk_system_table_fast",
             [(Stu, "walk_system_table_fast")], observe=_sim_ns("stu", 1)),
        Hook("acm", "AcmStore.check", [(AcmStore, "check")]),
        Hook("acm", "AcmStore.verify", [(AcmStore, "verify")]),
        Hook("translator", "FamTranslator.lookup_fast",
             [(FamTranslator, "lookup_fast")],
             observe=_sim_ns("translator", 1)),
        Hook("translator", "FamTranslator.install",
             [(FamTranslator, "install")],
             observe=_sim_ns("translator", None, now_index=3)),
        Hook("fabric", "FabricNetwork.node_to_stu_arrival",
             [(FabricNetwork, "node_to_stu_arrival")]),
        Hook("fabric", "FabricNetwork.stu_to_node_arrival",
             [(FabricNetwork, "stu_to_node_arrival")]),
        Hook("fabric", "FabricNetwork.stu_to_fam_arrival",
             [(FabricNetwork, "stu_to_fam_arrival")], observe=_port_wait),
        Hook("fabric", "FabricNetwork.fam_to_stu_arrival",
             [(FabricNetwork, "fam_to_stu_arrival")]),
        Hook("mem", "NvmDevice.access", [(NvmDevice, "access")],
             observe=_fam_queue),
        Hook("mem", "DramDevice.access", [(DramDevice, "access")]),
        Hook("broker", "MemoryBroker.ensure_mapped",
             [(MemoryBroker, "ensure_mapped")]),
        Hook("broker", "MemoryBroker.translate",
             [(MemoryBroker, "translate")]),
        Hook("experiments", "Connection.send",
             [(multiprocessing.connection._ConnectionBase, "send")]),
        Hook("experiments", "Connection.recv",
             [(multiprocessing.connection._ConnectionBase, "recv")]),
    ]
    # Every concrete architecture's FAM access procedure (DeACT-W and
    # DeACT-N share one), wrapped where it is defined.
    owners = []
    for cls in ARCHITECTURES.values():
        owner = next(c for c in cls.__mro__ if "fam_access_fast" in c.__dict__)
        if owner not in owners:
            owners.append(owner)
            hooks.append(Hook("architectures",
                              f"{owner.__name__}.fam_access_fast",
                              [(owner, "fam_access_fast")]))
    # Harness I/O: module functions, wrapped at every module that calls
    # them by name.
    modules = (cachefile, runner, sweep, supervisor)
    for function in (cachefile.load_cache, cachefile.merge_into_cache,
                     getattr(runner, "_payload_from_result", None),
                     getattr(runner, "_result_from_dict", None)):
        if function is None:
            continue
        targets = _bindings(function, modules)
        if targets:
            hooks.append(Hook("experiments", function.__name__, targets))
    return hooks


#: Hook names whose self time is harness I/O (cache file, payload
#: (de)serialization, pipe transfer).
IO_HOOKS = ("load_cache", "merge_into_cache", "_payload_from_result",
            "_result_from_dict", "Connection.send", "Connection.recv")
