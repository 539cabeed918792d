"""Whole-system assembly and the multi-node run driver.

:class:`FamSystem` builds the broker, fabric, FAM device and nodes for
a configuration + architecture, attaches per-node STUs (with walk
caches over each node's system page table), and runs one trace per
node with all nodes interleaved in global time order — so fabric-port
and FAM-bank contention between nodes is applied in the same order
real hardware would see (the mechanism behind Figure 16).

Production runs use the functional/timing split
(:mod:`repro.core.split`): each node's side is simulated once per
trace and node-side configuration, and only the FAM-side timing is
replayed per architecture.  The ``reference`` mode keeps the seed
per-event loop as the oracle.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Union

from repro.broker.broker import MemoryBroker
from repro.config.system import SystemConfig
from repro.core.architectures import Architecture, make_architecture
from repro.core.node import Node
from repro.core.results import RunResult
from repro.core.split import (
    NodeStream,
    functional_pass,
    replay,
    run_replays,
    stream_key,
)
from repro.errors import ConfigError
from repro.fabric.network import FabricNetwork
from repro.mem.device import NvmDevice
from repro.pagetable.walker import PageTableWalker
from repro.stu.stu import Stu
from repro.workloads.trace import DecodedTrace, Trace

__all__ = ["FamSystem", "EXECUTION_MODES", "DEFAULT_EXECUTION_MODE"]

#: The execution modes: the functional/timing split and the seed
#: per-event oracle.  Both are bit-identical
#: (``tests/test_hot_path_equivalence.py``).
EXECUTION_MODES = ("fast", "reference")
DEFAULT_EXECUTION_MODE = "fast"


class FamSystem:
    """A complete FAM system instance for one run."""

    def __init__(self, config: SystemConfig,
                 architecture: Union[str, Architecture],
                 seed: int = 0x5EED) -> None:
        self.config = config
        self.architecture = make_architecture(architecture)
        self.broker = MemoryBroker(config.fam, config.allocation,
                                   acm_bits=config.stu.acm_bits)
        self.fabric = FabricNetwork(config.fabric)
        self.fam = NvmDevice(config.fam)
        #: Node streams the last run built with a functional pass,
        #: reused from a trace's memo, and refused to reuse because
        #: the frame rule failed (telemetry).
        self.stream_counts: Dict[str, int] = {}
        self.nodes: List[Node] = []
        for node_id in range(config.nodes):
            self.broker.register_node(node_id)
            node = Node(node_id, config, self.broker, self.fabric,
                        self.fam, self.architecture,
                        seed=seed + node_id * 7919)
            if self.architecture.needs_stu:
                node.stu = self._build_stu(node_id)
            self.nodes.append(node)

    def _build_stu(self, node_id: int) -> Stu:
        """One STU per node, at the node's first-hop router."""
        organization = self.architecture.make_stu_organization(
            self.config.stu)
        walker = PageTableWalker(self.broker.system_table(node_id),
                                 self.config.stu.walk_cache_entries,
                                 name=f"stu{node_id}.ptw")
        return Stu(node_id, self.config.stu, self.broker.acm, walker,
                   self.fabric, self.fam, organization,
                   name=f"stu{node_id}")

    # ------------------------------------------------------------------
    def run(self, traces: Union[Trace, Sequence[Trace]],
            benchmark: Optional[str] = None,
            mode: str = DEFAULT_EXECUTION_MODE) -> RunResult:
        """Run one trace per node to completion.

        A single trace is replicated across nodes with per-node seeds
        already baked in by the caller; passing a sequence assigns
        ``traces[i]`` to node ``i``.

        Nodes advance in global core-time order, so their reservations
        on the shared fabric port and FAM banks interleave
        deterministically.

        ``mode`` selects how (both bit-identical, proved by
        ``tests/test_hot_path_equivalence.py``):

        * ``"fast"`` (default) — the functional/timing split
          (:mod:`repro.core.split`): each node's side runs once per
          trace and node-side configuration, memoized on the trace,
          and the FAM-side timing is replayed from the stream.
        * ``"reference"`` — the boxed seed path preserved in
          :mod:`repro.core.refpath`, kept as the oracle.
        """
        if isinstance(traces, Trace):
            traces = [traces] * len(self.nodes)
        if len(traces) != len(self.nodes):
            raise ConfigError(
                f"got {len(traces)} traces for {len(self.nodes)} nodes")
        if mode not in EXECUTION_MODES:
            raise ConfigError(
                f"unknown execution mode {mode!r}; choose from "
                f"{', '.join(EXECUTION_MODES)}")

        self.stream_counts = {"built": 0, "reused": 0, "refused": 0}
        fresh = [not node.has_run for node in self.nodes]
        for node in self.nodes:
            node.has_run = True
        if mode == "reference":
            for node in self.nodes:
                node.materialize()
            self._run_reference(traces)
        else:
            self._run_split(traces, fresh)
        for node in self.nodes:
            node.drain()

        name = benchmark or (traces[0].name if traces else "unnamed")
        return RunResult(
            architecture=self.architecture.key,
            benchmark=name,
            nodes=[node.metrics() for node in self.nodes],
            fam_counters=self.fam.stats.snapshot(),
            fabric_counters=self.fabric.stats.snapshot(),
        )

    def _stream_for(self, node: Node, trace: Trace, decoded: DecodedTrace,
                    fresh: bool) -> NodeStream:
        """``node``'s stream over ``trace``: reused from the trace's
        memo when the node is ``fresh`` (has never run) and the frame
        rule holds, else built by a functional pass on the node's own
        structures."""
        counts = self.stream_counts
        if not fresh:
            # A warm node continues from its own state; a stream
            # memoized for a fresh node does not describe it.
            node.materialize()
            counts["built"] += 1
            return functional_pass(node, decoded)
        memo = trace.stream_memo()
        key = stream_key(node)
        candidates = memo.get(key, ())
        for stream in candidates:
            if stream.fits(node):
                counts["reused"] += 1
                node.adopt(decoded, stream)
                return stream
        if candidates:
            counts["refused"] += 1
        counts["built"] += 1
        stream = functional_pass(node, decoded)
        memo.put(key, candidates + (stream,))
        return stream

    def _run_split(self, traces: Sequence[Trace],
                   fresh: Sequence[bool]) -> None:
        """Functional pass (or memo hit) per node, then the timing
        replay — one node straight through, several interleaved in
        global core-time order."""
        replays = []
        for node, trace, is_fresh in zip(self.nodes, traces, fresh):
            decoded = trace.decoded(self.config.page_bytes,
                                    self.config.block_bytes)
            stream = self._stream_for(node, trace, decoded, is_fresh)
            if not len(stream):
                replays.append(None)
                continue
            generator = replay(node, decoded, stream)
            next(generator)
            replays.append(generator)
        run_replays(self.nodes, replays)

    def _run_reference(self, traces: Sequence[Trace]) -> None:
        """The seed per-event loop: boxed TraceEvents through
        :func:`repro.core.refpath.reference_step` (kept for the
        equivalence proof and the core-loop microbenchmark)."""
        from repro.core.refpath import reference_step  # avoid cycle

        iterators = [iter(trace) for trace in traces]
        frontier = []
        for index, iterator in enumerate(iterators):
            event = next(iterator, None)
            if event is not None:
                frontier.append((self.nodes[index].core_time_ns, index,
                                 event))
        heapq.heapify(frontier)
        while frontier:
            _t, index, event = heapq.heappop(frontier)
            node_time = reference_step(self.nodes[index], event)
            nxt = next(iterators[index], None)
            if nxt is not None:
                heapq.heappush(frontier, (node_time, index, nxt))

    # ------------------------------------------------------------------
    def tag_store_probes(self) -> int:
        """System-wide tag-store probe count (telemetry)."""
        return sum(node.tag_store_probes() for node in self.nodes)

    # ------------------------------------------------------------------
    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]
