"""The append-only perf trajectory and its regression verdicts.

``BENCH_core_loop.json`` is the repo's performance history: every
``deact bench`` run *appends* one entry — the full measurement payload
of :func:`repro.experiments.bench.measure_core_loop` plus a
provenance block (host, git commit + dirty flag, UTC timestamp,
python/numpy versions; see
:mod:`repro.experiments.provenance`) — so the committed file is a
time series, not a snapshot that each run clobbers.

On disk (schema 2)::

    {
      "schema": 2,
      "entries": [
        {
          "settings": {...}, "rows": [...], "aggregates": {...},
          "benchmarks": [...], "architectures": [...], "tiers": [...],
          "settings_fingerprint": "sha256...",
          "provenance": {"hostname": ..., "git_commit": ..., ...}
        },
        ...
      ]
    }

The original single-payload file (schema 1) auto-upgrades on load:
its payload becomes entry 0 with ``provenance: null`` — the
measurement predates provenance stamping, and inventing a host or
commit for it would poison the record.

**Settings fingerprints make comparisons honest.**  Each entry is
fingerprinted over everything that defines the measurement regime
(trace-scale settings, repeats, and the sorted benchmark /
architecture / tier sets).  Two entries compare per
(benchmark, architecture, tier) cell only when their fingerprints
match: the ``hot-loop`` workload halves its footprint below 8000
events, so a 4000-event run and a 16000-event run measure different
regimes and a throughput "regression" between them is noise by
construction.  Mismatches raise
:class:`~repro.errors.BenchSettingsMismatch` instead of producing a
verdict.

A comparison scores every cell shared by the two entries:
``ratio = candidate events/s ÷ baseline events/s``, regressed when
the ratio falls below ``1 - tolerance`` for that cell's tier.  The
report renders a per-cell verdict table and the CLI exits non-zero
when any cell regresses — this is the machine-checkable gate CI runs
against the committed baseline.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import socket
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.errors import BenchSettingsMismatch, BenchTrajectoryError
from repro.experiments.cachefile import write_json_atomic
from repro.experiments.provenance import collect_provenance

__all__ = [
    "TRAJECTORY_SCHEMA",
    "DEFAULT_TOLERANCES",
    "CellVerdict",
    "CompareReport",
    "append_entry",
    "compare_entries",
    "describe_entry",
    "entry_from_payload",
    "latest_entry",
    "load_trajectory",
    "runner_pinned",
    "select_comparable",
    "settings_fingerprint",
    "write_trajectory",
]

TRAJECTORY_SCHEMA = 2

#: Per-tier regression tolerance (fraction of baseline throughput a
#: cell may lose before the verdict flips).  Faster tiers finish the
#: fixed-event trace in less wall time, so the same absolute timer /
#: scheduler noise is a larger *fraction* of their measurement —
#: hence the widening ladder.
DEFAULT_TOLERANCES: Dict[str, float] = {
    "reference": 0.20,
    "fast": 0.25,
}


# ----------------------------------------------------------------------
# Fingerprints and entries
# ----------------------------------------------------------------------
def settings_fingerprint(entry: Mapping[str, Any]) -> str:
    """SHA-256 over everything that defines a measurement regime.

    Trace-scale settings (``n_events`` drives the hot-loop footprint
    halving), best-of-N repeats, and the benchmark / architecture /
    tier sets — *sorted*, so two runs that listed the same
    architectures in different orders still compare.  Wall-clock
    numbers and provenance deliberately stay out: the fingerprint
    answers "may these be compared", not "are these equal".
    """
    basis = {
        "settings": dict(entry.get("settings", {})),
        "benchmarks": sorted(entry.get("benchmarks", [])),
        "architectures": sorted(entry.get("architectures", [])),
        "tiers": sorted(entry.get("tiers", [])),
    }
    text = json.dumps(basis, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def entry_from_payload(payload: Mapping[str, Any],
                       provenance: Optional[Mapping[str, Any]] = None,
                       ) -> Dict[str, Any]:
    """A trajectory entry from a ``measure_core_loop`` payload.

    ``provenance`` defaults to collecting it fresh; pass ``None``
    explicitly via :func:`_legacy_entry` only for schema-1 upgrades,
    where the producing host/commit are genuinely unknown.
    """
    entry = {key: value for key, value in payload.items()
             if key != "schema"}
    entry["settings_fingerprint"] = settings_fingerprint(entry)
    entry["provenance"] = dict(provenance) if provenance is not None \
        else collect_provenance()
    return entry


def _legacy_entry(payload: Mapping[str, Any]) -> Dict[str, Any]:
    """Schema-1 upgrade: the old payload as entry 0, provenance null."""
    entry = {key: value for key, value in payload.items()
             if key != "schema"}
    entry["settings_fingerprint"] = settings_fingerprint(entry)
    entry["provenance"] = None
    return entry


# ----------------------------------------------------------------------
# Load / save
# ----------------------------------------------------------------------
def load_trajectory(path: str) -> Dict[str, Any]:
    """Read a trajectory file, auto-upgrading schema 1.

    A missing file is an empty trajectory (first ``deact bench`` on a
    fresh clone).  Anything unreadable or structurally wrong raises
    :class:`BenchTrajectoryError`: the trajectory is history, and the
    append path must never paper over a corrupt record by treating it
    as empty and overwriting it.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except FileNotFoundError:
        return {"schema": TRAJECTORY_SCHEMA, "entries": []}
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise BenchTrajectoryError(
            f"unreadable bench trajectory {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise BenchTrajectoryError(
            f"bench trajectory {path} is not a JSON object")
    schema = data.get("schema")
    if schema == 1:
        # The pre-trajectory format: one bare measurement payload.
        if "rows" not in data:
            raise BenchTrajectoryError(
                f"bench trajectory {path} claims schema 1 but has no "
                f"measurement rows")
        return {"schema": TRAJECTORY_SCHEMA,
                "entries": [_legacy_entry(data)]}
    if schema != TRAJECTORY_SCHEMA:
        raise BenchTrajectoryError(
            f"bench trajectory {path} has schema {schema!r}, expected "
            f"{TRAJECTORY_SCHEMA} (or 1 for auto-upgrade)")
    entries = data.get("entries")
    if not isinstance(entries, list) or not all(
            isinstance(entry, dict) and "rows" in entry
            for entry in entries):
        raise BenchTrajectoryError(
            f"bench trajectory {path} entries are malformed")
    return {"schema": TRAJECTORY_SCHEMA, "entries": list(entries)}


def write_trajectory(path: str, trajectory: Mapping[str, Any]) -> str:
    """Atomically write a trajectory (tmp + rename, like every other
    artifact the harness persists)."""
    write_json_atomic(path, dict(trajectory), sort_keys=True, indent=2)
    return path


def append_entry(path: str, payload: Mapping[str, Any],
                 provenance: Optional[Mapping[str, Any]] = None,
                 ) -> Dict[str, Any]:
    """Append one measurement to the trajectory at ``path``.

    Loads (upgrading schema 1 in passing), appends, atomically
    rewrites.  Returns the appended entry.
    """
    trajectory = load_trajectory(path)
    entry = entry_from_payload(payload, provenance=provenance)
    trajectory["entries"].append(entry)
    write_trajectory(path, trajectory)
    return entry


def latest_entry(trajectory: Mapping[str, Any],
                 fingerprint: Optional[str] = None,
                 ) -> Optional[Dict[str, Any]]:
    """Newest entry, optionally restricted to one settings regime."""
    entries: List[Dict[str, Any]] = list(trajectory.get("entries", []))
    for entry in reversed(entries):
        if fingerprint is None or \
                entry.get("settings_fingerprint") == fingerprint:
            return entry
    return None


def select_comparable(trajectory: Mapping[str, Any],
                      candidate: Mapping[str, Any],
                      label: str,
                      hostname: Optional[str] = None) -> Dict[str, Any]:
    """The newest baseline entry measured under ``candidate``'s regime.

    A trajectory legitimately mixes regimes over its life (events
    bumped, a benchmark added), so the baseline pick filters by the
    candidate's fingerprint — and refuses outright when no entry
    matches, rather than comparing across regimes.

    Among matching entries the pick prefers the newest whose
    ``provenance.hostname`` equals ``hostname`` (default: this host).
    Throughput baselines are machine-specific — an entry appended by a
    faster machine would flag phantom regressions on a slower one, and
    vice versa would wave real ones through — so same-host history is
    the honest yardstick.  When no matching entry came from this host
    (first run here, or legacy entries with null provenance), the
    newest fingerprint match is used regardless: a cross-host ratio
    plus the per-tier tolerance is still a coarse sanity gate, and
    refusing would make fresh CI hosts ungateable.
    """
    fingerprint = candidate.get("settings_fingerprint") \
        or settings_fingerprint(candidate)
    matches = [entry for entry in trajectory.get("entries", [])
               if entry.get("settings_fingerprint") == fingerprint]
    if not matches:
        seen = sorted({str(e.get("settings_fingerprint"))[:12]
                       for e in trajectory.get("entries", [])})
        raise BenchSettingsMismatch(
            f"no entry in {label} was measured under the candidate's "
            f"settings (fingerprint {fingerprint[:12]}...; {label} has "
            f"{', '.join(seen) if seen else 'no entries'}): comparing "
            f"across --events/benchmark/architecture sets is "
            f"meaningless")
    if hostname is None:
        hostname = socket.gethostname()
    for entry in reversed(matches):
        provenance = entry.get("provenance") or {}
        if provenance.get("hostname") == hostname:
            return entry
    return matches[-1]


def runner_pinned(trajectory: Mapping[str, Any],
                  candidate: Mapping[str, Any],
                  hostname: Optional[str] = None) -> bool:
    """Whether this host has enough same-regime history to gate at the
    per-tier default tolerances.

    True once **≥ 2** entries matching ``candidate``'s fingerprint
    carry this host's ``provenance.hostname`` — the pick from
    :func:`select_comparable` is then both same-host (the ratio
    measures the code change, not the machine change) and demonstrably
    repeatable on this runner (a single entry might itself be an
    outlier; two establish the regime exists here).  Below that, a
    caller's cross-host fallback tolerance should apply instead.
    """
    fingerprint = candidate.get("settings_fingerprint") \
        or settings_fingerprint(candidate)
    if hostname is None:
        hostname = socket.gethostname()
    pinned = 0
    for entry in trajectory.get("entries", []):
        if entry.get("settings_fingerprint") != fingerprint:
            continue
        provenance = entry.get("provenance") or {}
        if provenance.get("hostname") == hostname:
            pinned += 1
            if pinned >= 2:
                return True
    return False


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class CellVerdict:
    """One (benchmark, architecture, tier) cell's before/after."""

    benchmark: str
    architecture: str
    tier: str
    baseline_eps: float
    candidate_eps: float
    tolerance: float

    @property
    def ratio(self) -> float:
        if self.baseline_eps <= 0:
            return float("inf")
        return self.candidate_eps / self.baseline_eps

    @property
    def regressed(self) -> bool:
        return self.ratio < 1.0 - self.tolerance


@dataclasses.dataclass(frozen=True)
class CompareReport:
    """Per-cell verdicts of one baseline-vs-candidate comparison."""

    cells: Tuple[CellVerdict, ...]
    fingerprint: str

    @property
    def regressions(self) -> Tuple[CellVerdict, ...]:
        return tuple(cell for cell in self.cells if cell.regressed)

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        header = (f"{'benchmark':<10} {'arch':<8} {'tier':<10} "
                  f"{'baseline/s':>12} {'candidate/s':>12} "
                  f"{'ratio':>7} {'tol':>5}  verdict")
        lines = [header, "-" * len(header)]
        for cell in self.cells:
            verdict = "REGRESSED" if cell.regressed else "ok"
            lines.append(
                f"{cell.benchmark:<10} {cell.architecture:<8} "
                f"{cell.tier:<10} {cell.baseline_eps:>12,.0f} "
                f"{cell.candidate_eps:>12,.0f} {cell.ratio:>6.2f}x "
                f"{cell.tolerance:>4.0%}  {verdict}")
        lines.append(
            f"verdict: {len(self.regressions)} of {len(self.cells)} "
            f"cell(s) regressed "
            f"(settings fingerprint {self.fingerprint[:12]}...)")
        return "\n".join(lines)


def _cell_rates(entry: Mapping[str, Any],
                ) -> Dict[Tuple[str, str, str], float]:
    rates: Dict[Tuple[str, str, str], float] = {}
    for row in entry.get("rows", []):
        key = (row["benchmark"], row["architecture"], row["tier"])
        rates[key] = float(row["events_per_sec"])
    return rates


def compare_entries(baseline: Mapping[str, Any],
                    candidate: Mapping[str, Any],
                    tolerances: Optional[Mapping[str, float]] = None,
                    ) -> CompareReport:
    """Score ``candidate`` against ``baseline`` per cell.

    Refuses (``BenchSettingsMismatch``) when the entries' settings
    fingerprints differ — cross-regime events/s ratios measure the
    workload generator, not the simulator.  ``tolerances`` maps tier
    name to allowed fractional loss; a tier not named there falls
    back to the caller's ``"default"`` key, then to
    :data:`DEFAULT_TOLERANCES`, then to the reference tier's default.
    """
    base_fp = baseline.get("settings_fingerprint") \
        or settings_fingerprint(baseline)
    cand_fp = candidate.get("settings_fingerprint") \
        or settings_fingerprint(candidate)
    if base_fp != cand_fp:
        raise BenchSettingsMismatch(
            f"refusing to compare bench entries with different settings "
            f"fingerprints ({base_fp[:12]}... vs {cand_fp[:12]}...): "
            f"events/benchmark/architecture sets differ, so per-cell "
            f"throughput ratios would be meaningless")
    tolerances = dict(tolerances or {})
    base_rates = _cell_rates(baseline)
    cand_rates = _cell_rates(candidate)
    cells: List[CellVerdict] = []
    for key in sorted(set(base_rates) & set(cand_rates)):
        benchmark, architecture, tier = key
        tolerance = tolerances.get(tier, tolerances.get(
            "default", DEFAULT_TOLERANCES.get(
                tier, DEFAULT_TOLERANCES["reference"])))
        cells.append(CellVerdict(
            benchmark=benchmark,
            architecture=architecture,
            tier=tier,
            baseline_eps=base_rates[key],
            candidate_eps=cand_rates[key],
            tolerance=tolerance,
        ))
    if not cells:
        raise BenchTrajectoryError(
            "the entries share no (benchmark, architecture, tier) "
            "cells to compare")
    return CompareReport(cells=tuple(cells), fingerprint=base_fp)


def describe_entry(entry: Mapping[str, Any]) -> str:
    """One provenance line for an entry (CLI append confirmation)."""
    prov = entry.get("provenance") or {}
    commit = prov.get("git_commit")
    commit_text = (commit[:12] + ("+dirty" if prov.get("git_dirty")
                                  else "")) if commit else "unknown"
    host = prov.get("hostname") or "unknown-host"
    return (f"host {host}, commit {commit_text}, "
            f"{len(entry.get('rows', []))} cell row(s), fingerprint "
            f"{entry.get('settings_fingerprint', '')[:12]}...")
