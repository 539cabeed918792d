"""Benchmark of the DeACT reproduction on the paper's own workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload main-matrix --seed 7 \\
        --seconds 30 --trace 0

``--trace 0`` runs passes of the workload (each in a fresh process)
until another pass would not fit in ``--seconds``; at least one pass
always runs.  It prints the end-to-end metrics.  ``--trace 1`` runs
one untraced and one traced pass and prints the per-layer metrics,
the tracing overhead and the reconciliation of traced counts with the
simulator's counters.

Inputs are made from ``--seed``: it is the harness's ``RunSettings``
seed, from which every job's traces are generated.  Outputs are
checked against the digests committed in ``perfbench/digests.json``
when the seed and scale have them, and otherwise against the
simulator's reference tier on a seeded sample of jobs.  The last line
of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--write-digests SEED...`` regenerates ``perfbench/digests.json``
(for an intended model change).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "digests.json")
OUT = os.path.join(HERE, "out")

#: Trace scale of every job: events per node trace, footprint scale.
EVENTS = 20_000
FOOTPRINT_SCALE = 0.12
#: Jobs re-run on the reference tier when no digests are committed.
REFERENCE_SAMPLE = 2
#: Every run must end well inside the 180 s a run is allowed.
RUN_DEADLINE_S = 170.0
MAX_PASSES = 20


class BenchError(Exception):
    """The benchmark could not measure (no result line is printed)."""


def _pass(args, trace: int, reference: int, deadline: float,
          projection: bool = True) -> dict:
    """Run one pass in a fresh process and return its record."""
    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    command = [sys.executable, "-m", "perfbench.passrun",
               "--workload", args.workload, "--seed", str(args.seed),
               "--events", str(args.events),
               "--footprint-scale", repr(args.footprint_scale),
               "--trace", str(trace), "--scratch", scratch,
               "--reference-sample", str(reference)]
    if projection:
        command += ["--projection", DIGESTS]
    if trace:
        command += ["--spans-out",
                    os.path.join(OUT, f"{args.workload}-spans.jsonl")]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [ROOT, SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # A fixed string-hash seed gives every pass the same dict layouts;
    # temporary files stay inside the checkout.
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = scratch
    timeout = max(deadline - time.monotonic(), 1.0)
    child = subprocess.Popen(command, cwd=ROOT, env=env, text=True,
                             stdout=subprocess.PIPE, start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass exceeded {timeout:.0f}s") from exc
    finally:
        # The pass has its own session, so this stops it and its workers
        # when it overran or the benchmark was interrupted, and any worker
        # it left behind when it finished.
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
        shutil.rmtree(scratch, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise BenchError(f"pass exited with code {child.returncode}")
    return json.loads(lines[-1])


def _committed(args) -> dict:
    """Committed digests for this workload, seed and scale (or {})."""
    if not os.path.exists(DIGESTS):
        return {}
    with open(DIGESTS, encoding="utf-8") as handle:
        data = json.load(handle)
    if data.get("scale") != {"events": args.events,
                             "footprint_scale": args.footprint_scale}:
        return {}
    return data.get("seeds", {}).get(str(args.seed), {}).get(args.workload,
                                                             {})


def _failures(passes, committed: dict) -> set:
    """``(pass index, job)`` pairs whose output is wrong or missing."""
    failed = set()
    first = passes[0]["digests"]
    for index, record in enumerate(passes):
        failed.update((index, job) for job in record["failed"])
        failed.update((index, job) for job in record["reference_mismatched"])
        digests = record["digests"]
        for job in record["jobs"]:
            if job not in digests:
                failed.add((index, job))
            elif committed and committed.get(job) != digests[job]:
                failed.add((index, job))
            elif digests[job] != first.get(job):
                failed.add((index, job))
    return failed


def _report(args, passes, committed, failed, attempted) -> None:
    """Human-readable lines before the result line."""
    from perfbench.metrics import job_tail, job_walls
    from perfbench.workloads import WORKERS

    first = passes[0]
    workers = WORKERS[args.workload]
    runs = ("an untraced and a traced pass" if args.trace
            else f"{len(passes)} pass(es)")
    print(f"perfbench {args.workload}: seed {args.seed}, "
          f"{args.events} events per node trace, footprint scale "
          f"{args.footprint_scale}, {len(first['jobs'])} jobs per pass, "
          f"{runs}, closed loop on {workers} worker(s); modelled caches "
          f"start empty in every job")
    walls = job_walls([p for p in passes if not p["trace"]])
    print(f"  job_p50_s: {statistics.median(walls):.4f} s (host, median of "
          f"{len(walls)} jobs)")
    tail = job_tail(walls)
    if tail is None:
        print("  job_tail_s: omitted (fewer than 11 jobs)")
    else:
        print(f"  job_tail_s: {tail[0]:.4f} s (host, p{tail[1]:.1f} of "
              f"{len(walls)} jobs)")
    print(f"  failed_frac: {len(failed) / attempted:.4f} "
          f"({len(failed)}/{attempted} jobs)")
    claims = first["claims"]
    held = sum(claim["held"] for claim in claims)
    print(f"  claims_held: {held}/{len(claims)} (sim; the model is not "
          f"validated against hardware, so no error figure is given)")
    for claim in claims:
        if not claim["held"]:
            print(f"    not held: {claim['figure']}: {claim['claim']}")
    if committed:
        print(f"  outputs: checked against {len(committed)} committed "
              f"digests")
    else:
        print(f"  outputs: {first['reference_checked']} job(s) re-run on "
              f"the reference tier")
    for index, job in sorted(failed):
        print(f"  FAILED pass {index}: {job}", file=sys.stderr)
    for error in (e for p in passes for e in p["errors"]):
        print(f"  ERROR: {error}", file=sys.stderr)


def _measure(args) -> dict:
    from perfbench.checks import reconcile
    from perfbench.metrics import end_to_end, layer_metrics
    from perfbench.workloads import WORKERS

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    deadline = time.monotonic() + RUN_DEADLINE_S
    committed = _committed(args)
    reference = 0 if committed else REFERENCE_SAMPLE
    passes = [_pass(args, 0, reference, deadline)]
    if args.trace:
        passes.append(_pass(args, 1, 0, deadline))
    else:
        measured = passes[0]["wall_s"]
        while (len(passes) < MAX_PASSES
               and measured * (len(passes) + 1) / len(passes)
               <= args.seconds):
            passes.append(_pass(args, 0, 0, deadline))
            measured += passes[-1]["wall_s"]
    failed = _failures(passes, committed)
    attempted = sum(len(p["jobs"]) for p in passes)
    _report(args, passes, committed, failed, attempted)
    errors = [e for p in passes for e in p["errors"]]

    if args.trace:
        problems = reconcile(passes[1]["records"])
        for problem in problems:
            print(f"  RECONCILE: {problem}", file=sys.stderr)
        values = layer_metrics(passes[1], passes[0], WORKERS[args.workload],
                               len(problems))
        wanted = spec["per_layer"]
        with open(os.path.join(OUT, f"{args.workload}-layers.json"), "w",
                  encoding="utf-8") as handle:
            json.dump({"metrics": values, "reconcile": problems}, handle,
                      indent=1, sort_keys=True)
    else:
        values = end_to_end(passes)
        wanted = spec["end_to_end"]
    return {
        "correct": not failed and not errors,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }


def _write_digests(args) -> None:
    from perfbench.workloads import WORKLOADS

    deadline = time.monotonic() + 3600.0
    seeds, projection = {}, {}
    for seed in args.write_digests:
        seeds[str(seed)] = {}
        for workload in WORKLOADS:
            args.workload, args.seed = workload, seed
            record = _pass(args, 0, 0, deadline, projection=False)
            if record["failed"] or len(record["digests"]) != len(
                    record["jobs"]):
                raise BenchError(f"{workload} seed {seed}: jobs failed")
            seeds[str(seed)][workload] = record["digests"]
            for name, keys in record["counter_keys"].items():
                projection[name] = sorted(set(projection.get(name, []))
                                          | set(keys))
    with open(DIGESTS, "w", encoding="utf-8") as handle:
        json.dump({"schema": 1,
                   "scale": {"events": args.events,
                             "footprint_scale": args.footprint_scale},
                   "projection": projection, "seeds": seeds},
                  handle, indent=1, sort_keys=True)
        handle.write("\n")


def _terminated(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminated)
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload",
                        choices=("main-matrix", "stu-sweep", "multi-node"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--events", type=int, default=EVENTS,
                        help="events per node trace (tests shrink it)")
    parser.add_argument("--footprint-scale", type=float,
                        default=FOOTPRINT_SCALE)
    parser.add_argument("--write-digests", type=int, nargs="+",
                        metavar="SEED")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, SRC]
    try:
        if args.write_digests:
            _write_digests(args)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        result = _measure(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
