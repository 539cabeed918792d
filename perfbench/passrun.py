"""One pass over one workload, in a fresh process.

Run by ``perfbench/run.py`` as ``python -m perfbench.passrun`` from
the repository root, with ``src`` on ``PYTHONPATH``; prints one JSON
record as its last line.

A fresh process per pass keeps passes independent: no trace, decode or
result memo of one pass can serve the next, and the pass's peak
memory is its own.

The timed window is the pass itself (``wall_s``).  Claims are
evaluated after it, with the hooks still counting so that a claim
which re-ran a job is caught; the reference re-runs and the digests
come after the hooks are removed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.experiments.runner import RunSettings

from perfbench.checks import counter_keys, digest, project
from perfbench.tracer import Tracer, job_hooks, layer_hooks
from perfbench.workloads import job_label, reference_check, run_pass

#: Spans kept per job in the traced pass (counts and self times cover
#: every call; the span log is a sample for inspection).
SPANS_PER_JOB = 400


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--events", type=int, required=True)
    parser.add_argument("--footprint-scale", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--reference-sample", type=int, default=0)
    parser.add_argument("--projection", default=None,
                        help="JSON file whose 'projection' key limits "
                             "the digested counters")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)

    projection = None
    if args.projection and os.path.exists(args.projection):
        with open(args.projection, encoding="utf-8") as handle:
            projection = json.load(handle).get("projection")

    settings = RunSettings(n_events=args.events,
                           footprint_scale=args.footprint_scale,
                           seed=args.seed)
    hooks = job_hooks() + (layer_hooks() if args.trace else [])
    tracer = Tracer(hooks, args.scratch,
                    span_cap=SPANS_PER_JOB if args.trace else 0)
    tracer.install()
    start = time.perf_counter()
    done = run_pass(args.workload, settings, args.scratch)
    wall_s = time.perf_counter() - start
    records = tracer.jobs + tracer.collect_worker_jobs()
    records.append(tracer.drain(job="pass"))

    claims = done.claims()
    extra_runs = tracer.drain()["calls"].get("FamSystem.run", 0)
    tracer.uninstall()
    errors = [f"claims evaluation re-ran {extra_runs} job(s)"] \
        if extra_runs else []
    reference = (reference_check(done, args.reference_sample, args.seed)
                 if args.reference_sample else [])

    if args.spans_out:
        with open(args.spans_out, "w", encoding="utf-8") as handle:
            for record in records:
                for name, begin, end, parent in record["spans"]:
                    handle.write(json.dumps(
                        {"job": record["job"], "pid": record["pid"],
                         "name": name, "start": begin, "end": end,
                         "parent": parent}) + "\n")
    for record in records:
        del record["spans"]

    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "wall_s": wall_s,
        "jobs": [job_label(cell) for cell in done.jobs],
        "failed": done.failed,
        "errors": errors,
        "reference_checked": min(args.reference_sample, len(done.results)),
        "reference_mismatched": reference,
        "digests": {job_label(cell): digest(project(result, projection))
                    for cell, result in done.results.items()},
        "counter_keys": counter_keys(done.results.values()),
        "claims": claims,
        "hook_layers": {hook.name: hook.layer for hook in hooks},
        "records": records,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
