"""One workload in a fresh interpreter: set-up, then (for ``main``) the
measurement.  ``run.py`` starts this and reads two lines from it:
``PERFBENCH-READY`` when set-up is done and ``PERFBENCH-RESULT {json}``.
"""

from __future__ import annotations

import json
import sys
import traceback
from pathlib import Path

import harness
import workloads


def main(args) -> int:
    run = workloads.Run(args.workload, args.seed, bool(args.trace))
    workload = workloads.build(args.workload, args.seed)
    try:
        try:
            workload.setup(run)
            print("PERFBENCH-READY", flush=True)
            if args.child == "setup":
                return 0
            workload.measure(run, float(args.seconds))
        finally:
            workload.close(run)
    except Exception:  # report the failure as a failed check, not a crash
        traceback.print_exc(file=sys.stdout)
        run.check("workload ran to completion", False, traceback.format_exc(limit=1).strip())
        if args.child == "setup":
            return 1
    run.metrics["peak_rss_mb"] = harness.peak_rss_mb()
    if workload.tracer is not None and args.out:
        workload.tracer.write(Path(args.out) / "spans.jsonl")
    print("PERFBENCH-RESULT " + json.dumps(run.as_dict()), flush=True)
    return 0
