"""Run one workload of the repository benchmark, or all four.

    python3 perfbench/run.py --workload compress --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run it from the root of a checkout.  Metric names, units and bounds come
from ``BENCHMARK.json``; ``perfbench/METRICS.md`` says what each metric
means on each workload and which metrics a change to each layer should move.

Every workload runs in a fresh interpreter with BLAS pinned to one thread
and ``REPRO_CACHE`` pointing at a fresh directory.  Untraced runs (``--trace
0``) start the workload's set-up three times, each in its own interpreter,
and report the median time to the first timed operation as ``setup_s``; the
third interpreter goes on to measure.  Traced runs (``--trace 1``) report
the per-layer metrics instead.

The last line of standard output is one JSON object.  The exit code is 0
when every output check passed, 1 when one failed (a wrong output, a
refused or failed request, a leaked shared-memory segment, a hung shutdown
or a changed input trace), and 2, with no result printed, when the
benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
WORKLOADS = ("compress", "cold_start", "serve_thread", "serve_process")
SETUP_RUNS = 3
CHILD_TIMEOUT_S = 150.0
SETUP_TIMEOUT_S = 60.0


def _spec(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())


def _child_env(root: Path, cache: str) -> Dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["REPRO_CACHE"] = cache
    env["PYTHONUNBUFFERED"] = "1"
    return env


def _start_child(root: Path, args, role: str, scratch: Path):
    cache = tempfile.mkdtemp(prefix="cache-", dir=scratch)  # a fresh REPRO_CACHE
    cmd = [sys.executable, str(HERE / "run.py"), "--child", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(scratch)]
    return subprocess.Popen(cmd, cwd=root, env=_child_env(root, cache),
                            stdout=subprocess.PIPE, text=True)


def _drive_child(proc, started: float, timeout: float) -> tuple:
    """Relay the child's output; return (seconds to READY, RESULT dict)."""
    ready_s: Optional[float] = None
    result: Optional[dict] = None
    watchdog = threading.Timer(timeout - (time.perf_counter() - started), proc.kill)
    watchdog.start()
    try:
        for line in proc.stdout:
            if line.startswith("PERFBENCH-READY"):
                ready_s = time.perf_counter() - started
            elif line.startswith("PERFBENCH-RESULT "):
                result = json.loads(line[len("PERFBENCH-RESULT "):])
            else:
                sys.stdout.write(line)
        proc.wait()
    finally:
        watchdog.cancel()
    if proc.returncode != 0:
        print(f"[perfbench] child exited with code {proc.returncode}"
              + (f" (killed after {timeout:.0f} s)" if proc.returncode < 0 else ""))
        result = None
    return ready_s, result


def run_one(root: Path, args) -> dict:
    """Set-up probes plus one measuring child; the merged result."""
    scratch_root = root / ".perfbench"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_root))
    setups: List[float] = []
    try:
        probes = 0 if args.trace else SETUP_RUNS - 1
        for _ in range(probes):
            started = time.perf_counter()
            proc = _start_child(root, args, "setup", scratch)
            ready_s, _ = _drive_child(proc, started, SETUP_TIMEOUT_S)
            if ready_s is None or proc.returncode != 0:
                return {"correct": False, "error": "set-up failed", "metrics": {}}
            setups.append(ready_s)
        started = time.perf_counter()
        proc = _start_child(root, args, "main", scratch)
        ready_s, result = _drive_child(proc, started, CHILD_TIMEOUT_S)
        if result is None:
            return {"correct": False, "error": "measurement failed", "metrics": {}}
        if ready_s is not None:
            setups.append(ready_s)
        if not args.trace:
            result["metrics"]["setup_s"] = statistics.median(setups)
            result["notes"]["setup_s"] = "median of " + ", ".join(f"{s:.3f}" for s in setups)
        spans = scratch / "spans.jsonl"
        if spans.exists():
            keep = scratch_root / f"spans-{args.workload}-{args.seed}.jsonl"
            shutil.move(str(spans), keep)
            result["notes"]["spans"] = str(keep.relative_to(root))
        return result
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def report(result: dict, spec: dict, trace: bool) -> dict:
    """Print the human-readable report; return the contract's metrics."""
    notes = result.get("notes", {})
    kind = "per_layer" if trace else "end_to_end"
    print(f"== {result.get('workload')} seed={result.get('seed')} "
          f"{'traced' if trace else 'untraced'} ==")
    for phase in result.get("phases", []):
        counted = "" if phase["counted"] else " (not counted: above capacity)"
        print(f"  phase {phase['name']}: sent {phase['sent']}, succeeded {phase['succeeded']}, "
              f"refused {phase['refused']}, failed {phase['failed']}, wrong {phase['wrong']}"
              f"{'; ' + phase['extra'] if phase['extra'] else ''}{counted}")
    for name, ok, detail in result.get("checks", []):
        print(f"  check {'ok  ' if ok else 'FAIL'} {name}{': ' + detail if detail else ''}")
    for finding in result.get("findings", []):
        print(f"  finding: {finding}")
    metrics = {}
    for entry in spec[kind]:
        name, unit = entry["name"], entry["unit"]
        value = result["metrics"].get(name)
        note = notes.get(name, "")
        if value is None and trace:
            value, note = 0.0, "not exercised by this workload"
        if value is None:
            result["correct"] = False
            print(f"  {name:32s} MISSING")
            continue
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:32s} {value:14.4f} {unit:9s} {note}")
    gated = {entry["name"] for entry in spec[kind]}
    for name, value in result["metrics"].items():
        if name not in gated and not trace:
            print(f"  {name:32s} {value:14.4f} (not gated) {notes.get(name, '')}")
    for name in ("throughput_mb_s", "harness", "trace_digest", "spans"):
        if name in notes:
            print(f"  {name:32s} {notes[name]}")
    return metrics


def _contract_line(result: dict, metrics: dict) -> str:
    return json.dumps({
        "correct": bool(result.get("correct")),
        "attempted": int(result.get("attempted", 0)),
        "failed": int(result.get("failed", 0)),
        "metrics": metrics,
    })


def parse_args(argv: List[str]):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "main"), help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if args.child:
        import child

        return child.main(args)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file() or not (root / "BENCHMARK.json").is_file():
        print("perfbench: run from the root of a repository checkout "
              "(src/repro and BENCHMARK.json not found)", file=sys.stderr)
        return 2
    spec = _spec(root)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        args.workload = name
        result = run_one(root, args)
        result.setdefault("workload", name)
        result.setdefault("seed", args.seed)
        if "error" in result:
            print(f"[perfbench] {name}: {result['error']}")
        metrics = report(result, spec, bool(args.trace))
        results.append((result, metrics))
    if len(results) == 1:
        result, metrics = results[0]
    else:
        result = {
            "correct": all(r.get("correct") for r, _ in results),
            "attempted": sum(int(r.get("attempted", 0)) for r, _ in results),
            "failed": sum(int(r.get("failed", 0)) for r, _ in results),
        }
        metrics = {f"{r['workload']}.{k}": v for r, ms in results for k, v in ms.items()}
    print(_contract_line(result, metrics))
    return 0 if result.get("correct") else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
