"""End-to-end benchmark of the partition-and-serve pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload dne-deep --seed 1 --seconds 10 --trace 0

Prints a metric table, a JSON report line (seed, environment labels,
sample counts, failures) and, as the last line, the JSON result
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1``
reports its per-layer metrics and writes a Chrome trace under
``perfbench/out/``.  Exits non-zero when any output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "perfbench", "out")
LATENCY_LABEL = ("sandbox numbers: loopback HTTP on one machine, store "
                 "files served from the OS page cache, not device numbers")


def _environment(workers: int | None) -> dict:
    import numpy as np

    nproc = os.cpu_count() or 1
    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": np.__version__,
            "hardware_limited": (workers or 1) > nproc,
            "latency_label": LATENCY_LABEL}


def _peak_rss_mb() -> float:
    """This process's peak resident set plus the largest finished
    child's (server child, backend workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def _stop_resource_tracker() -> None:
    """``multiprocessing`` starts a resource-tracker process the first
    time a run spawns a child or maps shared memory; end it and wait for
    it, so a run leaves no process behind."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    names = [w["name"] for w in declared["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    try:
        from perfbench.pipeline import WORKLOADS, run_workload
    except ImportError as exc:
        print(f"cannot import the program from {ROOT}/src: {exc}",
              file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    traced = bool(args.trace)
    try:
        measured, ledger, details = run_workload(
            args.workload, args.seed, args.seconds, traced, OUT_DIR)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        _stop_resource_tracker()
    if not traced:
        measured["peak_rss_mb"] = (_peak_rss_mb(), 1)
    chrome = details.pop("chrome")
    if traced and chrome is not None:
        path = os.path.join(
            OUT_DIR, f"{args.workload}-seed{args.seed}.trace.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(chrome, fh)
        details["chrome_trace"] = os.path.relpath(path, ROOT)

    wanted = declared["per_layer" if traced else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics, samples = {}, {}
    for m in wanted:
        value, count = measured[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        samples[m["name"]] = count
        print(f"{m['name']:32s} {value:16.6g} {m['unit']:8s} "
              f"samples={count}")
    error_ratio = ledger.failed / max(1, ledger.attempted)
    print(f"{'error_ratio':32s} {error_ratio:16.6g} {'ratio':8s} "
          f"samples={ledger.attempted}")
    correct = ledger.failed == 0
    print(json.dumps({
        "report": {"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "environment": _environment(
                       WORKLOADS[args.workload].workers),
                   "samples": samples, "error_ratio": error_ratio,
                   "failures": ledger.failures, **details}}))
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
