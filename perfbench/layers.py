"""Outside-in layer timing: call wrappers, an interval-keeping tracer,
and the arithmetic that splits a traced partition run by layer.

Nothing here edits the program.  Wrappers replace a public function or
method on its class or module for the duration of a ``with
patched(...)`` block and restore the original afterwards; the tracer
is handed to ``DistributedNE`` through its public ``tracer=`` argument.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import threading
import time

from repro.observability.trace import Tracer


class Recorder:
    """Collects one ``(start, end, self_seconds, depth)`` record per
    wrapped call, by name.

    Self time is the call's duration minus the time spent in wrapped
    calls nested inside it on the same thread.
    """

    def __init__(self):
        self.calls: dict[str, list] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def wrap(self, fn, name):
        """``name`` is a string or a function of the call's arguments
        (so one wrapper can split calls by route)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            child = [0.0]
            stack.append(child)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][0] += t1 - t0
                key = name(*args, **kwargs) if callable(name) else name
                with self._lock:
                    self.calls.setdefault(key, []).append(
                        (t0, t1, t1 - t0 - child[0], len(stack)))
        return wrapper

    def take(self) -> dict:
        """Return the records so far and start afresh."""
        with self._lock:
            calls, self.calls = self.calls, {}
        return calls


@contextlib.contextmanager
def patched(recorder: Recorder, targets):
    """Install ``recorder`` wrappers on ``(owner, attribute, name)``
    targets; restore every original on exit."""
    saved = []
    try:
        for owner, attr, name in targets:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(original, name))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class IntervalTracer(Tracer):
    """The program's :class:`Tracer`, also keeping each span's absolute
    ``perf_counter`` interval so spans can be lined up with wrapper
    records (the Chrome export rounds and rebases them)."""

    def __init__(self):
        super().__init__()
        self.origin = time.perf_counter()
        self.intervals: list[tuple[str, float, float]] = []

    def span(self, name, cat="", seconds=0.0, args=None, tid=0):
        now = time.perf_counter()
        self.intervals.append((name, now - seconds, now))
        super().span(name, cat=cat, seconds=seconds, args=args, tid=tid)

    def chrome_with(self, calls: dict) -> dict:
        """The Chrome trace plus the wrapper records as ``bench`` spans."""
        doc = self.to_chrome()
        for name, records in calls.items():
            for t0, t1, self_s, depth in records:
                doc["traceEvents"].append({
                    "name": name, "cat": "bench", "ph": "X",
                    "ts": round((t0 - self.origin) * 1e6, 3),
                    "dur": round((t1 - t0) * 1e6, 3), "pid": 0,
                    "tid": 1, "args": {"self_seconds": self_s,
                                       "depth": depth}})
        return doc


def total(records) -> float:
    return sum(r[1] - r[0] for r in records)


def self_total(records) -> float:
    return sum(r[2] for r in records)


def median_of(values, default=0.0) -> float:
    values = list(values)
    return statistics.median(values) if values else default


PHASES = ("selection", "one_hop", "two_hop", "update_state",
          "check_termination")


def split_partition(intervals, calls: dict, partition_s: float,
                    extra: dict) -> dict:
    """Attribute one traced ``DistributedNE.partition`` call to layers.

    ``intervals`` are the tracer's spans of that call, ``calls`` the
    wrapper records taken during it.  Wrapper calls that ran inside a
    phase span (fused delivery, replica membership) are subtracted from
    that phase, so every second is counted once:

        partition_s = dne.load_s + sum(phase self times)
                      + nested wrapper time + barrier + all_gather
                      + driver_other + unattributed
    """
    spans: dict[str, list] = {}
    for name, t0, t1 in intervals:
        spans.setdefault(name, []).append((t0, t1))
    phase_spans = {ph: spans.get(f"phase:{ph}", []) for ph in PHASES}
    nested_names = ("cluster.deliver_segments", "hash2d.membership")
    nested = {ph: 0.0 for ph in PHASES}
    for name in nested_names:
        for t0, t1, _self, depth in calls.get(name, []):
            if depth:
                continue
            mid = (t0 + t1) / 2
            for ph, ivs in phase_spans.items():
                if any(a <= mid <= b for a, b in ivs):
                    nested[ph] += t1 - t0
                    break
    phase_total = {ph: sum(b - a for a, b in ivs)
                   for ph, ivs in phase_spans.items()}
    barrier = calls.get("cluster.barrier", [])
    gather = calls.get("cluster.all_gather_sum", [])
    barrier_s, gather_s = total(barrier), total(gather)
    run = spans.get("run:distributed_ne", [])
    run_s = sum(b - a for a, b in run)
    load_s = float(extra.get("load_seconds", 0.0))
    placed = calls.get("hash2d.place_edges", [])
    overlap = 0.0
    if run and placed:
        # The load interval starts with placement; the run span starts
        # after placement and covers process construction, which load
        # also counts — remove that overlap once.
        l0 = placed[0][0]
        r0, r1 = run[0]
        overlap = max(0.0, min(r1, l0 + load_s) - max(r0, l0))
    covered = load_s + run_s - overlap
    superstep_s = sum(b - a for name, ivs in spans.items()
                      if name.startswith("superstep:") for a, b in ivs)
    busy = (float(extra.get("parallel_selection_seconds", 0.0))
            + float(extra.get("parallel_allocation_seconds", 0.0)))
    ops = int(extra.get("ops_one_hop", 0)) + int(extra.get("ops_two_hop", 0))
    one_two = ((phase_total["one_hop"] - nested["one_hop"])
               + (phase_total["two_hop"] - nested["two_hop"]))
    executed = int(extra.get("steps_executed", 0))
    skipped = int(extra.get("steps_skipped", 0))
    membership = calls.get("hash2d.membership", [])
    deliver = calls.get("cluster.deliver_segments", [])
    return {
        "hash2d.place_edges_s": total(placed),
        "hash2d.membership_calls": len(membership),
        "hash2d.membership_s": total(membership),
        "dne.selection_s": phase_total["selection"] - nested["selection"],
        "dne.one_hop_s": phase_total["one_hop"] - nested["one_hop"],
        "dne.two_hop_s": phase_total["two_hop"] - nested["two_hop"],
        "dne.update_state_s": (phase_total["update_state"]
                               - nested["update_state"]),
        "dne.termination_s": (phase_total["check_termination"]
                              - nested["check_termination"]),
        "dne.load_s": load_s,
        "dne.ns_per_slot": one_two / ops * 1e9 if ops else 0.0,
        "dne.steps_executed": executed,
        "dne.steps_skipped": skipped,
        "dne.step_useful_ratio": (executed / (executed + skipped)
                                  if executed + skipped else 0.0),
        "cluster.deliver_calls": len(deliver),
        "cluster.deliver_s": total(deliver),
        "cluster.barriers": len(barrier),
        "cluster.barrier_s": barrier_s,
        "cluster.all_gather_s": gather_s,
        "cluster.driver_other_s": (run_s - overlap
                                   - sum(phase_total.values())
                                   - barrier_s - gather_s),
        "backend.superstep_s": superstep_s,
        "backend.worker_busy_s": busy,
        "backend.overhead_s": superstep_s - busy,
        "trace.unattributed_share": (1.0 - covered / partition_s
                                     if partition_s > 0 else 0.0),
    }
