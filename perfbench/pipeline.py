"""The four workloads and the pipeline each one runs.

Every workload runs the same pipeline, so every end-to-end metric has a
value on every workload.  After ``SETUP_REPS`` set-ups (RMAT edges ->
CSRGraph -> lookup key stream -> fresh RunStore -> server child) the
run repeats *rounds* until ``--seconds`` have passed and at least
``MIN_ROUNDS`` are done.  One round is:

    partition  ``partitioner.partition(graph)``
    store      ``RunStore.add_run(result)``
    lookups    a closed-loop burst of bulk HTTP lookups
    walks      a full ``/boundary`` walk and a slice of the
               ``/replicas?partition=k`` walks

Every metric is a median over its samples from all rounds.  The shared
machine has slow spells lasting seconds; spreading each phase's samples
over the whole run keeps such a spell from landing on one metric.  The
workloads differ in the graph and the partitioner, which decides which
layer carries the time (see ``DESIGN.md`` next to this file).
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from repro.cluster.runtime import SimulatedCluster
from repro.core.distributed_ne import DistributedNE
from repro.core.hash2d import Hash2DPlacement
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat_edges
from repro.observability.metrics import (
    MetricsRegistry,
    disable_metrics,
    enable_metrics,
)
from repro.partitioners.hashing import DBHPartitioner
from repro.serving import store as store_module
from repro.serving.store import RunStore

from perfbench import checks
from perfbench.layers import (
    IntervalTracer,
    Recorder,
    median_of,
    patched,
    self_total,
    split_partition,
    total,
)
from perfbench.server import (
    Client,
    ServerProcess,
    lookup_loop,
    walk,
)


@dataclass(frozen=True)
class Spec:
    scale: int
    edge_factor: int
    method: str           # "dne" or "dbh"
    partitions: int
    backend: str = "simulated"
    workers: int | None = None
    partitions_per_round: int = 1


WORKLOADS = {
    "dne-wide": Spec(12, 8, "dne", 256),
    "dne-deep": Spec(15, 8, "dne", 16),
    "dne-procs": Spec(15, 8, "dne", 16, backend="processes", workers=2),
    # DBH takes ~10 ms, so it is timed several times a round
    "publish-serve": Spec(15, 8, "dbh", 64, partitions_per_round=10),
}

SETUP_REPS = 3          # setup_s is the median of this many set-ups
MIN_ROUNDS = 5
LOOKUP_SHARE = 0.4      # of --seconds, spread over MIN_ROUNDS bursts
WALK_SLICES = 5         # the /replicas walks are spread over this many rounds
CLIENTS = 2
IDS_PER_REQUEST = 64
KEY_STREAM = 4096       # pre-built requests; the loop cycles through them
WARMUP_REQUESTS = 64
RETRY_SERIES = ("repro_worker_retries_total", "repro_worker_respawns_total",
                "repro_worker_timeouts_total")

DNE_TARGETS = [
    (Hash2DPlacement, "place_edges", "hash2d.place_edges"),
    (Hash2DPlacement, "replica_membership", "hash2d.membership"),
    (Hash2DPlacement, "replica_membership_words", "hash2d.membership"),
    (SimulatedCluster, "deliver_segments", "cluster.deliver_segments"),
    (SimulatedCluster, "barrier", "cluster.barrier"),
    (SimulatedCluster, "all_gather_sum", "cluster.all_gather_sum"),
]
# add_run calls these through the store module's own namespace
STORE_TARGETS = [
    (store_module, "vertex_replica_csr", "store.replica_csr"),
    (store_module, "replication_factor", "store.quality"),
    (store_module, "edge_balance", "store.quality"),
    (store_module, "vertex_balance", "store.quality"),
    (store_module, "vertex_cut_count", "store.quality"),
    (RunStore, "add_run", "store.add_run"),
]


class Ledger:
    """Attempted and failed operations, with the first failure texts."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.extend(failures[:2])


def make_partitioner(spec: Spec, seed: int, backend=None, tracer=None):
    if spec.method == "dbh":
        return DBHPartitioner(spec.partitions, seed=seed)
    return DistributedNE(spec.partitions, seed=seed,
                         backend=backend or spec.backend,
                         workers=spec.workers, tracer=tracer)


class Setup:
    """Inputs plus a fresh store and its server child."""

    def __init__(self, spec: Spec, seed: int, out_dir: str, traced: bool):
        self.store = self.server = None
        t0 = time.perf_counter()
        edges = rmat_edges(spec.scale, spec.edge_factor, seed=seed)
        t1 = time.perf_counter()
        self.graph = CSRGraph(edges)
        t2 = time.perf_counter()
        # The lookup key stream: endpoints of uniformly random edges,
        # so a vertex is asked for in proportion to its degree.
        rng = np.random.default_rng([seed, 1])
        shape = (KEY_STREAM, IDS_PER_REQUEST)
        picks = rng.integers(0, self.graph.num_edges, size=shape)
        sides = rng.integers(0, 2, size=shape)
        self.id_batches = self.graph.edges[picks, sides]
        self.bodies = [json.dumps({"vertices": row}).encode()
                       for row in self.id_batches.tolist()]
        self.store_dir = tempfile.mkdtemp(prefix="store-", dir=out_dir)
        try:
            self.store = RunStore(os.path.join(self.store_dir, "runs.db"))
            self.server = ServerProcess(self.store.path, traced)
        except BaseException:
            self.close()
            raise
        t3 = time.perf_counter()
        self.seconds = {"setup": t3 - t0, "generate": t1 - t0,
                        "csr": t2 - t1}

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
        if self.store is not None:
            self.store.close()
        shutil.rmtree(self.store_dir, ignore_errors=True)


def _percentile_ms(values, q) -> float:
    return float(np.percentile(values, q)) * 1e3 if values else 0.0


def _store_bytes(path: str) -> int:
    return sum(os.path.getsize(p) for p in (path, path + "-wal")
               if os.path.exists(p))


class Rounds:
    """The timed part of one run: one method per phase of a round, each
    appending its samples; :meth:`metrics` reduces them at the end."""

    def __init__(self, spec: Spec, seed: int, setup: Setup, traced: bool,
                 ledger: Ledger):
        self.spec, self.seed, self.setup = spec, seed, setup
        self.traced, self.ledger = traced, ledger
        self.recorder = Recorder()
        self.partition_s, self.traced_partition_s = [], []
        self.prints, self.layer_rows = [], []
        self.chrome = None
        self.result = self.expected = None
        self.store_s, self.store_rows, self.run_id = [], [], None
        self.store_bytes = _store_bytes(setup.store.path)
        self.bursts = []          # (records, start, end) per lookup burst
        self.boundary_s, self.replica_s = [], []
        self.server_calls: dict[str, list] = {}   # traced runs only
        self.run_cache = {"hits": 0, "misses": 0}

    # -- phases --------------------------------------------------------
    def partition(self) -> None:
        """In a traced run the first repetition is untraced (the
        overhead baseline); the rest run under the wrappers, a live
        registry and an :class:`IntervalTracer`."""
        for _ in range(self.spec.partitions_per_round):
            trace_rep = self.traced and bool(self.partition_s)
            tracer = IntervalTracer() if trace_rep else None
            partitioner = make_partitioner(
                self.spec, self.seed,
                tracer=tracer if self.spec.method == "dne" else None)
            registry = (enable_metrics(MetricsRegistry()) if trace_rep
                        else None)
            try:
                with patched(self.recorder,
                             DNE_TARGETS if trace_rep else []):
                    t0 = time.perf_counter()
                    result = partitioner.partition(self.setup.graph)
                    took = time.perf_counter() - t0
            finally:
                if trace_rep:
                    disable_metrics()
            (self.traced_partition_s if trace_rep
             else self.partition_s).append(took)
            self.prints.append(checks.fingerprint(result))
            if trace_rep:
                calls = self.recorder.take()
                row = split_partition(tracer.intervals, calls, took,
                                      result.extra)
                row["backend.retries"] = sum(registry.counter_total(n)
                                             for n in RETRY_SERIES)
                self.layer_rows.append(row)
                self.chrome = tracer.chrome_with(calls)
        if self.result is None:
            self.result = result
            graph = self.setup.graph
            self.expected = checks.Expected(
                graph.edges, result.assignment, graph.num_vertices,
                self.spec.partitions)

    def store(self) -> None:
        store = self.setup.store
        with patched(self.recorder, STORE_TARGETS if self.traced else []):
            t0 = time.perf_counter()
            run_id = store.add_run(self.result, seed=self.seed,
                                   label=f"perfbench-{len(self.store_s)}")
            self.store_s.append(time.perf_counter() - t0)
        if self.run_id is None:
            self.run_id = run_id
        want = self.prints[0]["replication_factor"]
        rf = store.metrics(run_id)["replication_factor"]
        self.ledger.record([] if rf == want else
                           [f"stored RF {rf} != computed {want}"])
        if self.traced:
            calls = self.recorder.take()
            self.store_rows.append({
                "store.replica_csr_s": total(
                    calls.get("store.replica_csr", [])),
                "store.quality_s": total(calls.get("store.quality", [])),
                "store.sql_s": self_total(calls.get("store.add_run", []))})

    def serve(self, burst_seconds: float, round_index: int) -> None:
        """Lookups and walks against a fresh server child (the set-up's
        own in the first round).  Some server processes run slow for
        their whole life on the shared machine; one per round confines
        such a process to one round's samples."""
        if round_index:
            self._collect(self.setup.server.stop())
            self.setup.server = ServerProcess(self.setup.store.path,
                                              self.traced)
        server = self.setup.server
        client = Client(server.port)
        try:
            self._warm_up(client)
            self.bursts.append(lookup_loop(server.port, self.run_id,
                                           self.setup.bodies, burst_seconds,
                                           CLIENTS))
            self._walks(client, round_index)
        finally:
            client.close()

    def finish(self) -> None:
        self._collect(self.setup.server.stop())

    def _collect(self, totals: dict | None) -> None:
        if not totals:
            return
        for name, records in totals["calls"].items():
            self.server_calls.setdefault(name, []).extend(records)
        for key in self.run_cache:
            self.run_cache[key] += totals["run_cache"][key]

    def _warm_up(self, client: Client) -> None:
        """Untimed: mmap sidecars written, caches filled, pages touched;
        then the server's wrapper records start afresh."""
        run = f"/api/runs/{self.run_id}"
        for body in self.setup.bodies[:WARMUP_REQUESTS]:
            status = client.request("POST", f"{run}/lookup", body)[1]
            self.ledger.record([] if status == 200 else
                               [f"warm-up lookup -> {status}"])
        for path in (f"{run}/boundary", f"{run}/replicas?partition=0"):
            status = client.request("GET", path)[1]
            self.ledger.record([] if status == 200 else
                               [f"warm-up GET {path} -> {status}"])
        if self.traced:
            self.setup.server.reset()

    def _walks(self, client: Client, round_index: int) -> None:
        run = f"/api/runs/{self.run_id}"
        items, took, failures = walk(client, f"{run}/boundary")
        self.boundary_s += took
        self.ledger.record(failures or checks.check_boundary_walk(
            self.expected, items))
        for k in range(round_index % WALK_SLICES, self.spec.partitions,
                       WALK_SLICES):
            items, took, failures = walk(
                client, f"{run}/replicas?partition={k}")
            self.replica_s += took
            self.ledger.record(failures or checks.check_replica_walk(
                self.expected, k, items))

    # -- reduction -----------------------------------------------------
    def metrics(self, out: dict) -> dict:
        """Check every lookup answer and fill ``out``; returns report
        details."""
        ledger = self.ledger
        ledger.record(checks.check_repeats(self.prints))
        if self.spec.backend != "simulated":
            reference = make_partitioner(self.spec, self.seed,
                                         backend="simulated")
            ledger.record(checks.check_same_assignment(
                checks.fingerprint(reference.partition(self.setup.graph)),
                self.prints[0], f"{self.spec.backend} backend"))
        fp = self.prints[0]
        out["partition_s"] = (median_of(self.partition_s),
                              len(self.partition_s))
        out["replication_factor"] = (fp["replication_factor"],
                                     len(self.prints))
        out["edge_balance"] = (fp["edge_balance"], len(self.prints))
        out["store_write_s"] = (median_of(self.store_s), len(self.store_s))

        # Latency and throughput per burst, then the median over bursts.
        latencies, burst_p50, burst_ids = [], [], []
        for records, start, end in self.bursts:
            ok = []
            for i, took, status, data in records:
                if took is None or status != 200:
                    ledger.record([f"lookup -> {status}"])
                    continue
                failures = checks.check_lookup(
                    self.expected, self.setup.id_batches[i],
                    json.loads(data))
                ledger.record(failures)
                if not failures:
                    ok.append(took)
            latencies += ok
            burst_p50.append(_percentile_ms(ok, 50))
            burst_ids.append(len(ok) * IDS_PER_REQUEST / (end - start))
        # pages are counted once each, on top of the per-walk checks
        ledger.attempted += len(self.boundary_s) + len(self.replica_s)
        n = len(latencies)
        out["lookup_p50_ms"] = (median_of(burst_p50), n)
        out["lookup_p99_ms"] = (_percentile_ms(latencies, 99), n)
        out["lookups_per_s"] = (median_of(burst_ids), n)
        for name, pages in (("boundary_page", self.boundary_s),
                            ("replica_page", self.replica_s)):
            out[f"{name}_p50_ms"] = (_percentile_ms(pages, 50), len(pages))
            out[f"{name}_p99_ms"] = (_percentile_ms(pages, 99), len(pages))
        if self.traced:
            self._layer_metrics(latencies, out)
        return {"per_round": {"partition_s": self.partition_s,
                              "store_write_s": self.store_s,
                              "lookup_p50_ms": burst_p50,
                              "lookups_per_s": burst_ids}}

    def _layer_metrics(self, latencies, out) -> None:
        rows = self.layer_rows
        for key in rows[0]:
            out[key] = (median_of(r[key] for r in rows), len(rows))
        fp = self.prints[0]
        cluster = fp["cluster"] or {}
        for key, value in (
                ("dne.iterations", fp["iterations"]),
                ("dne.ops_one_hop", fp["ops"][0] or 0),
                ("dne.ops_two_hop", fp["ops"][1] or 0),
                ("cluster.messages", cluster.get("total_messages", 0)),
                ("cluster.bytes", cluster.get("total_bytes", 0)),
                ("cluster.peak_resident_bytes",
                 cluster.get("peak_resident_bytes", 0))):
            out[key] = (value, len(self.prints))
        out["trace.overhead_ratio"] = (
            median_of(self.traced_partition_s) / median_of(self.partition_s),
            len(self.traced_partition_s))
        writes = len(self.store_s)
        for key in self.store_rows[0]:
            out[key] = (median_of(r[key] for r in self.store_rows), writes)
        out["store.replica_rows"] = (self.expected.replica_rows, writes)
        grown = _store_bytes(self.setup.store.path) - self.store_bytes
        out["store.bytes_per_edge"] = (
            grown / writes / self.setup.graph.num_edges, writes)

        calls = self.server_calls

        def med(name, self_time=False):
            return median_of(r[1 if self_time else 0]
                             for r in calls.get(name, []))
        lookups = len(calls.get("api.handle:lookup", []))
        cache = self.run_cache
        out["store.boundary_page_s"] = (med("store.boundary_page"),
                                        len(self.boundary_s))
        out["store.replica_page_s"] = (med("store.replica_page"),
                                       len(self.replica_s))
        out["lookup.bulk_s"] = (med("lookup.bulk"), lookups)
        out["lookup.run_cache_hit_ratio"] = (
            cache["hits"] / max(1, cache["hits"] + cache["misses"]),
            cache["hits"] + cache["misses"])
        out["api.handle_s"] = (med("api.handle:lookup", self_time=True),
                               lookups)
        out["api.wait_s"] = (median_of(latencies)
                             - med("api.handle:lookup"), len(latencies))


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 out_dir: str) -> tuple[dict, Ledger, dict]:
    """Run one workload; returns ``(metrics, ledger, details)`` where
    ``metrics`` maps a name to ``(value, sample count)``."""
    spec = WORKLOADS[name]
    ledger = Ledger()
    out: dict = {}
    setups = []
    setup = None
    try:
        for _ in range(SETUP_REPS):
            if setup is not None:
                setup.close()
            setup = Setup(spec, seed, out_dir, traced)
            setups.append(setup.seconds)
        out["setup_s"] = (median_of(s["setup"] for s in setups), len(setups))
        out["graph.generate_s"] = (median_of(s["generate"] for s in setups),
                                   len(setups))
        out["graph.csr_build_s"] = (median_of(s["csr"] for s in setups),
                                    len(setups))
        rounds = Rounds(spec, seed, setup, traced, ledger)
        burst = seconds * LOOKUP_SHARE / MIN_ROUNDS
        deadline = time.perf_counter() + seconds
        done = 0
        while done < MIN_ROUNDS or time.perf_counter() < deadline:
            rounds.partition()
            rounds.store()
            rounds.serve(burst, done)
            done += 1
        rounds.finish()
        details = rounds.metrics(out)
    finally:
        if setup is not None:
            setup.close()
    details.update(spec=spec.__dict__, rounds=done,
                   num_edges=setup.graph.num_edges,
                   num_vertices=setup.graph.num_vertices,
                   chrome=rounds.chrome)
    return out, ledger, details
