"""The benchmark's own tests: every output check passes on the
program's real answers and fails on a deliberately wrong one, the
layer arithmetic adds up, and a tiny run reports every declared metric.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from perfbench import checks, pipeline
from perfbench.layers import IntervalTracer, Recorder, patched, split_partition
from repro.core.distributed_ne import DistributedNE
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat_edges
from repro.observability.metrics import NullMetricsRegistry
from repro.partitioners.hashing import DBHPartitioner
from repro.serving.api import ServingAPI
from repro.serving.store import RunStore

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    graph = CSRGraph(rmat_edges(8, 4, seed=3))
    result = DBHPartitioner(6, seed=3).partition(graph)
    store = RunStore(str(tmp_path_factory.mktemp("store") / "runs.db"))
    run_id = store.add_run(result)
    api = ServingAPI(store, registry=NullMetricsRegistry())
    expected = checks.Expected(graph.edges, result.assignment,
                               graph.num_vertices, 6)
    yield api, run_id, expected, graph, result
    store.close()


def _walk(api, path, **params):
    items, cursor = [], None
    while True:
        query = {"limit": 7, **params} | ({"cursor": cursor} if cursor else {})
        status, doc = api.handle("GET", path, query)
        assert status == 200
        items.extend(doc["items"])
        cursor = doc["page"]["next_cursor"]
        if cursor is None:
            return items


def test_expected_matches_brute_force(served):
    _, _, expected, graph, result = served
    for v in range(graph.num_vertices):
        touching = (graph.edges[:, 0] == v) | (graph.edges[:, 1] == v)
        want = sorted(set(result.assignment[touching].tolist()))
        got = expected.parts[expected.indptr[v]:expected.indptr[v + 1]]
        assert got.tolist() == want


def test_lookup_check_passes_on_served_answer_and_fails_on_wrong(served):
    api, run_id, expected, graph, _ = served
    ids = graph.edges[:20, 0].copy()
    status, doc = api.handle("POST", f"/api/runs/{run_id}/lookup",
                             body=json.dumps({"vertices": ids.tolist()}).encode())
    assert status == 200
    assert checks.check_lookup(expected, ids, doc) == []
    wrong = dict(doc, partitions=doc["partitions"][:-1] + [99])
    assert checks.check_lookup(expected, ids, wrong)
    wrong = dict(doc, counts=[c + 1 for c in doc["counts"]])
    assert checks.check_lookup(expected, ids, wrong)
    assert checks.check_lookup(expected, ids[:-1], doc)


def test_boundary_walk_check(served):
    api, run_id, expected, _, _ = served
    items = _walk(api, f"/api/runs/{run_id}/boundary")
    assert len(items) == len(expected.boundary) > 10
    assert checks.check_boundary_walk(expected, items) == []
    assert checks.check_boundary_walk(expected, items[1:])
    assert checks.check_boundary_walk(expected, items + items[-1:])
    assert checks.check_boundary_walk(expected, items[::-1])
    bad = [dict(it) for it in items]
    bad[3]["partitions"] = bad[3]["partitions"][:-1]
    assert checks.check_boundary_walk(expected, bad)


def test_replica_walk_check(served):
    api, run_id, expected, _, _ = served
    for k in range(6):
        items = _walk(api, f"/api/runs/{run_id}/replicas", partition=k)
        assert checks.check_replica_walk(expected, k, items) == []
        assert checks.check_replica_walk(expected, k, items[:-1])
        assert checks.check_replica_walk(expected, (k + 1) % 6, items)


def test_repeat_and_backend_checks():
    graph = CSRGraph(rmat_edges(7, 4, seed=1))
    first = checks.fingerprint(DistributedNE(4, seed=1).partition(graph))
    again = checks.fingerprint(DistributedNE(4, seed=1).partition(graph))
    other = checks.fingerprint(DistributedNE(4, seed=2).partition(graph))
    assert checks.check_repeats([first, again]) == []
    assert checks.check_repeats([first, again, other])
    assert checks.check_same_assignment(first, again, "x") == []
    assert checks.check_same_assignment(first, other, "x")


def test_recorder_self_time_and_restore():
    class Box:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    recorder = Recorder()
    original = Box.__dict__["outer"]
    with patched(recorder, [(Box, "outer", "outer"), (Box, "inner", "inner")]):
        assert Box().outer() == 2
    assert Box.__dict__["outer"] is original
    (o0, o1, o_self, o_depth), = recorder.calls["outer"]
    (i0, i1, _, i_depth), = recorder.calls["inner"]
    assert (o_depth, i_depth) == (0, 1)
    assert o_self == pytest.approx((o1 - o0) - (i1 - i0))


@pytest.mark.parametrize("traced", [False, True])
def test_tiny_run_reports_every_declared_metric(tmp_path, monkeypatch,
                                                traced):
    monkeypatch.setitem(pipeline.WORKLOADS, "tiny",
                        pipeline.Spec(8, 4, "dne", 4))
    measured, ledger, details = pipeline.run_workload(
        "tiny", 5, 0.5, traced, str(tmp_path))
    assert ledger.failed == 0, ledger.failures
    assert ledger.attempted > 10
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    names = {m["name"] for m in declared["per_layer" if traced
                                         else "end_to_end"]}
    names.discard("peak_rss_mb")  # measured by run.py at exit
    assert names <= set(measured)
    if traced:
        assert details["chrome"]["traceEvents"]
    assert os.listdir(tmp_path) == []  # stores are removed


def test_layer_split_counts_every_second_once():
    graph = CSRGraph(rmat_edges(9, 4, seed=2))
    tracer, recorder = IntervalTracer(), Recorder()
    with patched(recorder, pipeline.DNE_TARGETS):
        t0 = time.perf_counter()
        result = DistributedNE(8, seed=2, tracer=tracer).partition(graph)
        took = time.perf_counter() - t0
    row = split_partition(tracer.intervals, recorder.take(), took,
                          result.extra)
    phase_and_nested = sum(row[k] for k in (
        "dne.selection_s", "dne.one_hop_s", "dne.two_hop_s",
        "dne.update_state_s", "dne.termination_s", "cluster.deliver_s",
        "hash2d.membership_s"))
    phase_spans = sum(b - a for name, a, b in tracer.intervals
                      if name.startswith("phase:"))
    assert phase_and_nested == pytest.approx(phase_spans, rel=1e-6)
    covered = (row["dne.load_s"] + phase_spans + row["cluster.barrier_s"]
               + row["cluster.all_gather_s"] + row["cluster.driver_other_s"])
    assert covered + row["trace.unattributed_share"] * took == \
        pytest.approx(took, rel=1e-6)
    assert 0 <= row["trace.unattributed_share"] < 0.5
    assert row["cluster.barriers"] == result.extra["cluster"]["barriers"]
    assert row["hash2d.membership_calls"] > 0
    assert min(row["dne.one_hop_s"], row["dne.two_hop_s"],
               row["cluster.driver_other_s"]) >= 0
