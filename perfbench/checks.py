"""Correctness checks the benchmark applies to the program's outputs.

Each check returns a list of failure messages (empty when the output is
right).  Expected answers are computed here, with NumPy, from the
partition assignment alone — never through the serving code under test.
"""

from __future__ import annotations

import hashlib

import numpy as np


def covered_matrix(edges: np.ndarray, assignment: np.ndarray,
                   num_vertices: int, num_partitions: int) -> np.ndarray:
    """``mat[v, k]`` is True iff partition ``k`` holds an edge of ``v``
    (Equation 1's covered sets as a dense boolean matrix)."""
    mat = np.zeros((num_vertices, num_partitions), dtype=bool)
    mat[edges[:, 0], assignment] = True
    mat[edges[:, 1], assignment] = True
    return mat


class Expected:
    """Replica sets of one partition, for checking served answers."""

    def __init__(self, edges, assignment, num_vertices, num_partitions):
        self.matrix = covered_matrix(edges, assignment, num_vertices,
                                     num_partitions)
        counts = self.matrix.sum(axis=1)
        self.indptr = np.concatenate([[0], np.cumsum(counts)])
        self.parts = np.nonzero(self.matrix)[1]
        self.boundary = np.flatnonzero(counts >= 2)
        self.replica_rows = int(counts.sum())

    def replicas_of(self, vertices: np.ndarray) -> tuple:
        starts = self.indptr[vertices]
        counts = self.indptr[vertices + 1] - starts
        ends = np.cumsum(counts)
        slots = (np.arange(ends[-1] if len(ends) else 0)
                 - np.repeat(ends - counts - starts, counts))
        return counts, self.parts[slots]


def check_lookup(expected: Expected, vertices: np.ndarray,
                 doc: dict) -> list[str]:
    """One bulk-lookup response against the replica sets."""
    counts, flat = expected.replicas_of(vertices)
    if doc.get("vertices") != len(vertices):
        return [f"lookup answered {doc.get('vertices')} ids, "
                f"asked {len(vertices)}"]
    if doc.get("counts") != counts.tolist():
        return ["lookup replica counts differ from the assignment's"]
    if doc.get("partitions") != flat.tolist():
        return ["lookup partitions differ from the assignment's"]
    return []


def check_boundary_walk(expected: Expected, items: list) -> list[str]:
    """A full ``/boundary`` walk: exactly the vertices with two or more
    replicas, ascending, each once, each with its replica set."""
    got = np.asarray([it["vertex"] for it in items], dtype=np.int64)
    if len(got) != len(expected.boundary) or \
            not np.array_equal(got, expected.boundary):
        return [f"boundary walk returned {len(got)} vertices, expected "
                f"{len(expected.boundary)} (or wrong order/duplicates)"]
    for it in items:
        v = it["vertex"]
        want = expected.parts[expected.indptr[v]:expected.indptr[v + 1]]
        if it["partitions"] != want.tolist() or \
                it["replicas"] != len(want):
            return [f"boundary vertex {v} has wrong replica set"]
    return []


def check_replica_walk(expected: Expected, partition: int,
                       vertices: list) -> list[str]:
    """A full ``/replicas?partition=k`` walk: exactly ``k``'s covered
    vertices, ascending, each once."""
    want = np.flatnonzero(expected.matrix[:, partition])
    if vertices != want.tolist():
        return [f"replica walk of partition {partition} returned "
                f"{len(vertices)} vertices, expected {len(want)}"]
    return []


def fingerprint(result) -> dict:
    """What must be identical across repetitions of one partitioning."""
    extra = result.extra
    return {
        "sha256": hashlib.sha256(
            np.ascontiguousarray(result.assignment).tobytes()).hexdigest(),
        "replication_factor": result.replication_factor(),
        "edge_balance": result.edge_balance(),
        "iterations": result.iterations,
        "cluster": extra.get("cluster"),
        "ops": (extra.get("ops_one_hop"), extra.get("ops_two_hop")),
    }


def check_repeats(prints: list[dict]) -> list[str]:
    """Every repetition's fingerprint equals the first one's."""
    failures = []
    for i, fp in enumerate(prints[1:], start=2):
        for key, value in fp.items():
            if value != prints[0][key]:
                failures.append(f"repetition {i} changed {key}: "
                                f"{prints[0][key]!r} -> {value!r}")
    return failures


def check_same_assignment(reference: dict, other: dict,
                          what: str) -> list[str]:
    if reference["sha256"] != other["sha256"]:
        return [f"{what}: assignment SHA-256 differs from the "
                "simulated backend's"]
    return []
