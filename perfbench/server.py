"""The serving side of the benchmark: a server child process and the
closed-loop HTTP clients that drive it.

The server runs in its own process (started with ``spawn``) so the
clients' request and JSON work never shares its interpreter lock.  In
a traced run the child wraps the store, lookup and API calls it serves
and hands their totals back when it is stopped.
"""

from __future__ import annotations

import asyncio
import http.client
import itertools
import json
import multiprocessing as mp
import time

from repro.serving.api import BackgroundServer, ServingAPI
from repro.serving.lookup import LookupService
from repro.serving.store import RunStore

from perfbench.layers import Recorder, patched

START_TIMEOUT_S = 60
STOP_TIMEOUT_S = 30
PAGE_LIMIT = 200  # the API's largest page


def _route(api, method, path, query=None, body=None):
    tail = path.rstrip("/").rsplit("/", 1)[-1]
    return "api.handle:" + (tail if tail in ("lookup", "boundary",
                                             "replicas") else "other")


def serve_child(store_path: str, conn, traced: bool) -> None:
    """Child entry point: serve ``store_path`` until told to stop.

    Commands on ``conn``: ``"reset"`` clears the wrapper records,
    ``"stop"`` stops the server and replies with each wrapped call's
    ``(seconds, self seconds)`` by name, plus the run-cache counters.
    """
    store = RunStore(store_path)
    api = ServingAPI(store)
    recorder = Recorder()
    targets = [(RunStore, "boundary_page", "store.boundary_page"),
               (RunStore, "replica_page", "store.replica_page"),
               (LookupService, "bulk_vertex_lookup", "lookup.bulk"),
               (ServingAPI, "handle", _route)] if traced else []
    try:
        with patched(recorder, targets):
            server = BackgroundServer(api)
            conn.send(server.port)
            while True:
                msg = conn.recv()
                if msg == "reset":
                    recorder.take()
                    conn.send(True)
                elif msg == "stop":
                    server.stop()
                    calls = {name: [(r[1] - r[0], r[2]) for r in recs]
                             for name, recs in recorder.take().items()}
                    conn.send({"calls": calls,
                               "run_cache": api.lookup.run_cache_info()})
                    return
    finally:
        store.close()
        conn.close()


class ServerProcess:
    """Parent-side handle of one server child."""

    def __init__(self, store_path: str, traced: bool):
        ctx = mp.get_context("spawn")
        self._conn, child = ctx.Pipe()
        self._proc = ctx.Process(target=serve_child,
                                 args=(store_path, child, traced),
                                 daemon=True)
        self._proc.start()
        child.close()
        if not self._conn.poll(START_TIMEOUT_S):
            self.kill()
            raise RuntimeError("server child did not start")
        self.port = self._conn.recv()

    def reset(self) -> None:
        self._conn.send("reset")
        self._conn.recv()

    def stop(self) -> dict | None:
        """Stop the server and wait for the child; returns its wrapper
        totals (``None`` if it was already stopped)."""
        if self._conn.closed:
            return None
        try:
            self._conn.send("stop")
            if not self._conn.poll(STOP_TIMEOUT_S):
                raise RuntimeError("server child did not stop")
            totals = self._conn.recv()
            self._proc.join(STOP_TIMEOUT_S)
            return totals
        finally:
            self.kill()

    def kill(self) -> None:
        """End the child now if it has not ended; idempotent."""
        if self._proc.is_alive():
            self._proc.kill()
            self._proc.join()
        self._conn.close()


class Client:
    """One keep-alive connection; records each request's latency."""

    def __init__(self, port: int):
        self._conn = http.client.HTTPConnection("127.0.0.1", port,
                                                timeout=30)

    def request(self, method: str, path: str, body=None):
        """Returns ``(seconds, status, payload bytes)``."""
        headers = {"Content-Type": "application/json"} if body else {}
        t0 = time.perf_counter()
        self._conn.request(method, path, body=body, headers=headers)
        resp = self._conn.getresponse()
        data = resp.read()
        return time.perf_counter() - t0, resp.status, data

    def close(self) -> None:
        self._conn.close()


def lookup_loop(port: int, run_id: int, bodies: list, seconds: float,
                clients: int = 2) -> tuple[list, float, float]:
    """Closed loop: ``clients`` keep-alive connections driven by one
    asyncio loop in this process, each sending its next bulk lookup as
    soon as the last one is answered.

    Returns ``(records, start, end)``, the times on the
    ``perf_counter`` clock; a record is ``(body index, seconds, status,
    payload)``, with ``seconds`` ``None`` and ``status`` the error text
    when the request raised.
    """
    return asyncio.run(_lookup_loop(port, run_id, bodies, seconds,
                                    clients))


async def _lookup_loop(port, run_id, bodies, seconds, clients):
    head = (f"POST /api/runs/{run_id}/lookup HTTP/1.1\r\n"
            "Host: 127.0.0.1\r\nContent-Type: application/json\r\n")
    requests = [(head + f"Content-Length: {len(b)}\r\n\r\n").encode() + b
                for b in bodies]
    counter = itertools.count()
    records: list = []
    deadline = time.perf_counter() + seconds

    async def run_client():
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            while time.perf_counter() < deadline:
                i = next(counter) % len(requests)
                t0 = time.perf_counter()
                try:
                    writer.write(requests[i])
                    status, data = await _read_response(reader)
                    took = time.perf_counter() - t0
                except (OSError, asyncio.IncompleteReadError,
                        ValueError) as exc:
                    records.append((i, None, repr(exc), None))
                    writer.close()
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", port)
                    continue
                records.append((i, took, status, data))
        finally:
            writer.close()
            await writer.wait_closed()

    start = time.perf_counter()
    await asyncio.gather(*(run_client() for _ in range(clients)))
    return records, start, time.perf_counter()


async def _read_response(reader) -> tuple[int, bytes]:
    status = int((await reader.readline()).split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b""):
            break
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    return status, await reader.readexactly(length)


def walk(client: Client, path: str) -> tuple[list, list, list]:
    """Follow keyset cursors from the first page to the last.

    Returns ``(items, page seconds, failures)``.
    """
    items, seconds, failures = [], [], []
    cursor = None
    while True:
        sep = "&" if "?" in path else "?"
        url = f"{path}{sep}limit={PAGE_LIMIT}"
        if cursor is not None:
            url += f"&cursor={cursor}"
        took, status, data = client.request("GET", url)
        seconds.append(took)
        if status != 200:
            failures.append(f"GET {url} -> {status}")
            return items, seconds, failures
        doc = json.loads(data)
        items.extend(doc["items"])
        cursor = doc["page"]["next_cursor"]
        if cursor is None:
            return items, seconds, failures
