"""End-to-end tests of the HTTP front-end.

The acceptance test of the service subsystem: N concurrent HTTP clients
submitting overlapping cells must each receive results byte-identical to
direct ``run_sweep`` calls, with exactly one simulation per unique
fingerprint, and a saturated bounded queue must answer with a typed 429.
"""

from __future__ import annotations

import asyncio
import queue
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.service import Broker, ResultStore, ServiceClient, ServiceServer

ENDPOINTS = 64

CELLS = [
    {"workload": "reduce", "tasks": 16,
     "topology": {"family": "fattree", "params": {}}},
    {"workload": "reduce", "tasks": 16,
     "topology": {"family": "nesttree", "params": {"t": 2, "u": 4}}},
    {"workload": "allreduce", "tasks": None,
     "topology": {"family": "torus", "params": {}}},
]


class ServerThread:
    """A live service in a daemon thread with its own event loop."""

    def __init__(self, store_dir, **broker_kw):
        self.store_dir = store_dir
        self.broker_kw = dict({"endpoints": ENDPOINTS}, **broker_kw)
        self._ready: queue.Queue = queue.Queue()
        self._stop: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self.broker: Broker | None = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        async def main():
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            broker = Broker(ResultStore(self.store_dir), **self.broker_kw)
            self.broker = broker
            server = ServiceServer(broker)
            host, port = await server.start()
            self._ready.put((host, port))
            await self._stop.wait()
            await server.close()

        asyncio.run(main())

    def __enter__(self) -> ServiceClient:
        self._thread.start()
        host, port = self._ready.get(timeout=30)
        return ServiceClient(host, port)

    def __exit__(self, *exc):
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=30)


class TestConcurrentClients:
    def test_overlapping_clients_get_identical_results_one_sim_each(
            self, tmp_path):
        from repro.service.protocol import cell_from_json
        from repro.sweep.plan import SweepPlan
        from repro.sweep.runner import run_sweep

        n_clients = 6
        with ServerThread(tmp_path / "store") as client:
            def one_client(i: int):
                # every client submits the full overlapping set, rotated
                cells = CELLS[i % len(CELLS):] + CELLS[:i % len(CELLS)]
                status, doc = client.submit(cells, tenant=f"t{i % 3}",
                                            wait=True)
                assert status == 200
                return doc["results"]

            with ThreadPoolExecutor(n_clients) as pool:
                all_results = list(pool.map(one_client,
                                            range(n_clients)))
            stats = client.stats()

        # exactly one simulation per unique fingerprint, despite
        # 6 clients x 3 cells = 18 requests
        assert stats["counters"]["simulated"] == len(CELLS)
        assert stats["counters"]["requests"] == n_clients * len(CELLS)
        dedup_or_hit = stats["counters"]["deduped"] \
            + stats["counters"]["store_hits"]
        assert dedup_or_hit == n_clients * len(CELLS) - len(CELLS)
        assert stats["counters"]["errors"] == 0

        # every client saw the same result document per digest
        by_digest: dict[str, dict] = {}
        for results in all_results:
            for doc in results:
                assert doc["status"] == "done"
                prior = by_digest.setdefault(doc["digest"], doc)
                assert prior == doc

        # ... and those documents are byte-identical to a direct sweep
        cells = [cell_from_json(c) for c in CELLS]
        direct: dict[str, dict] = {}
        run_sweep(SweepPlan(endpoints=ENDPOINTS, fidelity="approx",
                            seed=0, cells=tuple(cells)),
                  results_out=direct)
        served = {doc["record"]["key"]: doc for doc in by_digest.values()}
        for cell in cells:
            want = dict(direct[cell.key()])
            got = dict(served[cell.key()]["record"])
            want.pop("wall_seconds"), got.pop("wall_seconds")
            assert got == want


class TestBackpressureOverHttp:
    def test_saturated_queue_returns_typed_429(self, tmp_path):
        with ServerThread(tmp_path / "store", capacity=1) as client:
            # one request, three novel cells: the submits happen in one
            # event-loop step, so the second necessarily overflows the
            # one-slot queue before the drain loop can run
            status, doc = client.submit(CELLS, wait=False)
            assert status == 429
            assert doc["error"] == "QueueFullError"
            assert doc["capacity"] == 1
            assert doc["depth"] == 1
            assert "retry" in doc["message"]
            stats = client.stats()
            assert stats["counters"]["rejected"] >= 1


class TestHttpSurface:
    def test_endpoints_and_error_mapping(self, tmp_path):
        with ServerThread(tmp_path / "store") as client:
            assert client.healthy()

            # protocol errors name the offending field, status 400
            status, doc = client.submit(
                [{"workload": "nope",
                  "topology": {"family": "fattree", "params": {}}}])
            assert status == 400
            assert doc["error"] == "ProtocolError"
            assert "workload" in doc["message"]

            status, doc = client.submit(
                [{"workload": "reduce", "tasks": 16,
                  "topology": {"family": "nesttree",
                               "params": {"t": 3, "u": 4}}}])
            assert status == 400  # invalid hybrid (odd side at u>1)

            # async round trip: submit without wait, poll the digest
            status, doc = client.submit(CELLS[:1], wait=False)
            assert status == 200
            digest = doc["digests"][0]
            assert doc["statuses"][0]["status"] in ("pending", "done")
            while True:
                status, res = client.result(digest)
                if status == 200:
                    break
                assert status == 202  # pending, not an error
            assert res["status"] == "done"
            assert res["record"]["workload"] == "reduce"

            status, doc = client.result("0" * 64)
            assert status == 404

            status, doc = client._request("GET", "/v1/nope")
            assert status == 404
            status, doc = client._request("POST", "/v1/stats")
            assert status == 405


class TestHealthz:
    def test_reports_the_drain_loop_and_flips_when_it_ends(self, tmp_path):
        server = ServerThread(tmp_path / "store")
        with server as client:
            status, doc = client._request("GET", "/v1/healthz")
            assert (status, doc) == (200, {"ok": True,
                                           "drain_loop": "running"})
            task = server.broker._drain_task
            server._loop.call_soon_threadsafe(task.cancel)
            deadline = time.monotonic() + 10
            while client.healthy() and time.monotonic() < deadline:
                time.sleep(0.01)
            status, doc = client._request("GET", "/v1/healthz")
            assert (status, doc) == (200, {"ok": False,
                                           "drain_loop": "stopped"})
            assert not client.healthy()
