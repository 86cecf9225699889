"""Tests for the service broker: dedup, batching, errors, backpressure."""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import QueueFullError
from repro.service import Broker, ResultStore
from repro.service.protocol import cell_from_json

ENDPOINTS = 64


def make_cell(workload="reduce", tasks=16, family="fattree", params=None,
              **over):
    doc = {"workload": workload, "tasks": tasks,
           "topology": {"family": family, "params": params or {}}}
    doc.update(over)
    return cell_from_json(doc)


def run(coro):
    return asyncio.run(coro)


class TestDedup:
    def test_duplicate_submissions_run_one_simulation(self, tmp_path):
        async def main():
            broker = Broker(ResultStore(tmp_path), endpoints=ENDPOINTS)
            await broker.start()
            cell = make_cell()
            digests = broker.submit_many("a", [cell, cell, cell])
            assert len(set(digests)) == 1
            results = [await broker.result(d) for d in digests]
            await broker.close()
            return broker.counters, results

        counters, results = run(main())
        assert counters["simulated"] == 1
        assert counters["deduped"] == 2
        assert counters["enqueued"] == 1
        assert all(r["status"] == "done" for r in results)
        assert results[0] == results[1] == results[2]

    def test_second_round_is_a_store_hit(self, tmp_path):
        async def main():
            broker = Broker(ResultStore(tmp_path), endpoints=ENDPOINTS)
            await broker.start()
            cell = make_cell()
            first = await broker.result(broker.submit("a", cell))
            second = await broker.result(broker.submit("a", cell))
            await broker.close()
            return broker.counters, first, second

        counters, first, second = run(main())
        assert counters["simulated"] == 1
        assert counters["store_hits"] == 1
        assert second["record"] == first["record"]

    def test_distinct_fingerprints_both_simulate(self, tmp_path):
        async def main():
            broker = Broker(ResultStore(tmp_path), endpoints=ENDPOINTS)
            await broker.start()
            cells = [make_cell(), make_cell(placement="random")]
            digests = broker.submit_many("a", cells)
            assert len(set(digests)) == 2
            results = [await broker.result(d) for d in digests]
            await broker.close()
            return broker.counters, results

        counters, results = run(main())
        # same cell key, different placement: the key-collision
        # deferral must keep both and simulate each exactly once
        assert counters["simulated"] == 2
        assert all(r["status"] == "done" for r in results)
        assert results[0]["fingerprint"]["placement"] == "spread"
        assert results[1]["fingerprint"]["placement"] == "random"

    def test_workload_params_are_distinct_cells(self, tmp_path):
        cells = [make_cell(),
                 make_cell(workload_params={"message_size": 2e6})]

        async def main():
            broker = Broker(ResultStore(tmp_path), endpoints=ENDPOINTS)
            await broker.start()
            digests = broker.submit_many("a", cells)
            results = [await broker.result(d) for d in digests]
            await broker.close()
            return broker.counters, digests, results

        counters, digests, results = run(main())
        assert digests[0] != digests[1]
        assert counters["simulated"] == 2 and counters["deduped"] == 0
        # each answer is its own simulation (the message size differs)
        assert results[1]["record"]["makespan"] != \
            results[0]["record"]["makespan"]


class TestMatchesDirectSweep:
    def test_service_records_are_byte_identical_to_run_sweep(
            self, tmp_path):
        from repro.sweep.plan import SweepPlan
        from repro.sweep.runner import run_sweep

        cells = [make_cell(),
                 make_cell(family="nesttree", params={"t": 2, "u": 4}),
                 make_cell(workload="allreduce", tasks=None)]

        async def main():
            broker = Broker(ResultStore(tmp_path), endpoints=ENDPOINTS)
            await broker.start()
            results = [await broker.result(d)
                       for d in broker.submit_many("a", cells)]
            await broker.close()
            return results

        service = run(main())
        direct: dict[str, dict] = {}
        run_sweep(SweepPlan(endpoints=ENDPOINTS, fidelity="approx", seed=0,
                            cells=tuple(cells)), results_out=direct)
        for cell, doc in zip(cells, service):
            want = dict(direct[cell.key()])
            got = dict(doc["record"])
            # wall-clock legitimately differs; everything else must not
            want.pop("wall_seconds"), got.pop("wall_seconds")
            assert got == want


class TestSweepsShareTheStore:
    """A checkpointed sweep and the service answer each other's cells."""

    def plan(self):
        from repro.sweep.plan import SweepPlan

        cells = (make_cell(),
                 make_cell(family="nesttree", params={"t": 2, "u": 4}),
                 make_cell(workload="allreduce", tasks=None))
        return SweepPlan(endpoints=ENDPOINTS, fidelity="approx", seed=0,
                         cells=cells)

    def test_sweep_warms_the_service(self, tmp_path):
        from repro.sweep.runner import run_sweep

        plan = self.plan()
        direct: dict[str, dict] = {}
        run_sweep(plan, checkpoint=str(tmp_path), results_out=direct)
        cell = plan.cells[1]

        async def main():
            broker = Broker(ResultStore(tmp_path), **plan.meta())
            await broker.start()
            doc = await broker.result(broker.submit("a", cell))
            await broker.close()
            return broker.counters, doc

        counters, doc = run(main())
        assert counters["simulated"] == 0 and counters["store_hits"] == 1
        want, got = dict(direct[cell.key()]), dict(doc["record"])
        want.pop("wall_seconds"), got.pop("wall_seconds")
        assert got == want

    def test_service_warms_a_resumed_sweep(self, tmp_path, monkeypatch):
        import repro.sweep.runner as runner_mod

        plan = self.plan()

        async def main():
            broker = Broker(ResultStore(tmp_path), **plan.meta())
            await broker.start()
            for digest in broker.submit_many("a", plan.cells):
                await broker.result(digest)
            await broker.close()

        run(main())
        monkeypatch.setattr(
            runner_mod, "_run_cell",
            lambda *a, **k: pytest.fail("resumed sweep re-simulated"))
        records = runner_mod.run_sweep(plan, checkpoint=str(tmp_path),
                                       resume=True)
        assert [r.topology for r in records] == \
            [c.topology.label() for c in plan.cells]


class TestErrors:
    def test_failed_cell_resolves_typed_and_is_not_cached(self, tmp_path):
        async def main():
            # a serial cell timeout of ~0 fails every cell after it runs:
            # the cheapest deterministic per-cell failure we can inject
            broker = Broker(ResultStore(tmp_path), endpoints=ENDPOINTS,
                            cell_timeout=1e-12)
            await broker.start()
            doc = await broker.result(broker.submit("a", make_cell()))
            await broker.close()
            return broker.counters, doc, len(broker.store)

        counters, doc, stored = run(main())
        assert doc["status"] == "error"
        assert "error" in doc["error"]
        assert counters["errors"] == 1
        assert counters["simulated"] == 0
        assert stored == 0  # failures may be transient; never cached

    @staticmethod
    def _bad_then_good(tmp_path, bad_cell, **broker_kwargs):
        """Settle ``bad_cell`` and then a valid cell, each within 60 s:
        a failing cell must never stop the drain loop."""
        async def main():
            broker = Broker(ResultStore(tmp_path), endpoints=ENDPOINTS,
                            **broker_kwargs)
            await broker.start()
            try:
                bad = await asyncio.wait_for(
                    broker.result(broker.submit("a", bad_cell)), 60)
                good = await asyncio.wait_for(
                    broker.result(broker.submit("a", make_cell())), 60)
            finally:
                await broker.close()
            return broker.counters, bad, good

        return run(main())

    def test_bad_workload_params_settle_and_the_loop_lives(self, tmp_path):
        # bisection pairs tasks up, so 3 tasks is a bad cell; it used to
        # raise a bare ValueError that killed the drain task, leaving
        # every later cell pending forever
        counters, bad, good = self._bad_then_good(
            tmp_path, make_cell("bisection", 3, "torus"))
        assert bad["status"] == "error"
        assert bad["error"]["error"]["type"] == "WorkloadError"
        assert "even number of tasks" in bad["error"]["error"]["message"]
        assert good["status"] == "done"
        assert counters["errors"] == 1 and counters["simulated"] == 1

    def test_batch_crash_fails_only_its_waiters(self, tmp_path,
                                                monkeypatch):
        import repro.service.broker as broker_mod

        real = broker_mod.run_sweep
        calls = []

        def crash_once(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("injected batch crash")
            return real(*args, **kwargs)

        monkeypatch.setattr(broker_mod, "run_sweep", crash_once)
        counters, bad, good = self._bad_then_good(
            tmp_path, make_cell(tasks=8))
        assert bad["status"] == "error"
        assert bad["error"] == {"error": "RuntimeError",
                                "message": "injected batch crash"}
        assert good["status"] == "done"
        assert len(calls) == 2

    def test_store_write_crash_settles_the_waiter(self, tmp_path,
                                                  monkeypatch):
        real = ResultStore.put
        calls = []

        def fail_once(self, *args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise OSError("injected disk failure")
            return real(self, *args, **kwargs)

        monkeypatch.setattr(ResultStore, "put", fail_once)
        counters, bad, good = self._bad_then_good(
            tmp_path, make_cell(tasks=8))
        assert bad["status"] == "error"
        assert bad["error"] == {"error": "OSError",
                                "message": "injected disk failure"}
        assert good["status"] == "done"

    def test_unknown_digest_raises(self, tmp_path):
        async def main():
            broker = Broker(ResultStore(tmp_path), endpoints=ENDPOINTS)
            await broker.start()
            try:
                with pytest.raises(KeyError):
                    await broker.result("f" * 64)
            finally:
                await broker.close()

        run(main())

    def test_peek_states(self, tmp_path):
        async def main():
            broker = Broker(ResultStore(tmp_path), endpoints=ENDPOINTS)
            # broker deliberately not started: the queue holds still
            cell = make_cell()
            digest = broker.submit("a", cell)
            assert broker.peek(digest) == {"status": "pending",
                                           "digest": digest}
            assert broker.peek("f" * 64) is None
            await broker.close()

        run(main())


class TestBackpressure:
    def test_queue_full_is_typed_and_counted(self, tmp_path):
        async def main():
            broker = Broker(ResultStore(tmp_path), endpoints=ENDPOINTS,
                            capacity=1)
            # not started: submissions stay queued, deterministically
            broker.submit("a", make_cell())
            with pytest.raises(QueueFullError) as err:
                broker.submit("b", make_cell(tasks=8))
            assert err.value.capacity == 1
            assert err.value.depth == 1
            assert broker.counters["rejected"] == 1
            # duplicates of the queued cell still dedup under pressure
            digest = broker.submit("c", make_cell())
            assert broker.counters["deduped"] == 1
            assert broker.peek(digest)["status"] == "pending"
            await broker.close()

        run(main())


class TestStats:
    def test_stats_document_shape(self, tmp_path):
        async def main():
            broker = Broker(ResultStore(tmp_path), endpoints=ENDPOINTS,
                            weights={"gold": 3})
            await broker.start()
            await broker.result(broker.submit("gold", make_cell()))
            stats = broker.stats()
            await broker.close()
            return stats

        stats = run(main())
        assert stats["meta"] == {"endpoints": ENDPOINTS,
                                 "fidelity": "approx", "seed": 0}
        assert stats["counters"]["simulated"] == 1
        assert stats["queue"]["capacity"] == 256
        assert stats["queue"]["depth"] == 0
        assert stats["store"]["records"] == 1
