"""Self-tests of the benchmark's own arithmetic and output.

    python3 -m pytest perfbench -q        # from the repository root

Covers the percentile rule, self-time subtraction with nested spans, the
open-loop generator's due-time latency and lateness accounting, the
host-speed scaling, the per-cell check, the result-line schema, the
environment pin, and a smoke run of all three workloads.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import cells  # noqa: E402
import hostspeed  # noqa: E402
import loadgen  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from repro.service.http import ServiceClient  # noqa: E402
from tracer import Tracer  # noqa: E402


# ---------------------------------------------------------- percentile rule
@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
    (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_highest_percentile_with_ten_samples_beyond(n, expected):
    assert stats.supported_percentile(n) == expected
    if expected is not None:
        assert stats.samples_beyond(n, expected) >= stats.MIN_BEYOND


def test_nearest_rank_percentile():
    values = list(range(1, 1001))[::-1]
    assert stats.percentile(values, 50) == 500
    assert stats.percentile(values, 99) == 990
    assert stats.percentile([7.0], 99) == 7.0
    # the ten samples beyond p99 are exactly 991..1000
    assert sum(v > stats.percentile(values, 99) for v in values) == 10


# ---------------------------------------------------------------- self time
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    t = Tracer(clock=clock)

    def at(x):
        clock.now = x

    a = t.begin("sweep.run")                 # 0 .. 10
    at(1)
    b = t.begin("engine.simulate")           # 1 .. 5
    at(2)
    c = t.begin("routing.route")             # 2 .. 4
    at(4)
    t.end(c)
    at(5)
    t.end(b)
    at(6)
    d = t.begin("topology.build")            # 6 .. 7
    at(7)
    t.end(d)
    at(10)
    t.end(a)
    assert t.total("sweep.run") == 10
    assert t.self_time("sweep.run") == 10 - 4 - 1
    assert t.total("engine.simulate") == 4
    assert t.self_time("engine.simulate") == 4 - 2
    assert t.self_time("routing.route") == 2
    split = t.layer_split()
    assert sum(row["self_s"] for row in split.values()) == 10
    assert split["engine"]["self_s"] == 2 and split["sweep"]["self_s"] == 5


def test_same_name_reentry_is_counted_once_and_rename_on_close():
    clock = FakeClock()
    t = Tracer(clock=clock)
    outer = t.begin("topology.build")
    inner = t.begin("topology.build")
    assert inner is None
    clock.now = 3
    t.end(inner)
    t.end(outer)
    assert t.calls("topology.build") == 1 and t.total("topology.build") == 3
    f = t.begin("engine.alloc")
    clock.now = 4
    t.end(f, "engine.alloc_warm")
    assert t.calls("engine.alloc_warm") == 1 and t.calls("engine.alloc") == 0


def test_spans_of_another_thread_are_not_children():
    clock = FakeClock()
    t = Tracer(clock=clock)
    parent = t.begin("service.submit")

    def worker():
        f = t.begin("sweep.run")
        clock.now = 2
        t.end(f)
    th = threading.Thread(target=worker)
    th.start()
    th.join(timeout=10)
    assert not th.is_alive()
    clock.now = 3
    t.end(parent)
    assert t.self_time("service.submit") == 3
    assert t.self_time("sweep.run") == 2


def test_wrap_and_uninstall_restore_the_original():
    class Box:
        def work(self, x):
            return x + 1
    original = Box.work
    t = Tracer()
    t.wrap(Box, "work", "engine.work", after=lambda *_: t.count("n"))
    assert Box().work(1) == 2 and t.calls("engine.work") == 1
    assert t.counters["n"] == 1
    t.uninstall()
    assert Box.work is original


def test_dump_and_merge_round_trip():
    t = Tracer()
    f = t.begin("obs.account")
    t.end(f)
    t.count("engine.events", 5)
    u = Tracer()
    u.merge(json.loads(json.dumps(t.dump())))
    u.merge(t.dump())
    assert u.calls("obs.account") == 2 and u.counters["engine.events"] == 10


# ------------------------------------------------------ open-loop accounting
def test_request_log_latency_is_from_due_time():
    log = loadgen.RequestLog()
    for due, sent, done, ok, hit in [(0.0, 0.0, 0.5, True, True),
                                     (1.0, 1.5, 3.5, True, False),
                                     (2.0, 2.0, None, False, False),
                                     (3.0, 3.25, 3.5, False, False)]:
        i = log.add(due)
        log.sent[i], log.done[i], log.ok[i], log.hit[i] = sent, done, ok, hit
    lat = log.latencies_ms()
    assert lat[:2] == [500.0, 2500.0]          # 1.5 s late send included
    assert lat[2] == float("inf") and lat[3] == float("inf")
    assert log.lateness_ms() == [0.0, 500.0, 0.0, 250.0]
    assert log.within(2.0) == 1               # the 2.5 s one misses
    assert log.hit_round_trips_ms() == [500.0]


def test_arrivals_are_seeded_and_cover_the_window():
    a = loadgen.poisson_arrivals(np.random.default_rng(3), 50.0, 2.0, 10)
    b = loadgen.poisson_arrivals(np.random.default_rng(3), 50.0, 2.0, 10)
    assert np.array_equal(a, b) and np.all(np.diff(a) >= 0)
    assert a[0] >= 0.0 and a[-1] < 2.0 and a.shape[0] == 100
    c = loadgen.poisson_arrivals(np.random.default_rng(3), 1.0, 1.0, 25)
    assert c.shape[0] == 25 and c[-1] < 1.0    # at least min_count
    ranks = loadgen.zipf_ranks(np.random.default_rng(1), 5000, 10, 2.0)
    counts = np.bincount(ranks, minlength=10)
    assert ranks.min() >= 0 and ranks.max() < 10
    assert counts[0] > counts[1] > counts[3]


def test_open_loop_times_queueing_from_due_time():
    """Three requests due at once through one connection to a server that
    takes 0.1 s each: the k-th waits k*0.1 s for the connection, and both
    its latency and its lateness show it."""
    async def scenario():
        async def handle(reader, writer):
            await reader.readline()
            length = 0
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b""):
                    break
                name, _, value = line.decode().partition(":")
                if name.lower() == "content-length":
                    length = int(value)
            await reader.readexactly(length)
            await asyncio.sleep(0.1)
            body = json.dumps({"statuses": [{"digest": "d",
                                             "status": "done"}]}).encode()
            writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: "
                         + str(len(body)).encode() + b"\r\n\r\n" + body)
            await writer.drain()
            writer.close()
        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        try:
            return await loadgen.run_open_loop(
                ServiceClient("127.0.0.1", port, 5.0), np.zeros(3),
                [{}, {}, {}], connections=1, poll_s=0.01, grace_s=5.0)
        finally:
            server.close()
            await server.wait_closed()
    log = asyncio.run(scenario())
    lat = sorted(log.latencies_ms())
    late = sorted(log.lateness_ms())
    for k in range(3):
        assert lat[k] == pytest.approx(100.0 * (k + 1), abs=60.0)
        assert late[k] == pytest.approx(100.0 * k, abs=60.0)
    assert all(log.ok) and all(log.hit)


# -------------------------------------------------------------- cell check
def test_check_cell_flags_each_kind_of_wrong_output():
    ref = {"c": {"makespan": 1.0, "events": 100, "reallocations": 10,
                 "bound": 0.5}}
    good = {"completed": True, "makespan": 1.0, "events": 100,
            "reallocations": 10}
    assert cells.check_cell(good, ref, "c") == []
    assert cells.check_cell(dict(good, completed=False), ref, "c")
    assert cells.check_cell(dict(good, makespan=1.001), ref, "c")
    assert cells.check_cell(dict(good, events=120), ref, "c")
    assert cells.check_cell(good, ref, "other") == \
        ["cell missing from the reference"]
    assert cells.check_cell(good, None, "c", 1.2)     # below the bound
    assert cells.check_cell(good, None, "c", 1.0) == []
    assert cells.check_cell(good, {"c": dict(ref["c"], bound=1.2)}, "c")


def test_reference_covers_every_named_cell():
    ref = cells.load_reference()
    tail = ref["event-tail"]["cells"]
    assert sorted(map(int, tail)) == list(range(workloads.TAIL_PLAN_SEEDS))
    assert all(len(by_key) == len(workloads.TAIL_CELLS)
               for by_key in tail.values())
    assert len(ref["fig4-cold-sweep"]["cells"]) == 26
    assert len(ref["serve-explore"]["cells"]) == 6 * 26 * 2
    # every left-out ECMP cell names a real catalogue cell
    assert all(cells.cell_key(w, t, "approx", "ecmp")
               in ref["serve-explore"]["cells"]
               for w, t in workloads.SERVE_SLOW_ECMP)
    for by_key in (ref["fig4-cold-sweep"]["cells"],
                   ref["serve-explore"]["cells"], *tail.values()):
        for key, entry in by_key.items():
            assert entry["makespan"] >= entry["bound"] * (
                1 - cells.TOLERANCE["bound_rel"]), key


def test_event_tail_fails_a_seed_without_reference():
    tail = workloads.EventTail(workloads.FULL, 2 * workloads.TAIL_PLAN_SEEDS
                               + 5, {"cells": {"4": {}}})
    assert tail.seed == 5 and tail.reference == {}
    assert cells.check_cell({"completed": True, "makespan": 1.0,
                             "events": 1, "reallocations": 0},
                            tail.reference, "any") == \
        ["cell missing from the reference"]


# -------------------------------------------------------------- host speed
def test_clock_leaves_probes_out():
    before_wall, before = time.perf_counter(), hostspeed.clock()
    spent = sum(hostspeed.probe() for _ in range(5))
    wall = time.perf_counter() - before_wall
    assert spent > 0
    # the probe-free clock advanced by the wall time less the probes
    assert hostspeed.clock() - before == pytest.approx(wall - spent,
                                                       abs=2e-3)


def test_meter_scales_by_the_median_probe():
    meter = hostspeed.Meter()
    with pytest.raises(ValueError):
        meter.factor()
    ref = hostspeed.REFERENCE_S
    meter.samples = [9 * ref, 9 * ref, ref, ref, 2 * ref]
    assert meter.probe_s() == 2 * ref
    assert meter.factor() == pytest.approx(0.5)
    # set-up probes left out
    assert meter.factor(2) == pytest.approx(1.0)
    # a scale of one half halves every scaled time
    metrics, raw = run.end_to_end(
        "fig4-cold-sweep", [0.4, 0.2, 0.3],
        workloads.Measured(records=[{"host_s": 2.0, "problems": []},
                                    {"host_s": 4.0, "problems": []}]),
        30.0, meter.factor())
    assert raw["cell_s"] == 3.0 and metrics["cell_s"]["value"] == 1.5
    assert metrics["setup_s"]["value"] == pytest.approx(0.15)
    assert metrics["p50_ms"]["value"] == pytest.approx(1500.0)
    assert raw["goodput_rps"] == pytest.approx(2 / 6.0)
    assert metrics["goodput_rps"]["value"] == pytest.approx(4 / 6.0)
    assert metrics["slo_ok_frac"]["value"] == 1.0


def test_meter_probes_on_a_timer_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    meter = hostspeed.Meter()
    meter.start()
    deadline = time.perf_counter() + 5 * hostspeed.PERIOD_S
    while time.perf_counter() < deadline:
        sum(range(1000))
    meter.stop()
    assert 4 <= len(meter.samples) <= 7
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_probe_keeps_the_collector_state():
    gc.disable()
    try:
        hostspeed.probe()
        assert not gc.isenabled()
    finally:
        gc.enable()
    hostspeed.probe()
    assert gc.isenabled()


# ------------------------------------------------------------ result line
def test_result_line_schema():
    metrics = {n: {"value": 1.5, "unit": u} for n, u, _ in run.END_TO_END}
    good = {"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}
    run.validate_result(good, trace=False)
    with pytest.raises(ValueError):
        run.validate_result(good, trace=True)
    for bad in (dict(good, attempted=0), dict(good, extra=1),
                dict(good, metrics=dict(metrics, p50_ms={
                    "value": float("nan"), "unit": "ms"}))):
        with pytest.raises(ValueError):
            run.validate_result(bad, trace=False)


def _bench(*args, env=None):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, timeout=170,
                          cwd=HERE.parent, env=env)


def test_refuses_a_pinned_environment():
    env = dict(os.environ, REPRO_EVENT_BATCH="0")
    proc = _bench("--workload", "event-tail", "--seed", "0", "--seconds",
                  "1", "--trace", "0", env=env)
    assert proc.returncode == 2 and "REPRO_EVENT_BATCH" in proc.stderr
    assert proc.stdout == ""


def test_smoke_run_of_every_workload():
    proc = _bench("--smoke")
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert proc.stdout.strip().splitlines()[-1] == "smoke ok"
