"""Open-loop load generator for ``repro serve``.

Requests arrive on a seeded Poisson schedule at one fixed offered rate,
whether or not earlier requests have been answered, so a stall in the
server shows up as queueing instead of as a lower send rate.  Each
request submits one cell without waiting (``POST /v1/submit``) through
the service's own ``ServiceClient``.  A store hit is answered by that
round trip; a pending cell is polled (``GET /v1/result/<digest>``) by one
shared poller per digest until it settles.  At most ``connections`` HTTP
connections are open at once.

Latency is timed from each request's *due* time, so time a request spent
waiting for a free connection counts against it, and the generator's own
lateness (send time minus due time) is reported separately.
"""

from __future__ import annotations

import asyncio
import http.client
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np


def poisson_arrivals(rng: np.random.Generator, rate: float, seconds: float,
                     min_count: int) -> np.ndarray:
    """Due times (s) of a Poisson process at ``rate`` over ``[0, seconds)``,
    conditioned on its expected count ``rate * seconds`` (at least
    ``min_count``): that many sorted uniform times.  Fixing the count
    keeps the offered load of every run the same."""
    n = max(min_count, round(rate * seconds))
    return np.sort(rng.uniform(0.0, seconds, size=n))


def zipf_ranks(rng: np.random.Generator, n: int, num_items: int,
               exponent: float) -> np.ndarray:
    """``n`` popularity ranks in ``[0, num_items)``, P(rank k) ∝ (k+1)^-s."""
    weights = np.arange(1, num_items + 1, dtype=np.float64) ** -exponent
    return rng.choice(num_items, size=n, p=weights / weights.sum())


@dataclass
class RequestLog:
    """Due, send and answer times of every request of one open-loop run.

    Times are seconds on one clock.  ``done`` is ``None`` for a request
    that never got an answer; ``ok`` is false for an error, a refusal
    (429) or no answer.
    """

    due: list[float] = field(default_factory=list)
    sent: list[float | None] = field(default_factory=list)
    done: list[float | None] = field(default_factory=list)
    ok: list[bool] = field(default_factory=list)
    hit: list[bool] = field(default_factory=list)
    digest: list[str | None] = field(default_factory=list)

    def add(self, due: float) -> int:
        self.due.append(due)
        self.sent.append(None)
        self.done.append(None)
        self.ok.append(False)
        self.hit.append(False)
        self.digest.append(None)
        return len(self.due) - 1

    def __len__(self) -> int:
        return len(self.due)

    def latencies_ms(self) -> list[float]:
        """Due-to-answer latency of every answered request (ms); failed
        and unanswered requests count as infinitely late."""
        return [(d - u) * 1e3 if (d is not None and k) else float("inf")
                for u, d, k in zip(self.due, self.done, self.ok)]

    def lateness_ms(self) -> list[float]:
        """How late the generator sent each request (ms)."""
        return [(s - u) * 1e3 for u, s in zip(self.due, self.sent)
                if s is not None]

    def within(self, limit_s: float) -> int:
        """Requests answered successfully within ``limit_s`` of due."""
        return sum(1 for u, d, k in zip(self.due, self.done, self.ok)
                   if k and d is not None and d - u <= limit_s)

    def hit_round_trips_ms(self) -> list[float]:
        """Round trips of requests answered straight from the store."""
        return [(d - s) * 1e3 for s, d, h in zip(self.sent, self.done,
                                                 self.hit)
                if h and d is not None and s is not None]


#: What a failed exchange with the service raises.
EXCHANGE_ERRORS = (OSError, ValueError, http.client.HTTPException)


async def run_open_loop(client, due: np.ndarray, cells: list[dict], *,
                        connections: int, poll_s: float,
                        grace_s: float) -> RequestLog:
    """Send ``cells[i]`` at ``due[i]`` seconds from now through ``client``
    (a ``repro.service.http.ServiceClient``); wait at most ``grace_s``
    past the last due time for answers.

    Each exchange runs in one of ``connections`` worker threads, so at
    most that many connections are open; a request is *sent* when a
    worker takes it up.
    """
    loop = asyncio.get_running_loop()
    pool = ThreadPoolExecutor(max_workers=connections)
    log = RequestLog()
    pollers: dict[str, asyncio.Task] = {}
    t0 = time.monotonic() + 0.05

    def submit(i: int, cell: dict) -> tuple[int, dict]:
        log.sent[i] = time.monotonic() - t0
        return client.submit([cell], tenant="bench")

    async def settle(digest: str) -> bool:
        while True:
            await asyncio.sleep(poll_s)
            try:
                status, doc = await loop.run_in_executor(
                    pool, client.result, digest)
            except EXCHANGE_ERRORS:
                return False
            if status != 202:
                return status == 200 and doc.get("status") == "done"

    async def request(i: int, cell: dict) -> None:
        await asyncio.sleep(max(0.0, t0 + log.due[i] - time.monotonic()))
        try:
            status, doc = await loop.run_in_executor(pool, submit, i, cell)
        except EXCHANGE_ERRORS:
            return
        if status != 200:
            return  # 429 refusal or a typed error: failed
        entry = doc["statuses"][0]
        digest = log.digest[i] = entry["digest"]
        if entry["status"] == "done":
            log.hit[i] = True
            ok = True
        elif entry["status"] == "pending":
            if digest not in pollers:
                pollers[digest] = asyncio.ensure_future(settle(digest))
            ok = await asyncio.shield(pollers[digest])
        else:
            ok = False
        log.ok[i] = ok
        log.done[i] = time.monotonic() - t0

    for t in due.tolist():
        log.add(t)
    tasks = [asyncio.ensure_future(request(i, c)) for i, c in enumerate(cells)]
    try:
        _, pending = await asyncio.wait(tasks,
                                        timeout=float(due[-1]) + grace_s)
        for task in [*pending, *pollers.values()]:
            task.cancel()
        await asyncio.gather(*tasks, *pollers.values(),
                             return_exceptions=True)
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
    for task in tasks:
        if not task.cancelled() and task.exception() is not None:
            raise task.exception()
    return log
