"""Unstructured workloads: App, Mgnt, HR and Bisection.

Paper Section 4.1 models four applications without spatial structure:

* **UnstructuredApp** — fixed-length messages between uniformly random
  pairs: "an unstructured application in which data has been partitioned
  evenly across the tasks".  All messages are independent, so the whole
  system injects at once (heavy).
* **UnstructuredMgnt** — "follows the traffic size distribution produced by
  the management software in common large-scale systems" (Kandula et al.,
  IMC'09): overwhelmingly mice flows with a heavy elephant tail.  Each
  task's messages are sequential, limiting concurrency (light).
* **UnstructuredHR** — "a subset of the tasks is more likely to be targeted
  as destinations (Hot tasks)" (heavy).
* **Bisection** — "tasks perform pair-wise communications swapping pairs
  randomly every round": a fresh random perfect matching per round, both
  directions at once — the classic bisection-bandwidth stressor (heavy).
"""

from __future__ import annotations

import numpy as np

from repro.engine.flows import FlowBuilder, FlowSet
from repro.errors import WorkloadError
from repro.units import KiB, MiB
from repro.workloads.base import (HEAVY, LIGHT, Workload, random_destinations,
                                  random_matching)

#: Fixed message payload for App/HR/Bisection.
DEFAULT_MESSAGE = 256 * KiB
DEFAULT_BISECTION_MESSAGE = 1 * MiB


class UnstructuredApp(Workload):
    """Independent fixed-size messages between uniformly random pairs."""

    name = "unstructuredapp"
    classification = HEAVY

    def __init__(self, num_tasks: int, *, messages_per_task: int = 8,
                 message_size: float = DEFAULT_MESSAGE, seed: int = 0) -> None:
        super().__init__(num_tasks, seed=seed)
        if messages_per_task < 1:
            raise WorkloadError("messages_per_task must be >= 1")
        self.messages_per_task = messages_per_task
        self.message_size = message_size

    def build(self) -> FlowSet:
        rng = self.rng()
        b = FlowBuilder(self.num_tasks)
        srcs = np.repeat(np.arange(self.num_tasks), self.messages_per_task)
        dsts = random_destinations(rng, self.num_tasks, srcs)
        for s, d in zip(srcs.tolist(), dsts.tolist()):
            b.add_flow(s, d, self.message_size)
        return b.build()


class UnstructuredMgnt(Workload):
    """Datacentre management traffic: mice-dominated sizes, per-task chains.

    Sizes follow a three-component mixture calibrated to the shape reported
    by Kandula et al. (IMC'09): ~80% of flows are mice (2 KiB - 32 KiB),
    ~15% mid-size (32 KiB - 1 MiB) and ~5% elephants (1 MiB - 16 MiB), each
    log-uniform within its band.  Each task issues its messages one after
    another, so only one flow per task is in flight (light).
    """

    name = "unstructuredmgnt"
    classification = LIGHT

    #: (probability, low bits, high bits) of each mixture band.
    SIZE_BANDS = (
        (0.80, 2 * KiB, 32 * KiB),
        (0.15, 32 * KiB, 1 * MiB),
        (0.05, 1 * MiB, 16 * MiB),
    )

    def __init__(self, num_tasks: int, *, messages_per_task: int = 16,
                 seed: int = 0) -> None:
        super().__init__(num_tasks, seed=seed)
        if messages_per_task < 1:
            raise WorkloadError("messages_per_task must be >= 1")
        self.messages_per_task = messages_per_task

    def sample_sizes(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` flow sizes (bits) from the mixture."""
        probs = np.array([p for p, _, _ in self.SIZE_BANDS])
        lows = np.array([lo for _, lo, _ in self.SIZE_BANDS])
        highs = np.array([hi for _, _, hi in self.SIZE_BANDS])
        band = rng.choice(len(self.SIZE_BANDS), size=n, p=probs / probs.sum())
        u = rng.random(n)
        return np.exp(np.log(lows[band]) * (1 - u) + np.log(highs[band]) * u)

    def build(self) -> FlowSet:
        rng = self.rng()
        b = FlowBuilder(self.num_tasks)
        n = self.num_tasks * self.messages_per_task
        srcs = np.repeat(np.arange(self.num_tasks), self.messages_per_task)
        dsts = random_destinations(rng, self.num_tasks, srcs)
        sizes = self.sample_sizes(rng, n)
        prev: dict[int, int] = {}
        for s, d, size in zip(srcs.tolist(), dsts.tolist(), sizes.tolist()):
            after = [prev[s]] if s in prev else []
            prev[s] = b.add_flow(s, d, size, after=after)
        return b.build()


class UnstructuredHR(Workload):
    """Random traffic skewed towards a hot subset of destination tasks."""

    name = "unstructuredhr"
    classification = HEAVY

    def __init__(self, num_tasks: int, *, messages_per_task: int = 8,
                 message_size: float = DEFAULT_MESSAGE,
                 hot_fraction: float = 0.125, hot_probability: float = 0.75,
                 seed: int = 0) -> None:
        super().__init__(num_tasks, seed=seed)
        if not 0 < hot_fraction <= 1:
            raise WorkloadError("hot_fraction must be in (0, 1]")
        if not 0 <= hot_probability <= 1:
            raise WorkloadError("hot_probability must be in [0, 1]")
        self.messages_per_task = messages_per_task
        self.message_size = message_size
        self.hot_fraction = hot_fraction
        self.hot_probability = hot_probability

    def hot_tasks(self) -> np.ndarray:
        """The seeded hot destination subset (at least one task)."""
        count = max(1, int(round(self.num_tasks * self.hot_fraction)))
        return self.rng().permutation(self.num_tasks)[:count]

    def build(self) -> FlowSet:
        rng = self.rng()
        hot = rng.permutation(self.num_tasks)[
            :max(1, int(round(self.num_tasks * self.hot_fraction)))]
        b = FlowBuilder(self.num_tasks)
        srcs = np.repeat(np.arange(self.num_tasks), self.messages_per_task)
        n = srcs.shape[0]
        uniform = random_destinations(rng, self.num_tasks, srcs)
        hot_dst = hot[rng.integers(0, hot.shape[0], size=n)]
        use_hot = rng.random(n) < self.hot_probability
        dsts = np.where(use_hot, hot_dst, uniform)
        for s, d in zip(srcs.tolist(), dsts.tolist()):
            if s == d:  # a hot draw may hit the sender; redirect to neighbour
                d = (d + 1) % self.num_tasks
            b.add_flow(s, int(d), self.message_size)
        return b.build()


class Bisection(Workload):
    """Pair-wise exchanges over a fresh random matching every round."""

    name = "bisection"
    classification = HEAVY

    def __init__(self, num_tasks: int, *, rounds: int = 8,
                 message_size: float = DEFAULT_BISECTION_MESSAGE,
                 seed: int = 0) -> None:
        super().__init__(num_tasks, seed=seed)
        if num_tasks % 2:
            raise WorkloadError("bisection needs an even number of tasks")
        if rounds < 1:
            raise WorkloadError("rounds must be >= 1")
        self.rounds = rounds
        self.message_size = message_size

    def build(self) -> FlowSet:
        rng = self.rng()
        b = FlowBuilder(self.num_tasks)
        prev: dict[int, int] = {}
        for _ in range(self.rounds):
            partner = random_matching(rng, self.num_tasks)
            nxt: dict[int, int] = {}
            for task in range(self.num_tasks):
                p = int(partner[task])
                after = [prev[task]] if task in prev else []
                nxt[task] = b.add_flow(task, p, self.message_size, after=after)
            prev = nxt
        return b.build()
