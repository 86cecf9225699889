"""n-Bodies workload: half-ring message circulation.

Paper Section 4.1: "tasks are arranged in a virtual ring in which each task
starts a chain of messages that travel clockwise across half of the ring."
Every task therefore injects a chain of ``T // 2`` hop flows, each hop
waiting for the previous one; all ``T`` chains circulate concurrently,
which keeps the whole ring busy (heavy, Figure 4).

The flow count is ``T * (T // 2)`` — quadratic — so like MapReduce the task
count is chosen independently of the system size.
"""

from __future__ import annotations

from repro.engine.flows import FlowBuilder, FlowSet
from repro.errors import WorkloadError
from repro.units import KiB
from repro.workloads.base import HEAVY, Workload

#: Default payload of each chain hop.
DEFAULT_MESSAGE = 64 * KiB


class NBodies(Workload):
    """All-pairs force exchange via half-ring circulation."""

    name = "nbodies"
    classification = HEAVY

    def __init__(self, num_tasks: int, *,
                 message_size: float = DEFAULT_MESSAGE,
                 hops: int | None = None, seed: int = 0) -> None:
        super().__init__(num_tasks, seed=seed)
        self.message_size = message_size
        self.hops = num_tasks // 2 if hops is None else hops
        if not 1 <= self.hops < num_tasks:
            raise WorkloadError(
                f"chain length {self.hops} invalid for {num_tasks} tasks")

    def build(self) -> FlowSet:
        b = FlowBuilder(self.num_tasks)
        t = self.num_tasks
        for start in range(t):
            prev: int | None = None
            for hop in range(self.hops):
                src = (start + hop) % t
                dst = (start + hop + 1) % t
                after = [prev] if prev is not None else []
                prev = b.add_flow(src, dst, self.message_size, after=after)
        return b.build()
