"""Collective-operation workloads: Reduce and AllReduce.

* **Reduce** — the deliberately *non-optimised* N-to-1 collective of the
  paper: every task sends its contribution straight to the root,
  concentrating all traffic on one consumption port.  The paper uses it as
  a pathological hot-spot scenario and observes that every topology
  performs identically because the root's consumption link serialises
  delivery (Section 5.2).

* **AllReduce** — the optimised logarithmic collective (recursive
  doubling, after Thakur & Gropp): ``log2(T)`` steps in which each task
  exchanges with a partner at XOR distance ``2^s``.  Non-power-of-two task
  counts use the standard pre/post folding phases.
"""

from __future__ import annotations

import numpy as np

from repro.engine.flows import FlowBuilder, FlowSet
from repro.errors import WorkloadError
from repro.units import KiB
from repro.workloads.base import HEAVY, LIGHT, Workload

#: Default per-message payload of the collectives.
DEFAULT_MESSAGE = 512 * KiB


class Reduce(Workload):
    """Non-optimised N-to-1 reduction: all tasks send to the root at once."""

    name = "reduce"
    classification = LIGHT  # paper Figure 5

    def __init__(self, num_tasks: int, *, root: int = 0,
                 message_size: float = DEFAULT_MESSAGE, seed: int = 0) -> None:
        super().__init__(num_tasks, seed=seed)
        if not 0 <= root < num_tasks:
            raise WorkloadError(f"root {root} out of range")
        self.root = root
        self.message_size = message_size

    def build(self) -> FlowSet:
        b = FlowBuilder(self.num_tasks)
        senders = np.arange(self.num_tasks, dtype=np.int64)
        b.add_flows(senders[senders != self.root], self.root,
                    self.message_size)
        return b.build()


class AllReduce(Workload):
    """Recursive-doubling allreduce (``log2`` steps of pairwise exchanges).

    At step ``s`` (distances 1, 2, 4, ...), rank ``r`` exchanges with
    ``r XOR 2^s``.  A step's send waits on the rank's previous send *and*
    on the message it received in the previous step, which is exactly the
    data dependency of the reduction.  Ranks beyond the largest power of
    two fold into a mirror rank before the doubling and receive the result
    afterwards.
    """

    name = "allreduce"
    classification = HEAVY  # paper Figure 4

    def __init__(self, num_tasks: int, *,
                 message_size: float = DEFAULT_MESSAGE, seed: int = 0) -> None:
        super().__init__(num_tasks, seed=seed)
        self.message_size = message_size

    def build(self) -> FlowSet:
        # One batch per phase and step, with each step's dependencies
        # added in rank order right after its flows: the same flow ids and
        # the same dependency order (hence CSR successor order) as adding
        # rank by rank.
        b = FlowBuilder(self.num_tasks)
        t = self.num_tasks
        size = self.message_size
        power = 1
        while power * 2 <= t:
            power *= 2
        ranks = np.arange(power, dtype=np.int64)
        mirrors = ranks[:t - power]

        # pre-phase: ranks >= power fold their data into a mirror rank
        pre = b.add_flows(mirrors + power, mirrors, size)

        # doubling phase: sends[r] is rank r's flow of the previous step;
        # a step's send waits on the rank's own previous send and on its
        # previous partner's (the message it received)
        sends = b.add_flows(ranks, ranks ^ 1, size)
        b.add_dependencies(pre, sends[mirrors])
        step = 2
        while step < power:
            new_sends = b.add_flows(ranks, ranks ^ step, size)
            b.add_dependencies(_pairs(sends, sends[ranks ^ (step // 2)]),
                               np.repeat(new_sends, 2))
            sends = new_sends
            step *= 2

        # post-phase: mirrors push the final value back to folded ranks
        last_step = step // 2
        post = b.add_flows(mirrors, mirrors + power, size)
        b.add_dependencies(_pairs(sends[mirrors], sends[mirrors ^ last_step]),
                           np.repeat(post, 2))
        return b.build()


def _pairs(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Interleave two equal-length arrays: first[0], second[0], first[1], ..."""
    return np.stack((first, second), axis=1).ravel()
