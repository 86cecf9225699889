"""MapReduce workload: scatter -> all-to-all shuffle -> gather.

Per the paper (Section 4.1, after Dean & Ghemawat): "a root task partitions
and distributes the original data amongst all servers.  Once computing
nodes receive data from the root, they perform the mapping of the data and
shuffle it to the other servers in an all-to-all fashion and then send
their results back to the root."

The shuffle is quadratic in the task count, so the default task count is
kept independent of the system size (the harness spreads the tasks across
the machine with a placement); the per-task partition size is fixed, and
every shuffle fragment is ``partition / tasks``.
"""

from __future__ import annotations

from repro.engine.flows import FlowBuilder, FlowSet
from repro.errors import WorkloadError
from repro.units import KiB
from repro.workloads.base import LIGHT, Workload

#: Data each mapper receives from the root (and sends back reduced).
DEFAULT_PARTITION = 256 * KiB


class MapReduce(Workload):
    """Three-phase MapReduce over ``num_tasks`` workers plus a root (task 0)."""

    name = "mapreduce"
    classification = LIGHT  # paper Figure 5

    def __init__(self, num_tasks: int, *, root: int = 0,
                 partition_size: float = DEFAULT_PARTITION,
                 seed: int = 0) -> None:
        super().__init__(num_tasks, seed=seed)
        if not 0 <= root < num_tasks:
            raise WorkloadError(f"root {root} out of range")
        self.root = root
        self.partition_size = partition_size

    def build(self) -> FlowSet:
        b = FlowBuilder(self.num_tasks)
        t = self.num_tasks
        fragment = self.partition_size / t

        # phase 1: scatter
        scatter: dict[int, int] = {}
        for worker in range(t):
            if worker != self.root:
                scatter[worker] = b.add_flow(self.root, worker,
                                             self.partition_size)

        # phase 2: all-to-all shuffle (each send waits for the sender's map
        # input; the root already holds its partition)
        incoming: dict[int, list[int]] = {w: [] for w in range(t)}
        for sender in range(t):
            after = [scatter[sender]] if sender in scatter else []
            for receiver in range(t):
                if receiver == sender:
                    continue
                fid = b.add_flow(sender, receiver, fragment, after=after)
                incoming[receiver].append(fid)

        # phase 3: gather (a worker reduces once it has every fragment)
        for worker in range(t):
            if worker != self.root:
                b.add_flow(worker, self.root, self.partition_size,
                           after=incoming[worker])
        return b.build()
