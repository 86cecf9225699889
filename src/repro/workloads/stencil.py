"""Grid-structured HPC workloads: Sweep3D, Flood and Near Neighbors.

All three arrange tasks in a virtual 3D grid (paper Section 4.1):

* **Sweep3D** — deterministic particle transport: a wavefront starts at one
  corner and advances diagonally towards the opposite corner; each task
  forwards to its +1 neighbours once it has heard from all its -1
  neighbours.  Causality keeps few tasks active at once (light, Figure 5).
* **Flood** — like the sweep but radiating from a central source in *all*
  directions with several wavefronts in flight simultaneously, putting much
  heavier pressure on the network — yet still causality-limited enough
  that the paper groups it with the light workloads (Figure 5).
* **Near Neighbors** — the LAMMPS/RegCM halo-exchange stencil: every task
  exchanges with its 6 (wraparound) neighbours every round, all at once
  (heavy, Figure 4).
"""

from __future__ import annotations

from repro.engine.flows import FlowBuilder, FlowSet
from repro.errors import WorkloadError
from repro.routing import dor
from repro.units import KiB
from repro.workloads.base import HEAVY, LIGHT, GridWorkload

#: Default wavefront / halo message payloads.
DEFAULT_SWEEP_MESSAGE = 64 * KiB
DEFAULT_HALO_MESSAGE = 256 * KiB


class Sweep3D(GridWorkload):
    """Corner-to-corner wavefront over a 3D task grid."""

    name = "sweep3d"
    classification = LIGHT

    def __init__(self, num_tasks: int, *,
                 message_size: float = DEFAULT_SWEEP_MESSAGE,
                 sweeps: int = 1, seed: int = 0) -> None:
        super().__init__(num_tasks, seed=seed)
        if sweeps < 1:
            raise WorkloadError("sweeps must be >= 1")
        self.message_size = message_size
        self.sweeps = sweeps

    def build(self) -> FlowSet:
        b = FlowBuilder(self.num_tasks)
        dims = self.grid_dims
        prev_sweep_out: dict[int, list[int]] = {}
        for _ in range(self.sweeps):
            # incoming[t] — flows task t must wait for before forwarding
            incoming: dict[int, list[int]] = {t: [] for t in range(self.num_tasks)}
            out: dict[int, list[int]] = {t: [] for t in range(self.num_tasks)}
            # traverse in raster order: all -1 neighbours precede the task
            for task in range(self.num_tasks):
                coord = self.coord(task)
                after = incoming[task] + prev_sweep_out.get(task, [])
                for dim in range(len(dims)):
                    if coord[dim] + 1 < dims[dim]:
                        nxt = list(coord)
                        nxt[dim] += 1
                        dst = self.task(tuple(nxt))
                        fid = b.add_flow(task, dst, self.message_size,
                                         after=after)
                        incoming[dst].append(fid)
                        out[task].append(fid)
            prev_sweep_out = out
        return b.build()


class Flood(GridWorkload):
    """Multi-wavefront flood radiating from the grid centre."""

    name = "flood"
    classification = LIGHT

    def __init__(self, num_tasks: int, *,
                 message_size: float = DEFAULT_SWEEP_MESSAGE,
                 wavefronts: int = 4, seed: int = 0) -> None:
        super().__init__(num_tasks, seed=seed)
        if wavefronts < 1:
            raise WorkloadError("wavefronts must be >= 1")
        self.message_size = message_size
        self.wavefronts = wavefronts
        self.source = self.task(tuple(k // 2 for k in self.grid_dims))

    def _outward_neighbors(self, task: int) -> list[int]:
        """Grid neighbours strictly farther (mesh distance) from the source."""
        coord = self.coord(task)
        src = self.coord(self.source)
        here = dor.distance(src, coord, self.grid_dims, torus=False)
        out = []
        for nb in dor.neighbors(coord, self.grid_dims, torus=False):
            if dor.distance(src, nb, self.grid_dims, torus=False) > here:
                out.append(self.task(nb))
        return out

    def build(self) -> FlowSet:
        b = FlowBuilder(self.num_tasks)
        order = sorted(
            range(self.num_tasks),
            key=lambda t: dor.distance(self.coord(self.source), self.coord(t),
                                       self.grid_dims, torus=False))
        prev_wave_send: dict[int, list[int]] = {}
        for _ in range(self.wavefronts):
            incoming: dict[int, list[int]] = {t: [] for t in range(self.num_tasks)}
            sends: dict[int, list[int]] = {t: [] for t in range(self.num_tasks)}
            for task in order:  # by distance: predecessors already emitted
                after = incoming[task] + prev_wave_send.get(task, [])
                for dst in self._outward_neighbors(task):
                    fid = b.add_flow(task, dst, self.message_size, after=after)
                    incoming[dst].append(fid)
                    sends[task].append(fid)
            prev_wave_send = sends
        return b.build()


class NearNeighbors(GridWorkload):
    """Periodic halo exchange, all tasks at once, several rounds.

    The paper motivates this workload with LAMMPS and RegCM.  RegCM
    (climate modelling) decomposes its domain in **two** dimensions with a
    9-point stencil, so the defaults are a 2-D virtual grid with diagonal
    neighbours included — which means the application's grid does *not*
    line up with the machine's 3-D torus (one stencil direction strides far
    through the rank order, and DOR concentrates the corner exchanges onto
    those strided links).  That misalignment is what lets the fattree beat
    the torus here even though the spatial pattern looks torus friendly
    (paper §5.2).  Pass ``dims=3, diagonals=False`` for a torus-aligned
    6-point stencil, which degenerates to a NIC-bound exchange identical on
    every topology.
    """

    name = "nearneighbors"
    classification = HEAVY

    def __init__(self, num_tasks: int, *,
                 message_size: float = DEFAULT_HALO_MESSAGE,
                 rounds: int = 2, dims: int = 2, diagonals: bool = True,
                 seed: int = 0) -> None:
        super().__init__(num_tasks, dims=dims, seed=seed)
        if rounds < 1:
            raise WorkloadError("rounds must be >= 1")
        # climate domains are wider than tall: widest dimension first, so
        # the slow stencil direction strides far through the rank order
        self.grid_dims = tuple(sorted(self.grid_dims, reverse=True))
        self.message_size = message_size
        self.rounds = rounds
        self.diagonals = diagonals

    def _neighbors(self, task: int) -> list[int]:
        """Stencil partners of a task (wraparound; optionally diagonal)."""
        if not self.diagonals:
            return [self.task(nb)
                    for nb in dor.neighbors(self.coord(task), self.grid_dims)]
        import itertools

        coord = self.coord(task)
        out = []
        seen = {coord}
        for offsets in itertools.product((-1, 0, 1), repeat=len(coord)):
            nb = tuple((c + o) % k
                       for c, o, k in zip(coord, offsets, self.grid_dims))
            if nb not in seen:
                seen.add(nb)
                out.append(self.task(nb))
        return out

    def build(self) -> FlowSet:
        b = FlowBuilder(self.num_tasks)
        neighbors = {t: self._neighbors(t) for t in range(self.num_tasks)}
        prev_incoming: dict[int, list[int]] = {t: [] for t in range(self.num_tasks)}
        for _ in range(self.rounds):
            incoming: dict[int, list[int]] = {t: [] for t in range(self.num_tasks)}
            for task in range(self.num_tasks):
                # a round's sends wait for the previous round's halo to arrive
                after = prev_incoming[task]
                for dst in neighbors[task]:
                    fid = b.add_flow(task, dst, self.message_size, after=after)
                    incoming[dst].append(fid)
            prev_incoming = incoming
        return b.build()
