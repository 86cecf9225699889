"""Flow sets: the traffic unit exchanged between workloads and the engine.

A *flow* is a point-to-point transfer of ``size`` bits between two tasks,
with causal dependencies: a flow may only start once all its predecessor
flows have completed ("some flows must finish before others are allowed to
be injected", paper Section 4.1).  A :class:`FlowSet` is the immutable,
structure-of-arrays form consumed by the simulator; workloads assemble it
through :class:`FlowBuilder`.

Flows reference *tasks*, not endpoints — the simulator applies a placement
(task -> endpoint) at routing time, so one workload can be replayed onto any
topology and mapping.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import WorkloadError

if TYPE_CHECKING:  # pragma: no cover - typing only; numpy.typing is slow to import
    from numpy.typing import ArrayLike


@dataclass(frozen=True)
class FlowSet:
    """Immutable DAG of flows in structure-of-arrays form.

    ``succ_indptr``/``succ_indices`` form a CSR adjacency of the dependency
    DAG (flow -> flows that must wait for it); ``indegree`` counts each
    flow's predecessors.
    """

    num_tasks: int
    src: np.ndarray        # int64 task ids
    dst: np.ndarray        # int64 task ids
    size: np.ndarray       # float64 bits
    weight: np.ndarray     # float64 bandwidth-sharing weights (default 1.0)
    indegree: np.ndarray   # int64 predecessor counts
    succ_indptr: np.ndarray
    succ_indices: np.ndarray

    @property
    def num_flows(self) -> int:
        return int(self.src.shape[0])

    @property
    def is_weighted(self) -> bool:
        """True when any flow carries a non-default bandwidth weight."""
        return bool((self.weight != 1.0).any())

    @property
    def num_dependencies(self) -> int:
        return int(self.succ_indices.shape[0])

    @property
    def total_bits(self) -> float:
        return float(self.size.sum())

    def successors(self, flow: int) -> np.ndarray:
        """Flow ids that directly depend on ``flow``."""
        return self.succ_indices[self.succ_indptr[flow]:self.succ_indptr[flow + 1]]

    def roots(self) -> np.ndarray:
        """Flows with no predecessors (injectable at time zero)."""
        return np.nonzero(self.indegree == 0)[0]

    def topological_order(self) -> np.ndarray:
        """Kahn topological order; raises on cycles.

        Used for validation and by the static analysis mode.
        """
        indeg = self.indegree.copy()
        order = np.empty(self.num_flows, dtype=np.int64)
        queue = deque(self.roots().tolist())
        n = 0
        while queue:
            f = queue.popleft()
            order[n] = f
            n += 1
            for s in self.successors(f).tolist():
                indeg[s] -= 1
                if indeg[s] == 0:
                    queue.append(s)
        if n != self.num_flows:
            raise WorkloadError(
                f"dependency graph has a cycle ({self.num_flows - n} flows unreachable)")
        return order

    def dependency_depth(self) -> int:
        """Length of the longest dependency chain (number of levels)."""
        if self.num_flows == 0:
            return 0
        depth = np.zeros(self.num_flows, dtype=np.int64)
        for f in self.topological_order().tolist():
            succ = self.successors(f)
            if succ.size:
                np.maximum.at(depth, succ, depth[f] + 1)
        return int(depth.max()) + 1


class FlowBuilder:
    """Incremental constructor for :class:`FlowSet`.

    Typical workload usage::

        b = FlowBuilder(num_tasks)
        first = b.add_flow(0, 1, size)
        b.add_flow(1, 2, size, after=[first])
        flows = b.build()

    Workloads that emit whole steps at once use the batch form, which
    validates a batch as one and stores it as array chunks::

        ids = b.add_flows(src, dst, size)    # ids are consecutive
        b.add_dependencies(pred, succ)       # edge k: pred[k] -> succ[k]

    Scalar and batch calls share one storage in call order, so flow ids
    stay sequential and dependencies keep their insertion order, which
    fixes each flow's successor order in the CSR.
    """

    def __init__(self, num_tasks: int) -> None:
        if num_tasks < 1:
            raise WorkloadError("a workload needs at least one task")
        self.num_tasks = num_tasks
        self._num_flows = 0
        # flushed chunks: (src, dst, size, weight) and (pred, succ) arrays
        self._flow_chunks: list[tuple[np.ndarray, ...]] = []
        self._dep_chunks: list[tuple[np.ndarray, np.ndarray]] = []
        # scalar calls append here until the next batch call or build()
        self._src: list[int] = []
        self._dst: list[int] = []
        self._size: list[float] = []
        self._weight: list[float] = []
        self._dep_pred: list[int] = []
        self._dep_succ: list[int] = []

    # ------------------------------------------------------------------- add
    def add_flow(self, src: int, dst: int, size: float,
                 after: Iterable[int] = (), *, weight: float = 1.0) -> int:
        """Register a flow and return its id.

        ``after`` lists predecessor flow ids that must complete first.
        ``weight`` sets the flow's bandwidth-sharing priority (weighted
        max-min: a weight-2 flow gets twice a weight-1 flow's share on a
        common bottleneck).
        """
        if not 0 <= src < self.num_tasks or not 0 <= dst < self.num_tasks:
            raise WorkloadError(
                f"flow endpoints ({src}, {dst}) out of range for "
                f"{self.num_tasks} tasks")
        if not size > 0:
            raise WorkloadError(f"flow size must be positive, got {size}")
        if not weight > 0:
            raise WorkloadError(f"flow weight must be positive, got {weight}")
        fid = self._num_flows
        after = list(after)
        for pred in after:
            if not 0 <= pred < fid:
                raise WorkloadError(
                    f"dependency ({pred}, {fid}) references unknown flows")
        self._src.append(src)
        self._dst.append(dst)
        self._size.append(float(size))
        self._weight.append(float(weight))
        self._num_flows = fid + 1
        self._dep_pred.extend(after)
        self._dep_succ.extend([fid] * len(after))
        return fid

    def add_dependency(self, pred: int, succ: int) -> None:
        """Require flow ``pred`` to complete before flow ``succ`` starts."""
        n = self._num_flows
        if not 0 <= pred < n or not 0 <= succ < n:
            raise WorkloadError(f"dependency ({pred}, {succ}) references unknown flows")
        if pred == succ:
            raise WorkloadError(f"flow {pred} cannot depend on itself")
        self._dep_pred.append(pred)
        self._dep_succ.append(succ)

    def add_flows(self, src: ArrayLike, dst: ArrayLike, size: ArrayLike, *,
                  weight: ArrayLike = 1.0) -> np.ndarray:
        """Register one flow per entry of ``src``; return their ids.

        ``dst``, ``size`` and ``weight`` are arrays of ``len(src)`` or
        scalars shared by the batch.  The batch is validated as a whole:
        on a bad entry nothing is added.  Ids are consecutive, starting
        at :attr:`num_flows`.
        """
        src_arr = _column(src, None, "src", np.int64)
        k = src_arr.shape[0]
        dst_arr = _column(dst, k, "dst", np.int64)
        size_arr = _column(size, k, "size", np.float64)
        weight_arr = _column(weight, k, "weight", np.float64)
        if k and (min(src_arr.min(), dst_arr.min()) < 0
                  or max(src_arr.max(), dst_arr.max()) >= self.num_tasks):
            raise WorkloadError(
                f"flow endpoints out of range for {self.num_tasks} tasks")
        if not (size_arr > 0).all():
            raise WorkloadError("flow sizes must be positive")
        if not (weight_arr > 0).all():
            raise WorkloadError("flow weights must be positive")
        first = self._num_flows
        if k:
            self._flush_flows()
            self._flow_chunks.append((src_arr, dst_arr, size_arr, weight_arr))
            self._num_flows = first + k
        return np.arange(first, first + k, dtype=np.int64)

    def add_dependencies(self, pred: ArrayLike, succ: ArrayLike) -> None:
        """Add the edges ``pred[k] -> succ[k]`` in order.

        ``pred`` is a 1-D array; ``succ`` is an array of the same length,
        or one flow id that every ``pred`` precedes.  The batch is
        validated as a whole: on an unknown or self dependency nothing is
        added.
        """
        pred_arr = _column(pred, None, "pred", np.int64)
        succ_arr = _column(succ, pred_arr.shape[0], "succ", np.int64)
        if not pred_arr.shape[0]:
            return
        n = self._num_flows
        if (min(pred_arr.min(), succ_arr.min()) < 0
                or max(pred_arr.max(), succ_arr.max()) >= n):
            raise WorkloadError("dependencies reference unknown flows")
        if (pred_arr == succ_arr).any():
            raise WorkloadError("a flow cannot depend on itself")
        self._flush_dependencies()
        self._dep_chunks.append((pred_arr, succ_arr))

    def barrier(self, preds: Sequence[int], succs: Sequence[int]) -> None:
        """All of ``succs`` wait for all of ``preds`` (all-pairs dependency).

        Use sparingly: cost is ``len(preds) * len(succs)`` edges.  Prefer
        per-task dependencies when the workload allows it.
        """
        preds_arr = np.asarray(preds, dtype=np.int64)
        succs_arr = np.asarray(succs, dtype=np.int64)
        self.add_dependencies(np.repeat(preds_arr, succs_arr.shape[0]),
                              np.tile(succs_arr, preds_arr.shape[0]))

    def chain(self, flows: Sequence[int]) -> None:
        """Serialise ``flows``: each one waits for the previous."""
        flows_arr = np.asarray(flows, dtype=np.int64)
        self.add_dependencies(flows_arr[:-1], flows_arr[1:])

    def _flush_flows(self) -> None:
        if self._src:
            self._flow_chunks.append((
                np.asarray(self._src, dtype=np.int64),
                np.asarray(self._dst, dtype=np.int64),
                np.asarray(self._size, dtype=np.float64),
                np.asarray(self._weight, dtype=np.float64)))
            self._src, self._dst, self._size, self._weight = [], [], [], []

    def _flush_dependencies(self) -> None:
        if self._dep_pred:
            self._dep_chunks.append((
                np.asarray(self._dep_pred, dtype=np.int64),
                np.asarray(self._dep_succ, dtype=np.int64)))
            self._dep_pred, self._dep_succ = [], []

    # ----------------------------------------------------------------- build
    @property
    def num_flows(self) -> int:
        return self._num_flows

    def build(self, *, validate: bool = True) -> FlowSet:
        """Freeze into a :class:`FlowSet`; validates acyclicity by default.

        When every dependency points forward (``pred < succ``), flow ids
        are already a topological order, which proves the graph acyclic
        in one vectorised check; only graphs with a backward edge take
        the Kahn walk of :meth:`FlowSet.topological_order`.
        """
        self._flush_flows()
        self._flush_dependencies()
        n = self._num_flows
        pred = _concat([c[0] for c in self._dep_chunks], np.int64)
        succ = _concat([c[1] for c in self._dep_chunks], np.int64)
        # the edge list stays private (the FlowSet holds a CSR built from
        # it), so one merged chunk replaces the parts and frees them early
        self._dep_chunks = [(pred, succ)] if pred.shape[0] else []
        src, dst, size, weight = (
            _concat([c[i] for c in self._flow_chunks], dtype)
            for i, dtype in enumerate((np.int64, np.int64, np.float64,
                                       np.float64)))
        indegree = np.bincount(succ, minlength=n).astype(np.int64, copy=False)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(pred, minlength=n), out=indptr[1:])
        indices = succ[np.argsort(pred, kind="stable")]
        flows = FlowSet(
            num_tasks=self.num_tasks,
            src=src,
            dst=dst,
            size=size,
            weight=weight,
            indegree=indegree,
            succ_indptr=indptr,
            succ_indices=indices,
        )
        if validate and not (pred < succ).all():
            flows.topological_order()  # raises on cycles
        return flows


def _concat(chunks: list[np.ndarray], dtype: type) -> np.ndarray:
    """The chunks joined into one new array (a copy even of one chunk)."""
    if not chunks:
        return np.empty(0, dtype=dtype)
    return np.concatenate(chunks)


def _column(values: ArrayLike, length: int | None, name: str,
            dtype: type) -> np.ndarray:
    """``values`` as a fresh 1-D ``dtype`` array of ``length`` entries.

    ``length=None`` requires a 1-D array and takes its length; otherwise
    a scalar is repeated ``length`` times.
    """
    arr = np.asarray(values)
    kind, what = ((np.integer, "integer ids") if dtype is np.int64
                  else (np.number, "numbers"))
    if arr.size and not np.issubdtype(arr.dtype, kind):
        raise WorkloadError(f"{name} has dtype {arr.dtype}, expected {what}")
    if arr.ndim == 0 and length is not None:
        return np.full(length, arr, dtype=dtype)
    if arr.ndim != 1 or (length is not None and arr.shape[0] != length):
        expected = "a 1-D array" if length is None else f"{length} entries"
        raise WorkloadError(
            f"{name} has shape {arr.shape}, expected {expected}")
    return np.array(arr, dtype=dtype)
