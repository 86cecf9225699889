"""Vectorised max-min fair bandwidth allocation (progressive filling).

Given the set of currently active flows and the links each traverses, the
classic progressive-filling algorithm raises a global "water level" — every
unfrozen flow's rate — until some link saturates; flows crossing a saturated
link freeze at the current level, and the process repeats on the residual
network.  The result is the unique max-min fair allocation with equal flow
weights, which is the bandwidth-sharing model of flow-level simulators such
as INRFlow.

Implementation notes (this routine dominates simulation time, so it is
written for numpy throughput):

* link ids are compacted to the links actually used by the batch;
* a link -> entries CSR is built once so each saturated link's flows are
  gathered exactly once over the whole run (O(nnz) total, not per
  iteration);
* per-iteration work is just a masked minimum over the active links.

This is the reference: :class:`~repro.engine.active.ActiveSet`'s fill
kernel (:mod:`repro.engine.kernels.numpy_fill`) performs these same
float operations on the same values — residual ``cap - delta * count``
per iteration, the ``_SAT_TOL`` capacity floor as the saturation test —
but defers them on the links that cannot saturate soon, so its rates
and iteration counts equal this routine's bit for bit (for weighted
flows, up to the order in which equal-level weights leave a link's
count: ascending flow id there, batch order here).
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError

#: Relative capacity slack below which a link counts as saturated.
_SAT_TOL = 1e-12

#: Weight-sum residue below which a link counts as empty (float subtraction
#: of weights can leave ~1e-16 residues where integer counts left exact 0).
_COUNT_TOL = 1e-9


def allocate(link_entries: np.ndarray, flow_ptr: np.ndarray,
             capacities: np.ndarray,
             weights: np.ndarray | None = None, *,
             stats: dict | None = None) -> np.ndarray:
    """(Weighted) max-min fair rates for a batch of flows.

    Parameters
    ----------
    link_entries:
        Concatenated link ids of every flow's route (flow ``i`` owns
        ``link_entries[flow_ptr[i]:flow_ptr[i+1]]``).  A flow may not list
        the same link twice (routes are loop-free walks).
    flow_ptr:
        Route offsets, ``len == num_flows + 1``.
    capacities:
        Global per-link capacity vector (bits/s), indexed by link id.
    weights:
        Optional strictly-positive per-flow weights.  An unfrozen flow's
        rate is ``weight * level``: a weight-2 flow receives twice the
        bandwidth of a weight-1 competitor on a shared bottleneck.  This is
        the "low-level bandwidth scheduling to give priority to critical
        flows" the paper lists as future work.  ``None`` means equal
        weights (classic max-min).
    stats:
        Optional out-parameter: when a dict is supplied, the number of
        progressive-filling iterations (water-level raises) is written to
        ``stats["iterations"]``.  Used by the observability layer; the
        default (``None``) adds no work to the loop.

    Returns
    -------
    numpy.ndarray
        Per-flow rate in bits/s; every rate is strictly positive.
    """
    num_flows = flow_ptr.shape[0] - 1
    if num_flows == 0:
        if stats is not None:
            stats["iterations"] = 0
        return np.empty(0, dtype=np.float64)
    if link_entries.shape[0] != flow_ptr[-1]:
        raise SimulationError("flow_ptr does not cover link_entries")
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (num_flows,):
            raise SimulationError("weights must have one entry per flow")
        if np.any(weights <= 0):
            raise SimulationError("flow weights must be strictly positive")

    # compact to the links actually used by this batch
    used, local = np.unique(link_entries, return_inverse=True)
    cap_rem = capacities[used].astype(np.float64, copy=True)
    if np.any(cap_rem <= 0):
        raise SimulationError("active flow crosses a zero-capacity link")
    sat_floor = cap_rem * _SAT_TOL
    num_local = used.shape[0]

    flow_of_entry = np.repeat(np.arange(num_flows, dtype=np.int64),
                              np.diff(flow_ptr))

    # link -> entries CSR (so saturated links locate their flows in O(deg))
    entry_order = np.argsort(local, kind="stable")
    link_indptr = np.zeros(num_local + 1, dtype=np.int64)
    np.cumsum(np.bincount(local, minlength=num_local), out=link_indptr[1:])
    flows_by_link = flow_of_entry[entry_order]

    if weights is None:
        counts = np.bincount(local, minlength=num_local).astype(np.float64)
    else:
        counts = np.bincount(local, weights=weights[flow_of_entry],
                             minlength=num_local)
    active_link = counts > 0
    unfrozen = np.ones(num_flows, dtype=bool)
    rates = np.zeros(num_flows, dtype=np.float64)
    level = 0.0
    remaining_flows = num_flows
    iterations = 0

    for _ in range(num_local + 1):
        if remaining_flows == 0:
            break
        if not active_link.any():
            raise SimulationError("allocation left flows without a bottleneck")
        iterations += 1
        # raise the water level until the tightest active link saturates
        shares = cap_rem[active_link] / counts[active_link]
        delta = float(shares.min())
        level += delta
        cap_rem[active_link] -= delta * counts[active_link]
        saturated = np.nonzero(active_link & (cap_rem <= sat_floor))[0]
        if saturated.size == 0:
            # numerically the minimum itself must have saturated
            act = np.nonzero(active_link)[0]
            saturated = act[cap_rem[act] <= cap_rem[act].min() + sat_floor[act]]
        # freeze every unfrozen flow crossing a saturated link
        frozen_entries = np.concatenate(
            [flows_by_link[link_indptr[l]:link_indptr[l + 1]] for l in saturated])
        frozen_now = np.unique(frozen_entries)
        frozen_now = frozen_now[unfrozen[frozen_now]]
        active_link[saturated] = False
        if frozen_now.size:
            rates[frozen_now] = level if weights is None \
                else weights[frozen_now] * level
            unfrozen[frozen_now] = False
            remaining_flows -= frozen_now.size
            # remove the frozen flows' presence from link occupancy
            starts = flow_ptr[frozen_now]
            stops = flow_ptr[frozen_now + 1]
            idx = _slices_concat(starts, stops)
            touched = local[idx]
            if weights is None:
                np.subtract.at(counts, touched, 1.0)
            else:
                np.subtract.at(counts, touched, weights[flow_of_entry[idx]])
            emptied = counts <= _COUNT_TOL
            active_link &= ~emptied
    else:  # pragma: no cover - progressive filling always terminates
        raise SimulationError("progressive filling failed to converge")

    if remaining_flows:
        raise SimulationError("allocation left flows without a bottleneck")
    if stats is not None:
        stats["iterations"] = iterations
    return rates


def _slices_concat(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Concatenate index ranges [starts[i], stops[i]) into one index array."""
    lengths = stops - starts
    nonzero = lengths > 0
    if not nonzero.all():
        # a zero-length range contributes nothing, but below it would share
        # its cumsum offset with a neighbour and corrupt that range's start
        starts, stops, lengths = starts[nonzero], stops[nonzero], lengths[nonzero]
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    out = np.ones(total, dtype=np.int64)
    offsets = np.zeros(len(starts) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    out[offsets[:-1]] = starts
    out[offsets[1:-1]] -= stops[:-1] - 1
    return np.cumsum(out)


def bottleneck_lower_bound(link_entries: np.ndarray, flow_ptr: np.ndarray,
                           capacities: np.ndarray,
                           sizes: np.ndarray) -> float:
    """Completion-time lower bound if all flows were concurrently active.

    For each link, the time to drain the total bytes crossing it at full
    capacity; the max over links bounds any schedule from below.  Used by
    the static analysis mode.
    """
    if flow_ptr.shape[0] <= 1:
        return 0.0
    flow_of_entry = np.repeat(np.arange(flow_ptr.shape[0] - 1, dtype=np.int64),
                              np.diff(flow_ptr))
    load = np.bincount(link_entries, weights=sizes[flow_of_entry],
                       minlength=capacities.shape[0])
    return float(np.max(load / capacities))
