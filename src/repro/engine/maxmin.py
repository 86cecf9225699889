"""Shared constants and helpers of max-min fair bandwidth allocation.

Progressive filling raises a global "water level" — every unfrozen
flow's rate — until some link saturates; flows crossing a saturated link
freeze at the current level, and the process repeats on the residual
network.  The result is the unique max-min fair allocation with equal
flow weights, which is the bandwidth-sharing model of flow-level
simulators such as INRFlow.

:class:`~repro.engine.active.ActiveSet` is the one allocator in the
package; its fill kernel (:mod:`repro.engine.kernels.numpy_fill`) uses
the saturation and emptiness tolerances defined here.  The from-scratch
reference it is tested against lives in ``tests/oracle.py``.  This module
also keeps the index-range helper the engine shares and the static
analyzer's completion-time lower bound.
"""

from __future__ import annotations

import numpy as np

#: Relative capacity slack below which a link counts as saturated.
_SAT_TOL = 1e-12

#: Weight-sum residue below which a link counts as empty (float subtraction
#: of weights can leave ~1e-16 residues where integer counts left exact 0).
_COUNT_TOL = 1e-9


def _slices_concat(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Concatenate index ranges [starts[i], stops[i]) into one index array.

    Ranges must not have negative length; empty ones contribute nothing.
    """
    if starts.shape[0] == 1:
        return np.arange(starts[0], stops[0], dtype=np.int64)
    lengths = stops - starts
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.shape[0] else 0
    # entry j of range i is j + (stops[i] - ends[i])
    return np.repeat(stops - ends, lengths) + np.arange(total, dtype=np.int64)


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
