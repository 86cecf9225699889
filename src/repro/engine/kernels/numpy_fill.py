"""Pure-NumPy fill kernels.

These functions are the allocation hot spots of
:class:`~repro.engine.active.ActiveSet`, kept behind a narrow array
contract: flat arrays in, status codes out, so the loops stay free of
``ActiveSet`` bookkeeping.  The tests pin the full pass and the warm
fill to the reference :func:`repro.engine.maxmin.allocate`
(``tests/test_active.py``) and the relevel to the full pass, bit for bit
(``tests/test_exact_batch.py``).

Contract
--------
``full_fill`` runs the progressive-filling water-level loop over the
caller-prepared link→flows CSR.  The caller has already:

* rebuilt or patched the CSR (``csr_start``/``csr_len``/``csr_flows``,
  where a ``-1`` flow id marks a tombstoned entry),
* loaded per-link occupancy into ``counts`` and reset
  ``cap_rem[act] = capacities[act]`` for the active links ``act``
  (``counts > 0``, ascending),
* reset ``levels`` to ``+inf`` on the previously saturated links,
* zeroed the first ``m`` entries of the ``frozen`` scratch (the caller
  also re-zeroes them afterwards, error or not).

The kernel mutates ``cap_rem``, ``counts``, ``levels``, ``rates`` and
``frozen`` in place, appends each saturated link id to
``level_links_out`` (caller-sized to at least ``act.shape[0]``), records
the per-iteration water-level increments and cumulative levels into
``delta_seq_out``/``level_seq_out`` (caller-sized to at least
``act.shape[0] + 1``; the raw increments are recorded separately because
differencing the cumulative levels would not reproduce them bitwise),
and returns ``(status, iterations, nsat)`` where status ``0`` is
success, ``1`` means flows were left without a bottleneck and ``2``
means the loop failed to converge — raising stays with the caller.

``warm_fill`` replays recorded water levels over the flows added since
the last allocation (``pending`` flow ids; ids whose slot is ``-1`` were
retired again before this allocation and are skipped).  It writes each
flow's rate — the minimum recorded level along its pooled route — and
returns ``False`` (caller falls back to a full pass) if any level is
non-finite or non-positive.

``relevel_fill`` resumes a recorded fill above a churn threshold — the
near-identical warm path for unweighted flow sets whose membership
changed by removals only (every admission since the last allocation was
matched by a removal with the identical route).  The caller has chosen
a threshold ``tmin`` (the lowest recorded level on any link of a
net-removed route), proved every fill iteration below it is unaffected
by the churn, and prepared:

* ``act`` — the ascending link ids that carry at least one *participant*
  (a flow whose rate — final for survivors, the recorded-level minimum
  for matched admissions — is ``>= tmin``),
* ``counts[act]`` — the per-link participant occupancy,
* ``rates`` — final rates for all non-participants (they froze below
  ``tmin`` and are left untouched),
* ``delta_seq``/``level_seq`` — the recorded sequences, of which the
  first ``k`` iterations lie strictly below ``tmin``,
* ``levels[...]`` — reset to ``+inf`` on every link the suffix may
  re-saturate, and ``frozen`` zeroed for the participant slots.

The kernel first *replays* the ``k`` prefix iterations over the ``act``
links — each link's residual capacity is reduced through the recorded
increments with occupancies reconstructed from its CSR row's flow rates
(a flow contributes to iteration ``i`` while its rate is
``>= level_seq[i]``), reproducing the exact float chain of a full pass
— then resumes the water-level loop from ``level0 = level_seq[k - 1]``
with ``remaining`` unfrozen participants.  Status ``3`` reports a
replayed link at or below its saturation floor (the caller's
eligibility proof was violated; fall back to a full pass).  Outputs
mirror ``full_fill``: the *suffix* iterations land in
``delta_seq_out``/``level_seq_out`` and the re-saturated links in
``level_links_out``, so the caller can splice the sequences and keep
resuming event after event.
"""

from __future__ import annotations

import numpy as np

from repro.engine.maxmin import _COUNT_TOL, _slices_concat


def full_fill(capacities: np.ndarray, sat_floor: np.ndarray,
              cap_rem: np.ndarray, counts: np.ndarray, levels: np.ndarray,
              csr_start: np.ndarray, csr_len: np.ndarray,
              csr_flows: np.ndarray,
              entries: np.ndarray, starts: np.ndarray, lens: np.ndarray,
              slot_arr: np.ndarray,
              rates: np.ndarray, frozen: np.ndarray, weights: np.ndarray,
              weighted: bool, m: int, act: np.ndarray,
              level_links_out: np.ndarray, delta_seq_out: np.ndarray,
              level_seq_out: np.ndarray) -> tuple[int, int, int]:
    """Progressive filling over a prepared CSR (see module docstring)."""
    level = 0.0
    remaining = m
    iterations = 0
    nsat = 0
    for _ in range(act.shape[0] + 1):
        if remaining == 0:
            return 0, iterations, nsat
        if act.shape[0] == 0:
            return 1, iterations, nsat
        iterations += 1
        cr = cap_rem[act]
        cn = counts[act]
        delta = float((cr / cn).min())
        level += delta
        delta_seq_out[iterations - 1] = delta
        level_seq_out[iterations - 1] = level
        cr = cr - delta * cn
        cap_rem[act] = cr
        sf = sat_floor[act]
        sat_local = cr <= sf
        if not sat_local.any():
            # numerically the minimum itself must have saturated
            sat_local = cr <= cr.min() + sf
        sat_links = act[sat_local]
        levels[sat_links] = level
        level_links_out[nsat:nsat + sat_links.shape[0]] = sat_links
        nsat += sat_links.shape[0]

        # freeze every unfrozen flow crossing a saturated link: the CSR
        # rows of the saturated links name exactly the candidates (as
        # flow ids; -1 marks a tombstoned entry), so no scan over the
        # live entries is needed
        if sat_links.shape[0] == 1:
            link = sat_links[0]
            cand = csr_flows[csr_start[link]:csr_start[link]
                             + csr_len[link]]
        else:
            cand = csr_flows[_slices_concat(
                csr_start[sat_links],
                csr_start[sat_links] + csr_len[sat_links])]
        cand = np.unique(cand)
        if cand.shape[0] and cand[0] < 0:
            cand = cand[1:]
        cslots = slot_arr[cand]
        new = cslots[~frozen[cslots]]
        if new.shape[0]:
            frozen[new] = True
            if not weighted:
                rates[new] = level
            else:
                rates[new] = weights[new] * level
            remaining -= new.shape[0]
            # drop the frozen flows' presence from link occupancy
            if new.shape[0] == 1:
                s = starts[new[0]]
                touched = entries[s:s + lens[new[0]]]
            else:
                touched = entries[_slices_concat(
                    starts[new], starts[new] + lens[new])]
            if not weighted:
                np.subtract.at(counts, touched, 1.0)
            else:
                np.subtract.at(counts, touched,
                               np.repeat(weights[new], lens[new]))
        keep = ~sat_local
        keep &= counts[act] > _COUNT_TOL
        act = act[keep]
    if remaining == 0:  # pragma: no cover - loop always breaks earlier
        return 0, iterations, nsat
    return 2, iterations, nsat  # pragma: no cover - filling terminates


def warm_fill(levels: np.ndarray, entries: np.ndarray, starts: np.ndarray,
              lens: np.ndarray, slot_arr: np.ndarray, pending: np.ndarray,
              rates: np.ndarray) -> bool:
    """Rate the pending flows from recorded per-link water levels.

    Vectorised over all pending flows at once (one gather plus a
    segmented minimum); a segment minimum is an exact operation, so the
    written rates are bitwise those of a per-flow ``levels[route].min()``
    loop.
    """
    slots = slot_arr[pending]
    slots = slots[slots >= 0]  # added and already retired (zero-length life)
    if slots.shape[0] == 0:
        return True
    seg_starts = starts[slots]
    seg_lens = lens[slots]
    vals = levels[entries[_slices_concat(seg_starts,
                                         seg_starts + seg_lens)]]
    offsets = np.zeros(slots.shape[0], dtype=np.int64)
    np.cumsum(seg_lens[:-1], out=offsets[1:])
    mins = np.minimum.reduceat(vals, offsets)
    if not np.isfinite(mins).all() or bool((mins <= 0.0).any()):
        return False
    rates[slots] = mins
    return True


def relevel_fill(capacities: np.ndarray, sat_floor: np.ndarray,
                 cap_rem: np.ndarray, counts: np.ndarray,
                 levels: np.ndarray,
                 csr_start: np.ndarray, csr_len: np.ndarray,
                 csr_flows: np.ndarray,
                 entries: np.ndarray, starts: np.ndarray, lens: np.ndarray,
                 slot_arr: np.ndarray,
                 rates: np.ndarray, frozen: np.ndarray,
                 act: np.ndarray, delta_seq: np.ndarray,
                 level_seq: np.ndarray, k: int, level0: float, tmin: float,
                 remaining: int, level_links_out: np.ndarray,
                 delta_seq_out: np.ndarray,
                 level_seq_out: np.ndarray) -> tuple[int, int, int]:
    """Resume a recorded fill above ``tmin`` (see module docstring)."""
    n_act = act.shape[0]
    if n_act:
        # replay the k prefix iterations over the participant-carrying
        # links: reconstruct each link's per-iteration occupancy from the
        # rates of the flows in its CSR row (a flow contributes while its
        # rate is >= the iteration's cumulative level) and push the
        # residual capacity through the recorded increments in iteration
        # order — the same float chain a full pass would produce, because
        # occupancies are integer-valued and the increments are the
        # recorded ones, not level differences
        row_len = csr_len[act]
        rows = csr_flows[_slices_concat(csr_start[act],
                                        csr_start[act] + row_len)]
        seg = np.repeat(np.arange(n_act, dtype=np.int64), row_len)
        valid = rows >= 0
        rvals = rates[slot_arr[rows[valid]]]
        segv = seg[valid]
        # difference-array build of the (link, iteration) occupancy: a
        # rate r spans iterations [0, searchsorted_right(level_seq, r))
        width = k + 1
        hi = np.searchsorted(level_seq[:k], rvals, side="right")
        occ = np.zeros(n_act * width, dtype=np.float64)
        np.add.at(occ, segv * width, 1.0)
        np.subtract.at(occ, segv * width + hi, 1.0)
        cn_mat = np.cumsum(occ.reshape(n_act, width), axis=1)
        cr = capacities[act]
        for i in range(k):
            cr = cr - delta_seq[i] * cn_mat[:, i]
        if bool((cr <= sat_floor[act]).any()):
            # a replayed link saturated inside the prefix: the caller's
            # invariance proof does not hold, take the full pass
            return 3, 0, 0
        cap_rem[act] = cr

    # resume the water-level loop on the suffix; identical arithmetic to
    # full_fill's unweighted loop, starting from the prefix's level with
    # only the participants unfrozen
    level = level0
    iterations = 0
    nsat = 0
    for _ in range(n_act + 1):
        if remaining == 0:
            return 0, iterations, nsat
        if act.shape[0] == 0:
            return 1, iterations, nsat
        iterations += 1
        cr = cap_rem[act]
        cn = counts[act]
        delta = float((cr / cn).min())
        level += delta
        delta_seq_out[iterations - 1] = delta
        level_seq_out[iterations - 1] = level
        cr = cr - delta * cn
        cap_rem[act] = cr
        sf = sat_floor[act]
        sat_local = cr <= sf
        if not sat_local.any():
            # numerically the minimum itself must have saturated
            sat_local = cr <= cr.min() + sf
        sat_links = act[sat_local]
        levels[sat_links] = level
        level_links_out[nsat:nsat + sat_links.shape[0]] = sat_links
        nsat += sat_links.shape[0]

        if sat_links.shape[0] == 1:
            link = sat_links[0]
            cand = csr_flows[csr_start[link]:csr_start[link]
                             + csr_len[link]]
        else:
            cand = csr_flows[_slices_concat(
                csr_start[sat_links],
                csr_start[sat_links] + csr_len[sat_links])]
        cand = np.unique(cand)
        if cand.shape[0] and cand[0] < 0:
            cand = cand[1:]
        cslots = slot_arr[cand]
        # flows rated below the threshold froze inside the (replayed)
        # prefix and keep those rates; the rest are this fill's
        # participants, frozen in the same ascending-id order as a full
        # pass would freeze them
        cslots = cslots[rates[cslots] >= tmin]
        new = cslots[~frozen[cslots]]
        if new.shape[0]:
            frozen[new] = True
            rates[new] = level
            remaining -= new.shape[0]
            if new.shape[0] == 1:
                s = starts[new[0]]
                touched = entries[s:s + lens[new[0]]]
            else:
                touched = entries[_slices_concat(
                    starts[new], starts[new] + lens[new])]
            np.subtract.at(counts, touched, 1.0)
        keep = ~sat_local
        keep &= counts[act] > _COUNT_TOL
        act = act[keep]
    if remaining == 0:  # pragma: no cover - loop always breaks earlier
        return 0, iterations, nsat
    return 2, iterations, nsat  # pragma: no cover - filling terminates
