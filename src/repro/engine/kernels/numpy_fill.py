"""Pure-NumPy fill kernels.

These functions are the allocation hot spots of
:class:`~repro.engine.active.ActiveSet`, kept behind a narrow array
contract: flat arrays in, status codes out, so the loops stay free of
``ActiveSet`` bookkeeping.  The tests pin the full pass to the reference
allocator kept in ``tests/oracle.py`` (``tests/test_active.py``) and the
relevel to the full pass, bit for bit (``tests/test_exact_batch.py``).

Contract
--------
``fill`` runs the progressive-filling water-level loop of the reference
allocator — the same float operations on the same values, so the same
bits — over the caller-prepared link→flows
CSR.  The full pass and the relevel share it.  The caller has already:

* rebuilt or patched the CSR (``csr_start``/``csr_len``/``csr_flows``,
  where a ``-1`` flow id marks a tombstoned entry),
* chosen the live links ``act`` (ascending, every one with a positive
  occupancy) and loaded, on them, ``cap_rem`` (the residual capacity)
  and ``counts`` (the unfrozen flows' count or weight) as of the fill's
  first iteration,
* marked in ``frozen`` every slot that must keep its rate (all ``False``
  for a full pass) and counted the others in ``remaining``; the caller
  re-zeroes ``frozen`` afterwards, error or not,
* reset ``levels`` to ``+inf`` wherever this fill may saturate a link.

``level0`` is the water level the loop starts from (``0.0`` for a full
pass).  ``hint`` is the caller's guess at the fill's iteration count:
the count of its previous full pass.  The kernel mutates ``cap_rem``,
``counts``, ``levels``, ``rates``, ``frozen`` and ``freeze_iter`` in
place (``freeze_iter`` must be ``-1`` on the slots the caller froze),
appends each saturated link id to ``level_links_out`` (caller-sized to
at least ``act.shape[0]``), records each iteration's water-level
increment and cumulative level in ``delta_out``/``level_out``
(caller-sized to at least ``act.shape[0] + 1``; the raw increments are
kept because differencing the levels would not reproduce them bitwise)
and returns ``(status, iterations, nsat, rounds)``: status ``0`` is
success and ``1`` means flows were left without a bottleneck (raising
stays with the caller).  ``iterations`` counts water levels and
``rounds`` the passes of the loop that resolved them — windowed rounds
and single steps.

Deferred residuals
------------------
The reference iteration lowers the residual capacity of *every* live
link by ``delta * count``, rescans them all for the minimum share and
freezes the flows of the saturated links: some fifteen NumPy calls over
all live links plus a dozen small ones, per iteration.  ``fill`` keeps
that arithmetic but runs it on a *window* of the links that can
saturate next, defers it on the rest, and freezes flows a round of
iterations at a time:

* A deferred link stores its residual as of iteration ``tau``; its
  count is kept current.  Its residual at a later iteration is the
  same chain of subtractions replayed from the recorded increments,
  the count stepping down after each iteration one of its flows froze
  in (:func:`replay`, one ``np.subtract.accumulate`` down the
  iterations for many links at once) — computed only when the link
  enters a window.
* ``key`` is a lower bound on the level at which a deferred link can
  next be the minimum share or pass the saturation test: its estimated
  saturation level ``unclaimed / count`` (``unclaimed`` is the capacity
  its frozen flows have not claimed, the closed form of the same
  arithmetic), less the tie band ``_SAT_TOL * cap / count`` and a
  margin for the rounding of the chain, of the level sum and of the
  estimate over as many iterations as the fill can run.  A flow frozen
  at level ``L`` takes ``L`` of the unclaimed capacity and one of the
  count, which only raises the saturation level, so keys updated that
  way stay lower bounds.
* A round takes the links with the ``K`` lowest keys as its window,
  replays them to the current iteration and runs the reference
  iterations on the window alone for as long as the water level stays
  below the lowest key outside it.  There no deferred link can be the
  minimum or saturate, so every committed iteration is the reference's.
  Inside the round frozen flows lower only the window's counts, through
  a window-local incidence built once; at its end the round's flows are
  written back in one batch, and the deferred links they cross take
  their count and unclaimed-capacity updates — without a replay.  Links that empty leave the live set, never replayed.
* A *step* is one reference iteration over every live link, or, once
  residuals are deferred, over a set of current links below whose
  levels no deferred link can matter.  Weighted sets, fills over at
  most ``_ALL_LINKS`` live links and fills expected to take fewer than
  ``_MIN_ITERATIONS`` iterations (the caller's previous full pass did)
  only step; other fills start with a step and turn to rounds once one
  saturates fewer than one in ``_SPREAD`` of the live links (a tie
  saturating most links at once is one cheap step).  A round whose
  incidence would exceed ``_DENSE_CELLS`` steps over its window
  instead, and a tie wider than ``_MAX_WINDOW`` steps over every link
  the level reaches.

``K`` is internal and adaptive.  A round that cannot commit an
iteration (the window misses the next saturation) keeps the keys it
refreshed and retries; with nothing refreshed — a tie wider than the
window — ``K`` grows to cover every key the window's level reaches.  A
round that runs its window dry doubles ``K`` (up to ``_MAX_WINDOW``),
and one that uses under a quarter of it halves it.

``replay`` is also the relevel's prefix: it rebuilds the residuals of
the participant links at the resume point from the previous fill's
recorded increments, their counts stepping down as the flows rated
below the threshold froze.
"""

from __future__ import annotations

import numpy as np

from repro.engine.maxmin import _COUNT_TOL, _SAT_TOL, _slices_concat

#: Initial window of a round, in links.
_WINDOW = 64

#: Largest window a round that ran dry grows to, in links.
_MAX_WINDOW = 1024

#: Live links up to which a fill only steps.
_ALL_LINKS = 1024

#: A step that saturates fewer than one in this many live links turns
#: the fill to windowed rounds.
_SPREAD = 16

#: Rounds pay only when a fill takes at least this many iterations: a
#: round's fixed cost is that of several steps.
_MIN_ITERATIONS = 32

#: Largest window-by-flows incidence a round holds (as two boolean
#: matrices); a larger one falls back to a step.
_DENSE_CELLS = 1 << 20

#: Largest (iterations x links) array a replay builds at once.
_REPLAY_CELLS = 1 << 16

#: Unit roundoff of float64.
_U = 2.0 ** -53

_min = np.minimum.reduce


def _nz(mask: np.ndarray) -> np.ndarray:
    """``np.flatnonzero`` of a 1-d mask, without its wrapper overhead."""
    return mask.nonzero()[0]


def level_step(cr: np.ndarray, cn: np.ndarray, level: float,
               sat_floor: np.ndarray
               ) -> tuple[float, float, np.ndarray, np.ndarray]:
    """One water level of the reference loop over some current links.

    ``cr``/``cn`` are the links' residual capacities and unfrozen
    counts, ``level`` the water level so far.  Returns the increment
    (the lowest share), the new level, the residuals after it and the
    mask of the links it saturates: those left at most their
    ``sat_floor``.  The fill's steps and the full pass's first-level
    exit (:meth:`~repro.engine.active.ActiveSet._first_level_fill`)
    both take their levels from here.
    """
    delta = float(_min(cr / cn))
    cr = cr - delta * cn
    return delta, level + delta, cr, cr <= sat_floor


def replay(cap_rem: np.ndarray, counts: np.ndarray, tau: np.ndarray,
           t_end: int, deltas: np.ndarray, touch_row: np.ndarray,
           touch_iter: np.ndarray) -> np.ndarray:
    """Residual capacities at iteration ``t_end`` of deferred links.

    Link ``i`` holds residual ``cap_rem[i]`` as of iteration ``tau[i]``
    with ``counts[i]`` unfrozen flows.  Each pair
    ``(touch_row[j], touch_iter[j])`` freezes one of link
    ``touch_row[j]``'s flows in that iteration, so its count drops by one
    from the next iteration on.  The chain ``cr = cr - deltas[t] * count``
    runs down the iterations (``np.subtract.accumulate``, all links at
    once; before a link's ``tau`` it subtracts ``0.0``): the float
    operations of the reference loop.
    """
    base = int(tau.min()) if tau.shape[0] else t_end
    width = t_end - base
    if width <= 0:
        return cap_rem.copy()
    # row j of the count steps is iteration base + j: a link's count
    # switches on at its tau and drops after each touch (exact integers)
    links = counts.shape[0]
    step = np.zeros((width + 1, links), dtype=np.float64)
    step[tau - base, np.arange(links)] = counts
    if touch_row.shape[0]:
        np.subtract.at(step, (touch_iter - base + 1, touch_row), 1.0)
    chain = np.empty((width + 1, links), dtype=np.float64)
    chain[0] = cap_rem
    np.multiply(deltas[base:t_end, None],
                np.cumsum(step[:width], axis=0), out=chain[1:])
    return np.subtract.accumulate(chain, axis=0)[width]


def _rows(links: np.ndarray, csr_start: np.ndarray, csr_len: np.ndarray,
          csr_flows: np.ndarray,
          slot_arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The CSR rows of ``links``: the flows' slots and their row numbers
    (tombstones dropped)."""
    row_len = csr_len[links]
    fids = csr_flows[_slices_concat(csr_start[links],
                                    csr_start[links] + row_len)]
    row = np.repeat(np.arange(links.shape[0], dtype=np.int64), row_len)
    ok = fids >= 0
    return slot_arr[fids[ok]], row[ok]


def _sync(links: np.ndarray, slots: np.ndarray, row: np.ndarray, it: int,
          cap_rem: np.ndarray, counts: np.ndarray, tau: np.ndarray,
          frozen: np.ndarray, freeze_iter: np.ndarray,
          deltas: np.ndarray) -> bool:
    """Replay the deferred ``links`` to iteration ``it`` in place.

    ``slots``/``row`` are the links' CSR rows (see :func:`_rows`) and
    ``counts`` are current: a link's flows frozen since its ``tau`` step
    its count down in the replay.  Returns whether any link was behind.
    """
    ltau = tau[links]
    if not (ltau < it).any():
        return False
    fi = freeze_iter[slots]
    gone = frozen[slots] & (fi >= ltau[row])
    trow = row[gone]
    tit = fi[gone]
    base = counts[links] + np.bincount(trow, minlength=links.shape[0])
    # replay in chunks of links, so the (iterations x links) work arrays
    # stay within _REPLAY_CELLS
    n = links.shape[0]
    chunk = max(1, _REPLAY_CELLS // (it - int(ltau.min()) + 1))
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        mine = (trow >= lo) & (trow < hi)
        cap_rem[links[lo:hi]] = replay(
            cap_rem[links[lo:hi]], base[lo:hi], ltau[lo:hi], it, deltas,
            trow[mine] - lo, tit[mine])
    tau[links] = it
    return True


def _key(unclaimed: np.ndarray, counts: np.ndarray, caps: np.ndarray,
         margin: float) -> np.ndarray:
    """Lower bounds on the level at which deferred links next matter.

    ``unclaimed / counts`` estimates the level at which a link's residual
    runs out; the bound takes off the tie band and the rounding margin.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        key = (unclaimed / counts) * (1.0 - margin) \
            - (_SAT_TOL + margin) * (caps / counts)
    key[counts <= _COUNT_TOL] = np.inf
    return key


def fill(capacities: np.ndarray, sat_floor: np.ndarray,
         cap_rem: np.ndarray, counts: np.ndarray, levels: np.ndarray,
         csr_start: np.ndarray, csr_len: np.ndarray, csr_flows: np.ndarray,
         entries: np.ndarray, starts: np.ndarray, lens: np.ndarray,
         slot_arr: np.ndarray, rates: np.ndarray, frozen: np.ndarray,
         freeze_iter: np.ndarray, weights: np.ndarray, weighted: bool,
         remaining: int, act: np.ndarray, level0: float,
         level_links_out: np.ndarray, delta_out: np.ndarray,
         level_out: np.ndarray, hint: int) -> tuple[int, int, int, int]:
    """Progressive filling over a prepared CSR (see module docstring)."""
    level = level0
    # rounding margin of the keys: the chain and the level sum round
    # once per iteration (at most one per live link), the unclaimed
    # capacity once per frozen flow; the factor covers the divisions
    margin = 8.0 * _U * (act.shape[0] + remaining + 8)
    # weighted sets, small fills and short ones only step
    steps_only = weighted or act.shape[0] <= _ALL_LINKS \
        or hint < _MIN_ITERATIONS
    # deferred-residual state, per link, once the fill turns to rounds:
    # the iteration each residual is current as of, the capacity frozen
    # flows have not claimed, the key, and an all-False scratch mask
    windowed = False
    tau = unclaimed = key = mark = None
    live = act
    win = act
    dead = 0  # live entries whose key is already +inf
    scratch = None  # per-slot positions, for deduplicating unweighted freezes
    it = nsat = rounds = 0
    window = _WINDOW
    with np.errstate(divide="ignore", invalid="ignore"):
        while remaining:
            if windowed:
                if dead * 2 > live.shape[0]:
                    live = live[key[live] < np.inf]
                    dead = 0
                if live.shape[0] > window:
                    kl = key[live]
                    part = np.argpartition(kl, window)
                    win = live[part[:window]]
                    key_out = float(kl[part[window]])
                    if key_out == np.inf:  # fewer live links than that
                        win = win[key[win] < np.inf]
                else:
                    win = live[key[live] < np.inf]
                    key_out = np.inf
                slots, row = _rows(win, csr_start, csr_len, csr_flows,
                                   slot_arr)
                stale = _sync(win, slots, row, it, cap_rem, counts, tau,
                              frozen, freeze_iter, delta_out)
                cr = cap_rem[win]
                cn = counts[win]
                if stale:
                    u = cr + cn * level
                    unclaimed[win] = u
                    key[win] = _key(u, cn, capacities[win], margin)
                delta = float(_min(cr / cn)) if win.shape[0] else np.inf
                if key_out == np.inf:
                    pass  # every live link is in the window: step
                elif not level + delta < key_out:
                    if stale:
                        # the window misses the next saturation: its
                        # refreshed keys move it
                        continue
                    # a tie wider than the window: widen the window to
                    # every key the level reaches, or step over them all
                    # (every other key lies above the level)
                    tie = kl <= level + delta
                    ties = int(np.count_nonzero(tie))
                    if 2 * ties <= _MAX_WINDOW:
                        window = max(2 * window, 2 * ties)
                        continue
                    win = live[tie]
                    _sync(win, *_rows(win, csr_start, csr_len, csr_flows,
                                      slot_arr), it, cap_rem, counts, tau,
                          frozen, freeze_iter, delta_out)
                else:
                    out = _round(
                        win, slots, row, key_out, cr, cn, delta, level, it,
                        margin, capacities, sat_floor, cap_rem, counts, tau,
                        unclaimed, key, mark, levels, entries, starts, lens,
                        rates, frozen, freeze_iter, delta_out, level_out,
                        level_links_out, nsat)
                    if out is not None:
                        rounds += 1
                        level, it, nsat, frozen_n, gone, left = out
                        remaining -= frozen_n
                        dead += gone
                        if left == 0:
                            # ran dry: the next round may go further
                            window = min(2 * window, _MAX_WINDOW)
                        elif 4 * (window - left) < window \
                                and window > _WINDOW:
                            window //= 2
                        continue
                    # its incidence is too large to hold: step over it

            # a step: one reference iteration over ``win`` — every live
            # link, or in windowed mode a set of current links below whose
            # levels no deferred link can be the minimum or saturate
            if win.shape[0] == 0:
                return 1, it, nsat, rounds
            rounds += 1
            delta, level, cr, sat_local = level_step(
                cap_rem[win], counts[win], level, sat_floor[win])
            delta_out[it] = delta
            level_out[it] = level
            cap_rem[win] = cr
            sat_links = win[sat_local]
            levels[sat_links] = level
            level_links_out[nsat:nsat + sat_links.shape[0]] = sat_links
            nsat += sat_links.shape[0]
            # freeze every unfrozen flow crossing a saturated link: in
            # ascending flow id for weighted sets (the reference's order,
            # on which their count drops depend); unweighted ones apply
            # one rate, exact unit count drops and one deferred charge,
            # which no order changes
            if sat_links.shape[0] == 1:
                # one link lists a flow at most once (routes are simple
                # paths): only its tombstones go
                link = sat_links[0]
                cand = csr_flows[csr_start[link]:csr_start[link]
                                 + csr_len[link]]
                cand = cand[cand >= 0]
                if weighted:
                    cand = np.sort(cand)
                cslots = slot_arr[cand]
            elif weighted:
                cand = np.unique(csr_flows[_slices_concat(
                    csr_start[sat_links],
                    csr_start[sat_links] + csr_len[sat_links])])
                if cand.shape[0] and cand[0] < 0:
                    cand = cand[1:]
                cslots = slot_arr[cand]
            else:
                # a flow on several saturated links: keep the one entry
                # whose position its slot reads back
                cand = csr_flows[_slices_concat(
                    csr_start[sat_links],
                    csr_start[sat_links] + csr_len[sat_links])]
                cslots = slot_arr[cand[cand >= 0]]
                if scratch is None:
                    scratch = np.empty(frozen.shape[0], dtype=np.int64)
                at = np.arange(cslots.shape[0])
                scratch[cslots] = at
                cslots = cslots[scratch[cslots] == at]
            new = cslots[~frozen[cslots]]
            touched = None
            if new.shape[0]:
                frozen[new] = True
                if not steps_only:
                    freeze_iter[new] = it
                rates[new] = level if not weighted \
                    else weights[new] * level
                remaining -= new.shape[0]
                if new.shape[0] == 1:
                    first = starts[new[0]]
                    touched = entries[first:first + lens[new[0]]]
                else:
                    touched = entries[_slices_concat(
                        starts[new], starts[new] + lens[new])]
                np.subtract.at(counts, touched, 1.0 if not weighted
                               else np.repeat(weights[new], lens[new]))
            keep = ~sat_local & (counts[win] > _COUNT_TOL)
            it += 1
            if windowed:
                # the step's links are current; the deferred links its
                # flows cross lose the frozen rate from their unclaimed
                # capacity (their counts already dropped)
                wl = win[keep]
                tau[wl] = it
                u = cap_rem[wl] + counts[wl] * level
                unclaimed[wl] = u
                key[wl] = _key(u, counts[wl], capacities[wl], margin)
                gone = win[~keep]
                key[gone] = np.inf
                dead += gone.shape[0]
                if touched is not None:
                    dead += _touch_deferred(touched, level, win, mark,
                                            unclaimed, counts, key,
                                            capacities, margin, False)
                continue
            live = win = live[keep]
            if steps_only or not remaining \
                    or _SPREAD * sat_links.shape[0] >= live.shape[0]:
                continue
            # deferred residuals from here on: every live link is current
            windowed = True
            tau = np.empty(capacities.shape[0], dtype=np.int64)
            unclaimed = np.empty(capacities.shape[0], dtype=np.float64)
            key = np.empty(capacities.shape[0], dtype=np.float64)
            mark = np.zeros(capacities.shape[0], dtype=bool)
            tau[live] = it
            u = cap_rem[live] + counts[live] * level
            unclaimed[live] = u
            key[live] = _key(u, counts[live], capacities[live], margin)
    return 0, it, nsat, rounds


def _touch_deferred(hit: np.ndarray, hit_level, win: np.ndarray,
                    mark: np.ndarray, unclaimed: np.ndarray,
                    counts: np.ndarray, key: np.ndarray,
                    capacities: np.ndarray, margin: float,
                    drop: bool) -> int:
    """Charge frozen flows to the deferred links they cross.

    ``hit`` are the route entries of flows frozen at levels ``hit_level``
    (one per entry, or one for all); entries on ``win`` links are
    skipped.  A flow frozen at level ``L`` stops drawing on the link and
    takes ``L`` of its unclaimed capacity with it (the closed form of the
    reference arithmetic); with ``drop`` it also leaves the link's count.
    Keys follow; returns how many links emptied.
    """
    mark[win] = True
    out = ~mark[hit]
    mark[win] = False
    hit = hit[out]
    if hit.shape[0] == 0:
        return 0
    np.subtract.at(unclaimed, hit,
                   hit_level if np.ndim(hit_level) == 0 else hit_level[out])
    if drop:
        np.subtract.at(counts, hit, 1.0)
    k = _key(unclaimed[hit], counts[hit], capacities[hit], margin)
    key[hit] = k
    return int(np.count_nonzero(k == np.inf))


def _round(win, slots, row, key_out, cr, cn, delta, level, it,
           margin, capacities, sat_floor, cap_rem, counts, tau, unclaimed,
           key, mark, levels, entries, starts, lens, rates, frozen,
           freeze_iter, delta_out, level_out, level_links_out, nsat):
    """Run the reference iterations on a window (unweighted flows).

    ``slots``/``row`` are the window's CSR rows (see
    :func:`_rows`), ``cr``/``cn`` its residuals and counts at iteration
    ``it``, ``delta`` its first increment, already known to keep the
    level below ``key_out``.  Returns ``None`` (nothing written) when
    the window's incidence is too large to hold densely, else
    ``(level, it, nsat, frozen, gone, left)``: the state after the
    round, the flows it froze, the live links it retired and the window
    links still live.
    """
    nw = win.shape[0]
    unf = ~frozen[slots]
    fslot, wf = np.unique(slots[unf], return_inverse=True)
    nf = fslot.shape[0]
    if nw * nf > _DENSE_CELLS:
        return None
    # window-local incidence with the unfrozen flows, by link and by
    # flow (a frozen flow's row is its count drop)
    wrow = row[unf]
    inc = np.zeros((nw, nf), dtype=bool)
    inc[wrow, wf] = True
    inc_t = np.zeros((nf, nw), dtype=bool)
    inc_t[wf, wrow] = True
    sf = sat_floor[win]
    todo = np.ones(nf, dtype=bool)
    fiter = np.empty(nf, dtype=np.int64)
    sat_idx: list[np.ndarray] = []
    it0 = it

    # the reference iterations, on the window alone: below key_out no
    # deferred link can be the minimum or saturate.  A link leaves by
    # saturating (residual +inf) or emptying (count 0); either way its
    # share is +inf from then on
    while True:
        level += delta
        delta_out[it] = delta
        level_out[it] = level
        cr = cr - delta * cn
        # the minimum-share link always passes the test: its new residual
        # is a rounding error of its old one
        sat = (cr <= sf).nonzero()[0]
        sat_idx.append(sat)
        cr[sat] = np.inf
        new = ((inc[sat[0]] if sat.shape[0] == 1
                else inc[sat].any(axis=0)) & todo).nonzero()[0]
        if new.shape[0]:
            todo[new] = False
            fiter[new] = it
            cn = cn - (inc_t[new[0]] if new.shape[0] == 1
                       else inc_t[new].sum(axis=0))
        it += 1
        delta = float(_min(cr / cn))
        if not level + delta < key_out:
            break

    # saturated links record their level
    sat = np.concatenate(sat_idx)
    sat_iter = np.repeat(np.arange(it0, it, dtype=np.int64),
                         [s.shape[0] for s in sat_idx])
    sat_links = win[sat]
    levels[sat_links] = level_out[sat_iter]
    level_links_out[nsat:nsat + sat.shape[0]] = sat_links
    nsat += sat.shape[0]

    # the round's frozen flows, written back in one batch
    fz = _nz(~todo)
    zslot = fslot[fz]
    ziter = fiter[fz]
    rates[zslot] = level_out[ziter]
    frozen[zslot] = True
    freeze_iter[zslot] = ziter

    # the window's survivors are current as of iteration ``it``
    alive = (cr < np.inf) & (cn > _COUNT_TOL)
    keep = _nz(alive)
    wl = win[keep]
    cap_rem[wl] = cr[keep]
    counts[wl] = cn[keep]
    tau[wl] = it
    u = cr[keep] + cn[keep] * level
    unclaimed[wl] = u
    key[wl] = _key(u, cn[keep], capacities[wl], margin)
    gone = win[~alive]
    key[gone] = np.inf
    dead = gone.shape[0]

    # the deferred links the frozen flows cross
    if fz.shape[0]:
        zs = starts[zslot]
        zlen = lens[zslot]
        dead += _touch_deferred(entries[_slices_concat(zs, zs + zlen)],
                                np.repeat(level_out[ziter], zlen), win,
                                mark, unclaimed, counts, key, capacities,
                                margin, True)
    return level, it, nsat, fz.shape[0], dead, keep.shape[0]
