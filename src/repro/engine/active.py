"""Persistent active-flow set with incremental max-min allocation.

The reference allocator (``tests/oracle.py``'s ``allocate``) is handed a
freshly concatenated CSR of every active route and recomputes
progressive filling from zero state.  That is robust but makes every
event cost O(total active route length · log) even when a single flow
finished — the dominant cost of the ``"exact"`` fidelity.

:class:`ActiveSet` keeps the flow→link incidence alive *across* events:

* **Slot-packed bookkeeping** — active flows occupy slots ``0..m-1``;
  removal swaps the last slot in, so the flow-id and rate vectors the
  event loop reads are always dense views, with no per-event Python list
  rebuilds.  Adding or removing a flow costs O(route length).
* **Pooled entries buffer** — each flow's route is copied once into a
  shared link-id pool on admission and reused by every later allocation;
  dead segments are reclaimed by occasional O(live) compaction, so there
  is no per-event ``np.concatenate`` over a Python list.  The set keeps
  link ids only, never the caller's route arrays.
* **Persistent link→flows CSR** — progressive filling freezes flows
  through a CSR that lives *across* events: small membership batches
  patch it in place (removals tombstone their entries, admissions append
  into per-link slack regions, per-link occupancy is maintained
  alongside), so a steady-churn pass skips the O(nnz) gather/sort setup
  entirely; bulk churn falls back to one vectorised tight rebuild (one
  sort of ``link << b | position`` words).  Each saturated link then
  freezes exactly its own flows, so freeze work per pass is O(total
  route length) regardless of the water-level iteration count.
* **First-level exit** — an unweighted full pass with bulk churn first
  takes the fill's first water level from per-link counts alone
  (:func:`~repro.engine.kernels.numpy_fill.level_step`).  When every
  flow crosses a link that saturates there, the fill would stop at that
  level: the pass writes exactly what it would have written and builds
  no CSR.  Otherwise it rebuilds and fills as above.  Every
  Figure-4 allreduce allocation ends this way.
* **Deferred residuals** — the water-level loop
  (:func:`~repro.engine.kernels.numpy_fill.fill`) runs each iteration
  on a small window of the links that can saturate next and defers the
  residual updates of all others, replaying them from the recorded
  increments only when they enter a window; rounds of iterations
  freeze their flows in one batch.  The per-link arithmetic is
  element-for-element the reference's, so the resulting rates are
  identical (bitwise for unweighted flows and integer weights, to float
  tolerance for other weighted ones).
* **Suffix-resumed relevels** — a fill records the water level at which
  every link saturated and its per-iteration increments.  When flows
  were only *removed* since the last allocation (the exact-fidelity
  completion batch with no release), water levels can only rise, and
  no fill iteration strictly below ``tmin`` — the lowest recorded level
  on any link of a removed flow, read from its pooled entries, which
  stay in place until the next admission — can change.  So the recorded
  increments are *replayed* over the links of the flows rated at or
  above ``tmin`` (:func:`~repro.engine.kernels.numpy_fill.replay`, the
  same routine that brings deferred links up to date inside a fill) and
  the same water-level loop resumes at ``tmin`` with only those flows
  taking part.  Rates, levels and the spliced sequences are bitwise
  those of a full pass, so consecutive completion batches keep resuming
  one another.  Any admission since the last allocation, or any
  violated precondition (weighted set, stale CSR, non-increasing
  recorded levels, replay work rivalling a full pass), takes the full
  pass.  Setting :attr:`ActiveSet.RELEVEL` to ``False`` (on the class or
  one instance) disables the path; tests use it as the full-pass oracle.

The relevel is exact, not approximate: it reproduces the float values a
full pass would produce, so ``"exact"``-fidelity makespans are
unchanged.  Weighted flow sets always take the full pass.
"""

from __future__ import annotations

import numpy as np

from repro.engine.kernels import numpy_fill
from repro.engine.maxmin import _SAT_TOL, _slices_concat
from repro.errors import SimulationError

#: Initial slot capacity (grown geometrically).
_MIN_SLOTS = 64

#: Initial pooled-entries capacity (grown geometrically).
_MIN_ENTRIES = 1024

#: Dead entries tolerated in the pool before a gather triggers compaction.
_COMPACT_SLACK = 4096

#: Membership batches larger than max(this, m/8) skip in-place CSR
#: patching and schedule a vectorised rebuild instead — per-flow patch
#: work only pays off when the batch is small next to the active set.
_PATCH_MAX = 64


def _packed_order(keys: np.ndarray, num_keys: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` by one sort of
    ``key << b | position`` words.

    ``keys`` are int64 in ``[0, num_keys)``.  The words are distinct, so
    any sort orders them alike, and equal keys keep their positions'
    order.  The words must fit in 63 bits.  The order is computed in the
    words' buffer, so the sort holds one array besides ``keys``.
    """
    shift = max(keys.shape[0] - 1, 0).bit_length()
    assert (max(num_keys - 1, 0).bit_length() + shift) <= 63, \
        "packed sort words overflow 63 bits"
    words = keys << shift
    words |= np.arange(keys.shape[0], dtype=np.int64)
    words.sort()
    words &= (1 << shift) - 1
    return words


class ActiveSet:
    """Incidence, occupancy and rates of the currently active flows.

    One instance serves one simulation run; ``capacities`` is the global
    per-link capacity vector (bits/s) of the topology's link table.
    """

    #: Whether allocations may take the suffix-resumed relevel (see the
    #: module docstring).  A test hook: ``False`` forces the full pass the
    #: relevel must reproduce bitwise.
    RELEVEL = True

    def __init__(self, capacities: np.ndarray, *,
                 weighted: bool = False,
                 track_occupancy: bool = False) -> None:
        self.capacities = np.asarray(capacities, dtype=np.float64)
        num_links = self.capacities.shape[0]
        self._weighted = bool(weighted)
        #: Per-link live-flow counts, maintained across add/remove when
        #: ``track_occupancy`` is set (the adaptive routing policy reads
        #: this to score candidate routes); ``None`` otherwise, so the
        #: default engine pays nothing for it.
        self.occupancy: np.ndarray | None = (
            np.zeros(num_links, dtype=np.int64) if track_occupancy else None)
        self._caps_all_positive = bool((self.capacities > 0).all()) \
            if num_links else True

        # slot-packed per-flow state (slot i valid for i < _m)
        self._flow_ids = np.full(_MIN_SLOTS, -1, dtype=np.int64)
        self._rates = np.zeros(_MIN_SLOTS, dtype=np.float64)
        self._weights = np.ones(_MIN_SLOTS, dtype=np.float64)
        self._starts = np.zeros(_MIN_SLOTS, dtype=np.int64)
        self._lens = np.zeros(_MIN_SLOTS, dtype=np.int64)
        # admission sequence numbers: slot order is not admission order
        # once a removal moves a tail slot down
        self._arrival = np.zeros(_MIN_SLOTS, dtype=np.int64)
        self._next_arrival = 0
        self._slot_flag = np.zeros(_MIN_SLOTS, dtype=bool)
        # iteration each flow froze in during the current fill (-1 = not
        # in this fill), fill-kernel scratch
        self._freeze_iter = np.zeros(_MIN_SLOTS, dtype=np.int64)
        # flow id -> slot (-1 = inactive); grown to the largest id seen,
        # so batch membership updates are single vectorised gathers
        self._slot_arr = np.full(_MIN_SLOTS, -1, dtype=np.int64)
        self._m = 0

        # pooled route entries (flow i owns _entries[start:start+len])
        self._entries = np.empty(_MIN_ENTRIES, dtype=np.int64)
        self._tail = 0
        self._live_nnz = 0

        # reusable per-link scratch (allocated once per simulation)
        self._cap_rem = np.empty(num_links, dtype=np.float64)
        self._counts = np.zeros(num_links, dtype=np.float64)
        self._sat_floor = self.capacities * _SAT_TOL
        # iterations of the last full pass (before the first, their bound:
        # one per link): the kernel's guess at whether the next fill pays
        # for windowed rounds
        self._fill_iterations = num_links

        # persistent link→flows CSR (flow *ids*, slack regions per link),
        # patched in place across events: removals tombstone (-1) their
        # entries, admissions append into their links' slack, and per-link
        # occupancy is maintained alongside.  A full vectorised rebuild
        # happens on the next pass whenever the structure is invalidated
        # (large batch, region overflow, pool compaction) or tombstones
        # accumulate; weighted sets always rebuild (occupancy depends on
        # weights).
        self._csr_flows = np.empty(0, dtype=np.int64)
        self._csr_start = np.zeros(num_links, dtype=np.int64)
        self._csr_len = np.zeros(num_links, dtype=np.int64)
        self._csr_cap = np.zeros(num_links, dtype=np.int64)
        self._pos_in_csr = np.empty(_MIN_ENTRIES, dtype=np.int64)
        self._counts_base = np.zeros(num_links, dtype=np.float64)
        self._csr_ok = False
        self._csr_dead = 0
        # adds+removes since the last allocation: a rebuild only pays for
        # slack regions and the back-map when recent churn was small
        # enough that patching can keep the structure alive
        self._churn_units = 0

        # relevel state: water level at which each link saturated in the
        # last fill (+inf = never), and the links that were set (the mask
        # mirrors _level_links for O(batch) membership tests)
        self._levels = np.full(num_links, np.inf, dtype=np.float64)
        self._level_links = np.empty(0, dtype=np.int64)
        self._level_mask = np.zeros(num_links, dtype=bool)
        self._level_buf = np.empty(0, dtype=np.int64)

        # recorded per-iteration water-level increments and cumulative
        # levels of the last fill (full pass, or spliced by a relevel);
        # _seq_ok certifies the levels strictly increase, which the
        # relevel's threshold search and occupancy replay both rely on
        self._delta_seq = np.empty(0, dtype=np.float64)
        self._level_seq = np.empty(0, dtype=np.float64)
        self._seq_ok = False
        self._seq_buf_d = np.empty(0, dtype=np.float64)
        self._seq_buf_l = np.empty(0, dtype=np.float64)

        # membership churn since the last allocation: whether any flow
        # was admitted, and the pool segments of the removed flows (the
        # relevel's dirty links; only an admission can move the pool)
        self._admitted = False
        self._gone_starts: list[int] = []
        self._gone_lens: list[int] = []

        #: Allocation counters (read by benchmarks and tests).
        #: ``warm_fills`` is always 0; it stays for the readers of
        #: ``allocator_stats``.
        self.full_passes = 0
        self.warm_fills = 0
        self.relevel_fills = 0
        #: Rounds of the water-level loop (one window of iterations each,
        #: see :mod:`repro.engine.kernels.numpy_fill`) over all full
        #: passes and relevels; iterations per round is the batching.
        self.fill_rounds = 0

    # ---------------------------------------------------------------- views
    @property
    def size(self) -> int:
        """Number of active flows."""
        return self._m

    @property
    def flow_ids(self) -> np.ndarray:
        """Dense flow-id vector (view; invalidated by add/remove)."""
        return self._flow_ids[:self._m]

    @property
    def rates(self) -> np.ndarray:
        """Per-flow rates aligned with :attr:`flow_ids` (view)."""
        return self._rates[:self._m]

    @property
    def weights(self) -> np.ndarray:
        """Per-flow bandwidth weights aligned with :attr:`flow_ids`."""
        return self._weights[:self._m]

    @property
    def arrivals(self) -> np.ndarray:
        """Per-flow admission sequence numbers aligned with
        :attr:`flow_ids` (view): ascending in the order the flows were
        admitted, whatever their slots."""
        return self._arrival[:self._m]

    def route_entries(self) -> tuple[np.ndarray, np.ndarray]:
        """Every active route's link ids, gathered from the pool and
        concatenated in slot order, and the per-flow route lengths
        (a view, invalidated by add/remove)."""
        m = self._m
        starts = self._starts[:m]
        lens = self._lens[:m]
        return self._entries[_slices_concat(starts, starts + lens)], lens

    # ----------------------------------------------------------- membership
    def add(self, fid: int, route: np.ndarray, *, rate: float = 0.0,
            weight: float = 1.0) -> None:
        """Admit flow ``fid`` with the given route (O(route length)).

        ``rate`` seeds the flow's current rate (approx-mode inheritance);
        it is overwritten by the next allocation.
        """
        length = route.shape[0]
        if length == 0:
            raise SimulationError(
                f"flow {fid} has an empty route; zero-hop flows never "
                "enter the active set")
        self._ensure_slot_arr(fid)
        if self._slot_arr[fid] >= 0:
            raise SimulationError(f"flow {fid} is already active")
        if weight <= 0:
            raise SimulationError("flow weights must be strictly positive")
        slot = self._m
        if slot == self._flow_ids.shape[0]:
            self._grow_slots()
        if self._tail + length > self._entries.shape[0]:
            self._make_room(length)
        start = self._tail
        self._entries[start:start + length] = route
        self._tail = start + length
        self._live_nnz += length
        self._flow_ids[slot] = fid
        self._rates[slot] = rate
        self._weights[slot] = weight
        self._starts[slot] = start
        self._lens[slot] = length
        self._arrival[slot] = self._next_arrival
        self._next_arrival += 1
        self._slot_arr[fid] = slot
        self._m = slot + 1
        self._churn_units += 1
        if self.occupancy is not None:
            self.occupancy[route] += 1  # routes are simple paths
        if self._csr_ok:
            self._csr_patch_add(fid, route, start, length)
        self._admitted = True

    def add_many(self, fids: np.ndarray, lens: np.ndarray,
                 entries: np.ndarray, *,
                 weights: np.ndarray | None = None,
                 rates: np.ndarray | None = None) -> None:
        """Admit a batch of flows in one vectorised pass.

        The batch is a CSR: flow ``fids[i]``'s route is the next
        ``lens[i]`` link ids of ``entries``.  Equivalent to calling
        :meth:`add` per flow in order, but the slot arrays, the entries
        pool and the churn log are updated in bulk instead of per flow.
        ``rates`` seeds each flow's allocation (the approx-fidelity
        engine inherits a predecessor's last rate at release); flows
        start at ``0.0`` until the next fill otherwise.
        """
        fids = np.asarray(fids, dtype=np.int64)
        k = fids.shape[0]
        if k == 0:
            return
        lens = np.asarray(lens, dtype=np.int64)
        starts = np.cumsum(lens)
        total = int(starts[-1])
        if lens.shape != (k,) or entries.shape != (total,):
            raise SimulationError("batch admission needs one route length "
                                  "per flow and their sum of link ids")
        if not lens.all():
            raise SimulationError(
                f"flow {int(fids[np.argmin(lens)])} has an empty route; "
                "zero-hop flows never enter the active set")
        if weights is not None and not (weights > 0).all():
            raise SimulationError("flow weights must be strictly positive")
        self._ensure_slot_arr(int(fids.max()))
        m = self._m
        slot_arr = self._slot_arr
        new_slots = np.arange(m, m + k, dtype=np.int64)
        # scatter the slots and read them back: an id already active
        # read a slot before, and a repeated id keeps only one of its
        # slots, so another occurrence reads back a mismatch
        old = slot_arr[fids]
        slot_arr[fids] = new_slots
        if np.count_nonzero(old >= 0) \
                or np.count_nonzero(slot_arr[fids] != new_slots):
            slot_arr[fids] = old   # a repeated id read the same old slot
            raise SimulationError("batch admission repeats an active flow")
        while m + k > self._flow_ids.shape[0]:
            self._grow_slots()
        if self._tail + total > self._entries.shape[0]:
            self._make_room(total)
        start0 = self._tail
        self._entries[start0:start0 + total] = entries
        self._tail = start0 + total
        self._live_nnz += total
        starts += start0 - lens
        sl = slice(m, m + k)
        self._flow_ids[sl] = fids
        self._rates[sl] = 0.0 if rates is None else rates
        self._weights[sl] = 1.0 if weights is None else weights
        self._starts[sl] = starts
        self._lens[sl] = lens
        self._arrival[sl] = np.arange(self._next_arrival,
                                      self._next_arrival + k, dtype=np.int64)
        self._next_arrival += k
        self._m = m + k
        self._churn_units += k
        if self.occupancy is not None:
            # links can repeat across the batch's routes, so accumulate
            np.add.at(self.occupancy, entries, 1)
        if self._csr_ok:
            if k > max(_PATCH_MAX, m >> 3):
                self._csr_ok = False
            else:
                for fid, start, length in zip(fids.tolist(), starts.tolist(),
                                              lens.tolist()):
                    self._csr_patch_add(
                        fid, self._entries[start:start + length], start,
                        length)
                    if not self._csr_ok:
                        break
        self._admitted = True

    def remove(self, fid: int) -> float:
        """Retire flow ``fid`` and return its last allocated rate (O(1)
        slot work plus O(1) churn bookkeeping)."""
        if not 0 <= fid < self._slot_arr.shape[0] or self._slot_arr[fid] < 0:
            raise SimulationError(f"flow {fid} is not active")
        slot = int(self._slot_arr[fid])
        self._slot_arr[fid] = -1
        rate = float(self._rates[slot])
        s = int(self._starts[slot])
        e = s + int(self._lens[slot])
        route = self._entries[s:e]
        self._live_nnz -= e - s
        self._gone_starts.append(s)
        self._gone_lens.append(e - s)
        self._churn_units += 1
        if self.occupancy is not None:
            self.occupancy[route] -= 1
        if self._csr_ok:
            self._csr_flows[self._pos_in_csr[s:e]] = -1
            self._csr_dead += e - s
            self._counts_base[route] -= 1.0
        last = self._m - 1
        if slot != last:
            self._flow_ids[slot] = self._flow_ids[last]
            self._rates[slot] = self._rates[last]
            self._weights[slot] = self._weights[last]
            self._starts[slot] = self._starts[last]
            self._lens[slot] = self._lens[last]
            self._arrival[slot] = self._arrival[last]
            self._slot_arr[int(self._flow_ids[slot])] = slot
        self._flow_ids[last] = -1
        self._m = last
        return rate

    def remove_many(self, fids: np.ndarray) -> None:
        """Retire a batch of flows in one vectorised pass.

        Equivalent to calling :meth:`remove` per flow (return values
        aside); the freed low slots are refilled with the surviving tail
        slots so the set stays dense, with O(moved slots) Python work
        instead of O(flows).  A repeated or inactive id raises
        :class:`~repro.errors.SimulationError` before anything changes.
        """
        k = fids.shape[0]
        if k == 0:
            return
        if k == 1:
            self.remove(int(fids[0]))
            return
        fids = np.asarray(fids, dtype=np.int64)
        if fids.min() < 0 or int(fids.max()) >= self._slot_arr.shape[0]:
            raise SimulationError("batch removal names an inactive flow")
        slot_arr = self._slot_arr
        slots = slot_arr[fids]
        if (slots < 0).any():
            raise SimulationError("batch removal names an inactive flow")
        # scatter each id's batch position and read it back: a repeated
        # id keeps only its last position, so an earlier occurrence reads
        # back a mismatch (the marks are negative: the ids go inactive)
        marks = np.arange(-2, -2 - k, -1, dtype=np.int64)
        slot_arr[fids] = marks
        if np.count_nonzero(slot_arr[fids] != marks):
            slot_arr[fids] = slots
            raise SimulationError("batch removal names an inactive flow")

        starts = self._starts[slots]
        lens = self._lens[slots]
        self._gone_starts.extend(starts.tolist())
        self._gone_lens.extend(lens.tolist())
        self._churn_units += k
        patch = self._csr_ok and k <= max(_PATCH_MAX, self._m >> 3)
        self._csr_ok = patch
        if patch or self.occupancy is not None:
            idxp = _slices_concat(starts, starts + lens)
            gone = self._entries[idxp]
            if self.occupancy is not None:
                np.subtract.at(self.occupancy, gone, 1)
            if patch:
                self._csr_flows[self._pos_in_csr[idxp]] = -1
                self._csr_dead += idxp.shape[0]
                np.subtract.at(self._counts_base, gone, 1.0)

        self._live_nnz -= int(lens.sum())
        m = self._m
        new_m = m - k
        removed = self._slot_flag  # borrowed scratch, reset below
        removed[slots] = True
        low = slots[slots < new_m]
        if low.shape[0]:
            src = new_m + np.flatnonzero(~removed[new_m:m])
            for name in ("_flow_ids", "_rates", "_weights", "_starts",
                         "_lens", "_arrival"):
                arr = getattr(self, name)
                arr[low] = arr[src]
            self._slot_arr[self._flow_ids[low]] = low
        removed[slots] = False
        self._slot_arr[fids] = -1
        self._flow_ids[new_m:m] = -1
        self._m = new_m

    def _csr_patch_add(self, fid: int, route: np.ndarray, start: int,
                       length: int) -> None:
        """Append one admitted flow into its links' CSR slack regions.

        Falls back to a rebuild (``_csr_ok = False``) when any region is
        full.  Routes are simple paths (no repeated link), which the
        per-link append relies on.
        """
        cl = self._csr_len[route]
        if np.count_nonzero(cl >= self._csr_cap[route]):
            self._csr_ok = False
            return
        q = self._csr_start[route] + cl
        self._csr_flows[q] = fid
        self._pos_in_csr[start:start + length] = q
        self._csr_len[route] = cl + 1
        self._counts_base[route] += 1.0

    def _clear_churn(self) -> None:
        self._admitted = False
        self._gone_starts.clear()
        self._gone_lens.clear()

    def _ensure_slot_arr(self, fid: int) -> None:
        if fid < 0:
            raise SimulationError(f"flow ids must be non-negative, got {fid}")
        if fid >= self._slot_arr.shape[0]:
            size = self._slot_arr.shape[0]
            while size <= fid:
                size *= 2
            grown = np.full(size, -1, dtype=np.int64)
            grown[:self._slot_arr.shape[0]] = self._slot_arr
            self._slot_arr = grown

    # ------------------------------------------------------------ allocation
    def allocate(self, stats: dict | None = None) -> np.ndarray:
        """Assign exact max-min rates to every active flow.

        Takes the suffix-resumed relevel when flows were only removed
        since the last allocation (see module docstring), and the
        CSR-backed full pass otherwise.  ``stats``, when a dict, receives
        ``iterations`` and ``relevel`` (``True`` only on the relevel).
        Returns the dense rates view.
        """
        if self._m == 0:
            self._clear_churn()
            if stats is not None:
                stats["iterations"] = 0
                stats["relevel"] = False
            return self._rates[:0]
        if self.RELEVEL and self._gone_starts and not self._admitted:
            iterations = self._relevel_fill()
            if iterations >= 0:
                self.relevel_fills += 1
                self._churn_units = 0
                self._clear_churn()
                if stats is not None:
                    stats["iterations"] = iterations
                    stats["relevel"] = True
                return self._rates[:self._m]
        iterations = self._full_pass()
        self.full_passes += 1
        self._clear_churn()
        if stats is not None:
            stats["iterations"] = iterations
            stats["relevel"] = False
        return self._rates[:self._m]

    def _relevel_fill(self) -> int:
        """Resume the recorded fill above the removals' water threshold.

        Returns the suffix iteration count on success, ``-1`` to fall
        back to a full pass.  On success, rates, levels and the recorded
        sequences are exactly what a full pass would have produced, so
        relevels compose across consecutive events.
        """
        if not (self._csr_ok and self._seq_ok and self._caps_all_positive):
            return -1
        m = self._m
        # the removed flows' links, still in the pool: no admission (the
        # only pool move between fills) happened since they left
        gone = np.asarray(self._gone_starts, dtype=np.int64)
        dirty = self._entries[_slices_concat(
            gone, gone + np.asarray(self._gone_lens, dtype=np.int64))]
        # every removed flow was rated, so its bottleneck link holds a
        # finite recorded level: tmin is finite and positive
        tmin = float(self._levels[dirty].min())
        if not 0.0 < tmin < np.inf:
            return -1
        k = int(np.searchsorted(self._level_seq, tmin, side="left"))
        if k == 0:
            # the threshold undercuts the first recorded level (or none is
            # recorded): the whole fill would replay, and a full pass is
            # strictly cheaper
            return -1

        # flows rated at or above the threshold are re-levelled; all
        # others froze strictly below it and keep their (final) rates
        participants = np.flatnonzero(self._rates[:m] >= tmin)
        npart = int(participants.shape[0])
        if npart:
            pstarts = self._starts[participants]
            plens = self._lens[participants]
            plinks = self._entries[_slices_concat(pstarts,
                                                  pstarts + plens)]
            suffix = np.unique(np.concatenate((plinks, dirty)))
        else:
            plinks = None
            suffix = np.unique(dirty)
        # cost guard: the replay walks every suffix CSR row plus k
        # iterations per suffix link — past the live incidence size a
        # full pass is the cheaper option
        if int(self._csr_len[suffix].sum()) + k * suffix.shape[0] \
                > self._live_nnz:
            return -1

        counts = self._counts
        counts[suffix] = 0.0
        if plinks is not None:
            np.add.at(counts, plinks, 1.0)
        act = suffix[counts[suffix] > 0.0]

        # the residuals of the live links at iteration k: the recorded
        # prefix replayed from full capacity, each link's count stepping
        # down after the iteration its flow froze in (a flow rated r froze
        # in the last iteration whose level is <= r; participants never)
        n_act = act.shape[0]
        row_len = self._csr_len[act]
        rows = self._csr_flows[_slices_concat(
            self._csr_start[act], self._csr_start[act] + row_len)]
        row = np.repeat(np.arange(n_act, dtype=np.int64), row_len)
        valid = rows >= 0
        row = row[valid]
        rate = self._rates[self._slot_arr[rows[valid]]]
        below = rate < tmin
        cr = numpy_fill.replay(
            self.capacities[act], np.bincount(row, minlength=n_act).astype(
                np.float64), np.zeros(n_act, dtype=np.int64), k,
            self._delta_seq, row[below],
            np.searchsorted(self._level_seq[:k], rate[below],
                            side="right") - 1)
        if bool((cr <= self._sat_floor[act]).any()):
            # a replayed link saturated inside the prefix: the invariance
            # proof does not hold, take the full pass
            return -1
        self._cap_rem[act] = cr

        # every level written below must be covered by the next full
        # pass's inf-reset, including links saturating for the first time
        newly = suffix[~self._level_mask[suffix]]
        if newly.shape[0]:
            self._level_links = np.concatenate((self._level_links, newly))
            self._level_mask[newly] = True
        self._levels[suffix] = np.inf
        level0 = float(self._level_seq[k - 1])
        if self._level_buf.shape[0] < n_act:
            self._level_buf = np.empty(n_act, dtype=np.int64)
        seq_d = np.empty(n_act + 1, dtype=np.float64)
        seq_l = np.empty(n_act + 1, dtype=np.float64)
        frozen = self._slot_flag  # borrowed scratch, reset on exit
        # flows rated below the threshold froze inside the prefix and
        # keep those rates; the rest are this fill's participants
        frozen[:m] = True
        frozen[participants] = False
        self._freeze_iter[:m] = -1
        try:
            status, iterations, _, rounds = numpy_fill.fill(
                self.capacities, self._sat_floor, self._cap_rem, counts,
                self._levels,
                self._csr_start, self._csr_len, self._csr_flows,
                self._entries, self._starts, self._lens, self._slot_arr,
                self._rates, frozen, self._freeze_iter, self._weights,
                False, npart, act, level0, self._level_buf, seq_d, seq_l,
                self._fill_iterations)
        finally:
            frozen[:m] = False
        self.fill_rounds += rounds
        if status != 0:
            # partially written rates/levels are fine: the full pass this
            # falls back to rewrites every rate and resets every level in
            # _level_links, which covers the whole suffix
            return -1
        self._delta_seq = np.concatenate(
            (self._delta_seq[:k], seq_d[:iterations]))
        self._level_seq = np.concatenate(
            (self._level_seq[:k], seq_l[:iterations]))
        self._seq_ok = bool((np.diff(self._level_seq) > 0.0).all())
        return iterations

    def _live_entries(self) -> tuple[np.ndarray, int | np.ndarray]:
        """Every live route entry in slot order, and where it sits.

        When the slots sit in pool order, back to back (as after a batch
        admission replaced the set, or a compaction), the entries are a
        view of the pool and the second value is the view's pool offset;
        otherwise they are gathered and it is the gather's pool indices.
        """
        m = self._m
        starts = self._starts[:m]
        lens = self._lens[:m]
        base = int(starts[0])
        if np.array_equal(starts[1:], starts[:-1] + lens[:-1]):
            return self._entries[base:base + self._live_nnz], base
        idx = _slices_concat(starts, starts + lens)
        return self._entries[idx], idx

    def _csr_rebuild(self, weights: np.ndarray | None, slack: bool,
                     live: tuple[np.ndarray, int | np.ndarray],
                     link_nnz: np.ndarray) -> None:
        """Rebuild the persistent link→flows CSR from the pool.

        ``live`` is :meth:`_live_entries` and ``link_nnz`` the per-link
        count of those entries, both as the pass gathered them.
        Vectorised (one sort of the live entries packed with their
        positions, :func:`_packed_order`); also recomputes the per-link
        occupancy into ``self._counts``.  With ``slack`` each link's
        flows get headroom and the pool→CSR back-map is built, so later
        small membership batches patch the structure in place; without
        it (bulk churn, or a weighted set, whose occupancy depends on the
        weights) the CSR is packed tight and valid for this pass only.
        """
        m = self._m
        counts = self._counts
        num_links = counts.shape[0]
        work_e, where = live
        if self._tail - self._live_nnz > max(_COMPACT_SLACK, self._live_nnz):
            self._compact(work_e)
            work_e, where = self._entries[:self._tail], 0
        work_o = np.repeat(np.arange(m, dtype=np.int64), self._lens[:m])

        if weights is None:
            np.copyto(counts, link_nnz)
        else:
            np.copyto(counts, np.bincount(work_e, weights=weights[work_o],
                                          minlength=num_links))
        order = _packed_order(work_e, num_links)
        fids_sorted = self._flow_ids[:m][work_o[order]]
        if slack and weights is None:
            cap = link_nnz + (link_nnz >> 1) + 4
            self._csr_start[0] = 0
            np.cumsum(cap[:-1], out=self._csr_start[1:])
            total = int(self._csr_start[-1] + cap[-1])
            if self._csr_flows.shape[0] < total:
                self._csr_flows = np.empty(
                    max(total, 2 * self._csr_flows.shape[0]), dtype=np.int64)
            sorted_e = work_e[order]
            first = np.zeros(num_links, dtype=np.int64)
            np.cumsum(link_nnz[:-1], out=first[1:])
            q = self._csr_start[sorted_e] + \
                (np.arange(sorted_e.shape[0], dtype=np.int64)
                 - first[sorted_e])
            self._csr_flows[q] = fids_sorted
            self._pos_in_csr[order + where if isinstance(where, int)
                             else where[order]] = q
            np.copyto(self._csr_cap, cap)
            np.copyto(self._counts_base, counts)
            self._csr_ok = True
        else:
            nnz = work_e.shape[0]
            if self._csr_flows.shape[0] < nnz:
                self._csr_flows = np.empty(
                    max(nnz, 2 * self._csr_flows.shape[0]), dtype=np.int64)
            self._csr_flows[:nnz] = fids_sorted
            self._csr_start[0] = 0
            np.cumsum(link_nnz[:-1], out=self._csr_start[1:])
            self._csr_ok = False
        np.copyto(self._csr_len, link_nnz)
        self._csr_dead = 0

    def _first_level_fill(self, entries: np.ndarray,
                          link_nnz: np.ndarray) -> bool:
        """Finish an unweighted full pass at its first water level.

        Takes the fill's first step (:func:`numpy_fill.level_step` over
        every live link, in ascending order) from the per-link counts
        ``link_nnz`` of the live ``entries`` alone, with no link→flows
        CSR.  When every flow crosses a link that saturates at that
        level, the fill would stop there: this writes what it would have
        written (rates, the links' levels and their list, the one-entry
        sequences, the counters) and returns ``True``; the CSR is left
        invalid, as after a tight rebuild.  Otherwise it writes nothing
        and returns ``False``.
        """
        m = self._m
        act = np.flatnonzero(link_nnz)
        caps = self.capacities[act]
        if not self._caps_all_positive and bool((caps <= 0).any()):
            return False  # the full pass raises
        with np.errstate(divide="ignore", invalid="ignore"):
            delta, level, _, sat = numpy_fill.level_step(
                caps, link_nnz[act].astype(np.float64), 0.0,
                self._sat_floor[act])
        sat_links = act[sat]
        mark = np.zeros(self.capacities.shape[0], dtype=bool)
        mark[sat_links] = True
        lens = self._lens[:m]
        if not np.logical_or.reduceat(mark[entries],
                                      np.cumsum(lens) - lens).all():
            return False
        self._rates[:m] = level
        self._levels[self._level_links] = np.inf
        self._levels[sat_links] = level
        self._level_mask[self._level_links] = False
        self._level_links = sat_links
        self._level_mask[sat_links] = True
        self._delta_seq = np.array([delta])
        self._level_seq = np.array([level])
        self._seq_ok = True
        self._fill_iterations = 1
        self.fill_rounds += 1
        self._csr_ok = False
        return True

    def _full_pass(self) -> int:
        """Progressive filling over the live incidence.

        Mirrors the reference allocator's arithmetic per link (the
        oracle in ``tests/oracle.py``), so rates agree with a from-scratch
        reference run on the same flows.  The persistent link→flows CSR lets each
        saturated link freeze exactly its own flows, so total freeze work
        is amortised O(total route length) per pass — the water-level
        iteration count does not multiply it — and when the CSR survived
        the event's membership patches, the pass skips the O(nnz)
        gather/sort/occupancy setup entirely.

        The water-level loop itself is
        :func:`~repro.engine.kernels.numpy_fill.fill`, shared with the
        relevel.  A pass that would rebuild its CSR tight first tries
        :meth:`_first_level_fill`, which builds none.
        """
        m = self._m
        counts = self._counts
        weights = self._weights[:m] if self._weighted else None

        if self._csr_ok and self._csr_dead * 4 <= self._live_nnz:
            np.copyto(counts, self._counts_base)
        else:
            slack = self._churn_units <= max(_PATCH_MAX, m >> 3)
            live = self._live_entries()
            link_nnz = np.bincount(live[0], minlength=counts.shape[0])
            if not (slack or self._weighted) \
                    and self._first_level_fill(live[0], link_nnz):
                self._churn_units = 0
                return 1
            self._csr_rebuild(weights, slack, live, link_nnz)
        self._churn_units = 0

        act = np.flatnonzero(counts > 0)
        if not self._caps_all_positive and \
                bool((self.capacities[act] <= 0).any()):
            raise SimulationError("active flow crosses a zero-capacity link")
        self._cap_rem[act] = self.capacities[act]
        self._levels[self._level_links] = np.inf
        if self._level_buf.shape[0] < act.shape[0]:
            self._level_buf = np.empty(act.shape[0], dtype=np.int64)
        if self._seq_buf_d.shape[0] < act.shape[0] + 1:
            self._seq_buf_d = np.empty(act.shape[0] + 1, dtype=np.float64)
            self._seq_buf_l = np.empty(act.shape[0] + 1, dtype=np.float64)

        frozen = self._slot_flag  # borrowed scratch, reset on exit
        self._freeze_iter[:m] = -1
        try:
            status, iterations, nsat, rounds = numpy_fill.fill(
                self.capacities, self._sat_floor, self._cap_rem, counts,
                self._levels,
                self._csr_start, self._csr_len, self._csr_flows,
                self._entries, self._starts, self._lens, self._slot_arr,
                self._rates, frozen, self._freeze_iter, self._weights,
                self._weighted, m, act, 0.0, self._level_buf,
                self._seq_buf_d, self._seq_buf_l, self._fill_iterations)
        finally:
            frozen[:m] = False
        self.fill_rounds += rounds
        self._fill_iterations = iterations

        if status == 1:
            raise SimulationError("allocation left flows without a bottleneck")
        self._level_mask[self._level_links] = False
        self._level_links = self._level_buf[:nsat].copy()
        self._level_mask[self._level_links] = True
        if self._weighted:
            self._seq_ok = False
        else:
            self._delta_seq = self._seq_buf_d[:iterations].copy()
            self._level_seq = self._seq_buf_l[:iterations].copy()
            self._seq_ok = bool(
                (np.diff(self._level_seq) > 0.0).all())
        return iterations

    # ------------------------------------------------------------- plumbing
    def _grow_slots(self) -> None:
        new = max(_MIN_SLOTS, 2 * self._flow_ids.shape[0])
        for name in ("_flow_ids", "_rates", "_weights", "_starts", "_lens",
                     "_arrival", "_slot_flag", "_freeze_iter"):
            old = getattr(self, name)
            arr = np.zeros(new, dtype=old.dtype)
            arr[:old.shape[0]] = old
            setattr(self, name, arr)
        self._flow_ids[self._m:] = -1

    def _make_room(self, extra: int) -> None:
        """Compact the entries pool and/or grow it to fit ``extra``."""
        if self._tail - self._live_nnz > 0:
            self._compact(self.route_entries()[0])
        needed = self._tail + extra
        if needed > self._entries.shape[0]:
            size = max(_MIN_ENTRIES, self._entries.shape[0])
            while size < needed:
                size *= 2
            pool = np.empty(size, dtype=np.int64)
            pool[:self._tail] = self._entries[:self._tail]
            self._entries = pool
            # pool indices are preserved by growth, so the CSR back-map
            # stays valid — carry it over to the new capacity
            pos = np.empty(size, dtype=np.int64)
            pos[:self._tail] = self._pos_in_csr[:self._tail]
            self._pos_in_csr = pos

    def _compact(self, live_entries: np.ndarray) -> None:
        """Rewrite the pool as the given gathered live entries."""
        self._csr_ok = False  # pool indices move; the CSR back-map is stale
        m = self._m
        lens = self._lens[:m]
        self._entries[:live_entries.shape[0]] = live_entries
        starts = np.zeros(m, dtype=np.int64)
        if m > 1:
            np.cumsum(lens[:-1], out=starts[1:])
        self._starts[:m] = starts
        self._tail = int(live_entries.shape[0])
