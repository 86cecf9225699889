"""Transient-fault event loop: the network degrades and heals mid-run.

:func:`repro.engine.simulate` dispatches here when handed a non-empty
:class:`~repro.topology.timeline.FaultTimeline`.  The loop is the
incremental engine's (same admission order, completion-tie batching and
bounded-churn reallocation policy — a timeline whose events never fire
during the run produces bitwise-identical results) with one extra event
source merged in: timeline epochs.

When the next epoch boundary lands before the earliest completion, the
loop:

* charges every active flow its partial progress up to the boundary
  (``remaining -= rates * dt``) and jumps time there;
* swaps the routing view — the base topology wrapped in the epoch's
  cumulative :class:`~repro.topology.degraded.FaultSet`, or the bare base
  once everything is repaired.  Route caches invalidate *incrementally*:
  cache keys carry the fault set's
  :meth:`~repro.topology.degraded.FaultSet.cache_token`, so each epoch
  fills its own partition, healthy epochs reuse the healthy partition,
  and a later epoch with the same cumulative faults (fail/repair cycles)
  reuses earlier work — no flush, ever;
* recovers the in-flight flows whose route crosses a newly-disabled link:
  each is removed from the :class:`~repro.engine.active.ActiveSet`,
  rerouted over the surviving candidate set (which falls back to the
  uplink fail-over / BFS-detour ladder of
  :class:`~repro.topology.degraded.DegradedTopology`), and re-added with
  its remaining bytes preserved;
* *parks* a flow whose pair is currently disconnected and retries it at
  every later epoch.  :class:`~repro.errors.DegradedNetworkError` is
  raised only when a pair is truly disconnected and no remaining event
  could ever reconnect it — matching the static engine's behaviour for a
  timeline that never repairs.

The transient counters (fault events fired, flows rerouted/parked/
recovered, bits moved to new routes, seconds spent parked) ride on
``result.transient`` and — when the run is instrumented — in the metrics
snapshot's ``"transient"`` block.
"""

from __future__ import annotations

import math
import time
from typing import TYPE_CHECKING

import numpy as np

from repro.engine.active import ActiveSet
from repro.engine.flows import FlowSet
from repro.engine.maxmin import _slices_concat
from repro.engine.results import SimulationResult
from repro.engine.simulator import (_TIE_EPS, CHURN_FRACTION,
                                    _batching_enabled, _make_route_fn)
from repro.errors import DegradedNetworkError, SimulationError
from repro.topology.base import Topology
from repro.topology.degraded import DegradedTopology
from repro.topology.timeline import FaultTimeline

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsCollector


def simulate_transient(topology: Topology, flows: FlowSet,
                       placement: np.ndarray, fidelity: str,
                       max_events: int, route_cache: dict | None,
                       collector: MetricsCollector | None, routing: str,
                       timeline: FaultTimeline) -> SimulationResult:
    """Run ``flows`` while ``timeline`` degrades and heals the network.

    Called by :func:`repro.engine.simulate` (which owns all argument
    validation except the two transient-specific checks below); see the
    module docstring for the merge semantics.
    """
    if isinstance(topology, DegradedTopology):
        raise SimulationError(
            "fault timelines require the healthy base topology; encode "
            "static faults as timeline events at t <= 0 instead of wrapping "
            "with DegradedTopology")
    timeline.validate(topology)
    epochs = timeline.epochs()

    n = flows.num_flows
    capacities = topology.links.capacities
    remaining = flows.size.copy()
    indegree = flows.indegree.copy()
    completion = np.full(n, np.nan)
    start = np.full(n, np.nan)
    weighted = flows.is_weighted
    weight_arr = flows.weight

    adaptive = routing == "adaptive"
    # per-flow completion/recovery walk (see the healthy engine): required
    # for adaptive, forced by REPRO_EVENT_BATCH=0 otherwise
    per_flow = adaptive or not _batching_enabled()
    active = ActiveSet(capacities, weighted=weighted,
                       track_occupancy=adaptive)
    occ_fn = (lambda: active.occupancy) if adaptive else None

    if route_cache is None:
        route_cache = {}
    src_ep = placement[flows.src]
    dst_ep = placement[flows.dst]

    counters = {"fault_events": 0, "flows_rerouted": 0, "flows_parked": 0,
                "flows_recovered": 0, "rerouted_bits": 0.0,
                "recovery_seconds": 0.0}
    #: flow id -> time it was parked (pair currently disconnected).
    parked: dict[int, float] = {}

    # ---- epoch state: events at or before t=0 are the machine's state at
    # job start; everything later fires inside the loop
    epoch_idx = -1
    while epoch_idx + 1 < len(epochs) and epochs[epoch_idx + 1].start <= 0.0:
        epoch_idx += 1

    def view_of(idx: int) -> Topology:
        if idx < 0 or epochs[idx].faults.empty:
            return topology
        return DegradedTopology(topology, epochs[idx].faults)

    current = view_of(epoch_idx)
    route_of, _ = _make_route_fn(current, src_ep, dst_ep, route_cache,
                              collector, routing, occ_fn)
    next_change = epochs[epoch_idx + 1].start \
        if epoch_idx + 1 < len(epochs) else math.inf

    completed_count = 0

    def route_or_park(f: int, t: float) -> np.ndarray | None:
        """Route a flow under the current epoch, or park it until repair.

        Propagates :class:`~repro.errors.DegradedNetworkError` when no
        future epoch exists — the pair can never reconnect, which is the
        one case the typed error is for (and the behaviour that makes a
        never-repairing timeline match the static engine).
        """
        try:
            return route_of(f)
        except DegradedNetworkError:
            if epoch_idx + 1 >= len(epochs):
                raise
            parked[f] = t
            counters["flows_parked"] += 1
            return None

    def inject(fid: int, t: float, rate: float) -> int:
        """Per-flow admission with the zero-hop completion cascade."""
        nonlocal completed_count
        admitted = 0
        stack = [(fid, rate)]
        while stack:
            f, r = stack.pop()
            start[f] = t
            route = route_or_park(f, t)
            if route is None:
                continue  # parked; remains un-started until a repair
            if collector is not None:
                collector.flow_injected(float(flows.size[f]), route.shape[0])
            if route.shape[0]:
                active.add(f, route, rate=r,
                           weight=float(weight_arr[f]) if weighted else 1.0)
                admitted += 1
                continue
            completion[f] = t
            remaining[f] = 0.0
            completed_count += 1
            for succ in flows.successors(f).tolist():
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    stack.append((succ, r))
        return admitted

    succ_indptr = flows.succ_indptr
    succ_indices = flows.succ_indices

    def admit_batch(ready: np.ndarray, t: float) -> int:
        """Vectorised admission (mirrors the healthy engine's batch path)."""
        admitted = 0
        if adaptive:
            # per-flow admission so each selection sees the occupancy left
            # by the flows admitted just before it (same as the healthy
            # engine — required for bitwise identity when no event fires)
            for f in ready.tolist():
                admitted += inject(f, t, 0.0)
            return admitted
        zero_hop = src_ep[ready] == dst_ep[ready]
        routed = ready[~zero_hop]
        if routed.shape[0]:
            start[routed] = t
            fids: list[int] = []
            route_list: list[np.ndarray] = []
            for f in routed.tolist():
                route = route_or_park(f, t)
                if route is None:
                    continue
                fids.append(f)
                route_list.append(route)
            if fids:
                fid_arr = np.asarray(fids, dtype=np.int64)
                active.add_many(fid_arr, route_list,
                                weights=weight_arr[fid_arr] if weighted
                                else None)
                if collector is not None:
                    for f, r in zip(fids, route_list):
                        collector.flow_injected(float(flows.size[f]),
                                                r.shape[0])
                admitted += len(fids)
        for f in ready[zero_hop].tolist():
            admitted += inject(f, t, 0.0)
        return admitted

    def release_batch(done_ids: np.ndarray, t: float) -> int:
        succs = succ_indices[_slices_concat(succ_indptr[done_ids],
                                            succ_indptr[done_ids + 1])]
        if succs.shape[0] == 0:
            return 0
        uniq, cnt = np.unique(succs, return_counts=True)
        indegree[uniq] -= cnt
        ready = uniq[indegree[uniq] == 0]
        if ready.shape[0] == 0:
            return 0
        return admit_batch(ready, t)

    def release_inherit(done_ids: np.ndarray, done_rates: np.ndarray,
                        t: float) -> int:
        """Batched approx-mode release (the healthy engine's twin).

        Same last-trigger rate inheritance and trigger-order admission as
        the ``release_inherit`` helper of :func:`repro.engine.simulate`,
        with one transient twist: a released flow whose pair the current
        epoch disconnects parks instead of entering the network.
        """
        completion[done_ids] = t
        active.remove_many(done_ids)
        succs = succ_indices[_slices_concat(succ_indptr[done_ids],
                                            succ_indptr[done_ids + 1])]
        if succs.shape[0] == 0:
            return 0
        rep_rates = np.repeat(done_rates,
                              succ_indptr[done_ids + 1]
                              - succ_indptr[done_ids])
        if bool((src_ep[succs] == dst_ep[succs]).any()):
            # zero-hop successors cascade instantly; fall back to the
            # sequential walk
            released = 0
            for f, r in zip(succs.tolist(), rep_rates.tolist()):
                indegree[f] -= 1
                if indegree[f] == 0:
                    released += inject(f, t, r)
            return released
        uniq, cnt = np.unique(succs, return_counts=True)
        indegree[uniq] -= cnt
        ready_mask = indegree[uniq] == 0
        if not ready_mask.any():
            return 0
        order = np.argsort(succs, kind="stable")
        last_pos = order[np.cumsum(cnt) - 1]   # per unique: last occurrence
        trig = last_pos[ready_mask]
        seq = np.argsort(trig, kind="stable")  # back to trigger order
        ready = uniq[ready_mask][seq]
        inherit = rep_rates[trig[seq]]
        fids: list[int] = []
        route_list: list[np.ndarray] = []
        rate_list: list[float] = []
        for f, r in zip(ready.tolist(), inherit.tolist()):
            start[f] = t
            route = route_or_park(f, t)
            if route is None:
                continue  # parked until a repair reconnects the pair
            fids.append(f)
            route_list.append(route)
            rate_list.append(r)
        if not fids:
            return 0
        fid_arr = np.asarray(fids, dtype=np.int64)
        active.add_many(fid_arr, route_list,
                        rates=np.asarray(rate_list),
                        weights=weight_arr[fid_arr] if weighted else None)
        if collector is not None:
            for f, route in zip(fids, route_list):
                collector.flow_injected(float(flows.size[f]),
                                        route.shape[0])
        return len(fids)

    def apply_epoch(t: float) -> None:
        """Advance to the next epoch and recover the flows it cuts."""
        nonlocal epoch_idx, current, route_of, next_change
        epoch_idx += 1
        current = view_of(epoch_idx)
        route_of, _ = _make_route_fn(current, src_ep, dst_ep, route_cache,
                                  collector, routing, occ_fn)
        next_change = epochs[epoch_idx + 1].start \
            if epoch_idx + 1 < len(epochs) else math.inf
        counters["fault_events"] += 1

        # flows whose route the new fault state just cut (repairs disable
        # nothing, so a pure-repair epoch recovers parked flows only)
        affected: list[int] = []
        if isinstance(current, DegradedTopology) and active.size:
            mask = current.disabled_link_mask()
            affected = sorted(
                f for f, route in zip(active.flow_ids.tolist(),
                                      active.route_list())
                if mask[route].any())
        if affected:
            active.remove_many(np.asarray(affected, dtype=np.int64))
        if per_flow:
            # re-added after *all* removals, per flow so each selection
            # sees the occupancy the previous re-add left, in
            # ascending-id order for determinism
            for f in affected:
                route = route_or_park(f, t)
                if route is None:
                    continue
                active.add(f, route, rate=0.0,
                           weight=float(weight_arr[f]) if weighted else 1.0)
                counters["flows_rerouted"] += 1
                counters["rerouted_bits"] += float(remaining[f])
        else:
            # routes are occupancy-independent: reroute each cut flow in
            # the same ascending-id order, then re-admit the batch in one
            # vectorised pass
            fids: list[int] = []
            route_list: list[np.ndarray] = []
            for f in affected:
                route = route_or_park(f, t)
                if route is None:
                    continue
                fids.append(f)
                route_list.append(route)
                counters["flows_rerouted"] += 1
                counters["rerouted_bits"] += float(remaining[f])
            if fids:
                fid_arr = np.asarray(fids, dtype=np.int64)
                active.add_many(fid_arr, route_list,
                                weights=weight_arr[fid_arr] if weighted
                                else None)
        recovered: list[int] = []
        recovered_routes: list[np.ndarray] = []
        for f in sorted(parked):
            try:
                route = route_of(f)
            except DegradedNetworkError:
                continue  # still cut; retried at the next epoch
            if per_flow:
                active.add(f, route, rate=0.0,
                           weight=float(weight_arr[f]) if weighted else 1.0)
            else:
                recovered.append(f)
                recovered_routes.append(route)
            if collector is not None:
                collector.flow_injected(float(flows.size[f]), route.shape[0])
            counters["flows_recovered"] += 1
            counters["recovery_seconds"] += t - parked.pop(f)
            counters["rerouted_bits"] += float(remaining[f])
        if recovered:
            fid_arr = np.asarray(recovered, dtype=np.int64)
            active.add_many(fid_arr, recovered_routes,
                            weights=weight_arr[fid_arr] if weighted
                            else None)
        if parked and epoch_idx + 1 >= len(epochs):
            pairs = [(int(src_ep[f]), int(dst_ep[f])) for f in sorted(parked)]
            raise DegradedNetworkError(
                pairs, faults=current.faults.describe()
                if isinstance(current, DegradedTopology) else None)

    roots = flows.roots()
    if roots.shape[0] == 0:
        raise SimulationError(
            "no injectable flows: dependency graph has no roots")
    admit_batch(roots, 0.0)

    now = 0.0
    events = 0
    reallocations = 0
    churn = active.size   # everything new -> allocate on first iteration
    alloc_size = 0
    force_alloc = False   # set after every epoch transition
    loop_t0 = time.perf_counter() if collector is not None else 0.0

    while completed_count < n:
        if active.size == 0:
            if parked:
                # everything in flight is waiting on a repair: jump time
                # straight to the next fault event (route_or_park only
                # parks when a later epoch exists, so this terminates)
                now = max(now, next_change)
                apply_epoch(now)
                force_alloc = True
                events += 1
                if events > max_events:
                    raise SimulationError(f"exceeded {max_events} events")
                continue
            raise SimulationError(
                f"simulation stalled with {n - completed_count} flows "
                f"blocked (cyclic or unsatisfiable dependencies)")
        if fidelity == "exact" or force_alloc \
                or churn >= max(1.0, CHURN_FRACTION * alloc_size):
            stats: dict | None = {} if collector is not None else None
            t0 = time.perf_counter() if collector is not None else 0.0
            active.allocate(stats=stats)
            if collector is not None:
                assert stats is not None
                if stats.get("warm"):
                    reason = "warm"
                elif fidelity == "exact":
                    reason = "forced"
                elif force_alloc:
                    reason = "fault"
                else:
                    reason = "initial" if reallocations == 0 else "churn"
                collector.record_allocation(active.size, stats["iterations"],
                                            reason,
                                            time.perf_counter() - t0)
            reallocations += 1
            churn = 0
            alloc_size = active.size
            force_alloc = False

        ids = active.flow_ids
        rates = active.rates
        with np.errstate(divide="ignore", invalid="ignore"):
            deadlines = remaining[ids] / rates
        dt = float(deadlines.min())
        if not np.isfinite(dt):
            bad = ids[~np.isfinite(deadlines)]
            raise SimulationError(
                f"flow(s) {bad.tolist()[:8]} have a non-finite completion "
                f"deadline: the allocator froze them at zero rate "
                f"(fidelity={fidelity!r}, event {events})")

        if next_change < now + dt:
            # the fault event fires before the earliest completion: charge
            # partial progress, jump to the boundary, recover and re-plan.
            # Completions exactly *at* the boundary are not special-cased —
            # they fall out of the next iteration with dt == 0.
            dt_fault = next_change - now
            if collector is not None:
                collector.account_event(active.route_list(), rates, dt_fault)
            remaining[ids] -= rates * dt_fault
            now = next_change
            apply_epoch(now)
            force_alloc = True
            events += 1
            if events > max_events:
                raise SimulationError(f"exceeded {max_events} events")
            continue

        done_mask = deadlines <= dt + max(dt, 1.0) * _TIE_EPS
        if collector is not None:
            collector.account_event(active.route_list(), rates, dt)
        now += dt
        remaining[ids] -= rates * dt

        done_ids = ids[done_mask]
        done_rates = rates[done_mask]
        remaining[done_ids] = 0.0
        released = 0
        if fidelity == "exact":
            completion[done_ids] = now
            if per_flow and not adaptive:
                # historical per-event walk (REPRO_EVENT_BATCH=0); rates
                # are identical to the batched path — see simulator.py
                for fid in done_ids.tolist():
                    active.remove(fid)
                    for succ in flows.successors(fid).tolist():
                        indegree[succ] -= 1
                        if indegree[succ] == 0:
                            released += inject(succ, now, 0.0)
            else:
                active.remove_many(done_ids)
                released = release_batch(done_ids, now)
        elif per_flow:
            for fid, rate in zip(done_ids.tolist(), done_rates.tolist()):
                completion[fid] = now
                active.remove(fid)
                for succ in flows.successors(fid).tolist():
                    indegree[succ] -= 1
                    if indegree[succ] == 0:
                        # rate is inherited by the release (approx mode)
                        released += inject(succ, now, rate)
        else:
            released = release_inherit(done_ids, done_rates, now)
        completed_count += int(done_mask.sum())
        events += 1
        if events > max_events:
            raise SimulationError(f"exceeded {max_events} events")
        churn += done_ids.shape[0] + released

    snap = None
    if collector is not None:
        collector.add_time("event_loop", time.perf_counter() - loop_t0)
        collector.record_transient(counters)
        snap = collector.snapshot(topology, now)
    return SimulationResult(
        makespan=now,
        completion_times=completion,
        start_times=start,
        fidelity=fidelity,
        num_flows=n,
        reallocations=reallocations,
        events=events,
        total_bits=flows.total_bits,
        metrics=snap,
        allocator_stats={"allocator": "incremental",
                         "full_passes": active.full_passes,
                         "warm_fills": active.warm_fills,
                         "relevel_fills": active.relevel_fills},
        transient=dict(counters),
    )
