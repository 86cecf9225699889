"""Event-driven flow-level simulation.

The simulator advances a set of *active* flows under max-min fair bandwidth
sharing, completing the earliest-finishing batch, releasing dependent flows,
and re-allocating rates.  Two fidelities are offered:

* ``"exact"`` — rates are re-allocated after every completion batch.  This
  is the reference semantics (matching INRFlow's dynamic mode) and the one
  the test-suite invariants are written against.
* ``"approx"`` — bounded-churn reallocation: full max-min allocations are
  only recomputed once the active set has churned (completions plus
  releases) by :data:`CHURN_FRACTION` since the last allocation.  In
  between, a finished flow's bandwidth is simply retired and a newly
  released flow *inherits the rate of the flow whose completion released
  it* (its predecessor on the same dependency chain, which usually has a
  nearly identical route).  Links can be transiently over- or
  under-subscribed by at most the churn bound, so makespans track the
  exact mode closely (validated in the test suite) at a fraction of the
  allocations — the figure sweeps use this mode.

Completion ties within a relative window are batched, which keeps the event
count low for the highly symmetric collectives the paper uses.

Bandwidth allocations run through a persistent
:class:`~repro.engine.active.ActiveSet` that maintains the flow→link
incidence across events (O(changed routes) membership updates, pooled CSR
buffers, progressive filling resumed after pure removals).  Its rates are
those of the from-scratch reference allocator kept in ``tests/oracle.py``
(the incremental allocator is exact, see ``docs/simulation-model.md``).

A :class:`~repro.topology.timeline.FaultTimeline` adds a second event
source to the same loop: fault epochs.  When the next epoch boundary lands
before the earliest completion, the loop charges every active flow its
partial progress up to the boundary, swaps the routing view (the base
topology wrapped in the epoch's cumulative
:class:`~repro.topology.degraded.FaultSet`, or the bare base once
everything is repaired), reroutes the in-flight flows whose route crosses
a newly-disabled link (remaining bytes preserved), and retries the flows
*parked* because their pair was disconnected.  The route store is
partitioned by the fault set's
:meth:`~repro.topology.degraded.FaultSet.cache_token`, so each epoch
fills its own arena and healthy epochs reuse the healthy one.
:class:`~repro.errors.DegradedNetworkError` is raised only when a pair is
disconnected and no later epoch could reconnect it.  Without a
timeline the next epoch boundary is ``inf`` and never fires.
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
from repro.engine.routes import (RouteCache, ViewCandidates, ViewRoutes,
                                 flow_pairs)
from repro.errors import DegradedNetworkError, SimulationError
from repro.routing import policy as routing_policy
from repro.routing.policy import validate_policy
from repro.topology.base import Topology
from repro.topology.degraded import DegradedTopology

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsCollector
    from repro.topology.timeline import FaultTimeline

#: Relative tie window for batching completions.
_TIE_EPS = 1e-9

#: Active-set churn fraction that forces a re-allocation in approx mode.
CHURN_FRACTION = 0.05

_FIDELITIES = ("exact", "approx")

#: Shared route for flows whose tasks are placed on the same endpoint.
_EMPTY_ROUTE = np.empty(0, dtype=np.int64)


def _csr(routes: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """``(lens, links)``: the routes of a list as one CSR batch."""
    lens = np.fromiter((r.shape[0] for r in routes), dtype=np.int64,
                       count=len(routes))
    return lens, np.concatenate(routes) if routes else _EMPTY_ROUTE


def _make_route_fn(topology: Topology, src_ep: np.ndarray, dst_ep: np.ndarray,
                   store: RouteCache, collector, routing: str,
                   occupancy=None, pairs=None):
    """Build the ``(route_of(fid), routes_of(fids))`` closures of one
    routing view: one flow's route, and the CSR ``(lens, links)`` of a
    batch of network flows.

    Both read the store's arenas for the view's fault token over
    ``pairs``, the call's :func:`~repro.engine.routes.flow_pairs`: the
    deterministic routes through one
    :class:`~repro.engine.routes.ViewRoutes`, the multi-path policies'
    candidate blocks through one
    :class:`~repro.engine.routes.ViewCandidates`, so one store serves
    several policies and degraded views of one machine without
    poisoning.  A healthy view fills every pair's block at once.  ECMP
    picks each flow's row of its pair's block with
    :func:`~repro.routing.policy.ecmp_indices`, a batch with one hash
    and one gather.  ``occupancy`` (adaptive only) is a zero-argument
    callable returning the current per-link live-flow-count vector,
    against which a flow scores its pair's block
    (:func:`~repro.routing.policy.adaptive_block_index`).
    """
    keys, pair_of_flow = pairs
    if routing == "deterministic":
        view = ViewRoutes(store, topology, keys, collector)

        def route_of(fid: int) -> np.ndarray:
            p = int(pair_of_flow[fid])
            # co-located tasks: intra-endpoint
            return _EMPTY_ROUTE if p < 0 else view.route(p)

        def routes_of(fids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            if fids.shape[0] == 1:   # most approx-mode releases
                route = route_of(int(fids[0]))
                return np.array([route.shape[0]]), route
            return view.gather(view.rows(pair_of_flow[fids]))
        return route_of, routes_of

    cands = ViewCandidates(store, topology, keys, collector)
    if cands.token is None:
        # every pair of a run is admitted in the end, and on a healthy
        # view none can fail: route them in a few large batches now
        # rather than a small batch per admission
        cands.rows(np.arange(keys.shape[0]))

    if routing == "ecmp":
        def ecmp_rows(fids: np.ndarray) -> np.ndarray:
            first, count = cands.blocks(pair_of_flow[fids])
            return first + routing_policy.ecmp_indices(
                fids, src_ep[fids], dst_ep[fids], count)

        def route_of(fid: int) -> np.ndarray:
            if pair_of_flow[fid] < 0:
                return _EMPTY_ROUTE
            return cands.row(int(ecmp_rows(np.array([fid]))[0]))

        def routes_of(fids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            return cands.gather(ecmp_rows(fids))
        return route_of, routes_of

    assert routing == "adaptive" and occupancy is not None

    def route_of(fid: int) -> np.ndarray:
        p = int(pair_of_flow[fid])
        if p < 0:
            return _EMPTY_ROUTE
        indptr, links = cands.block(p)
        if indptr.shape[0] == 2:
            return links
        pick = routing_policy.adaptive_block_index(indptr, links,
                                                   occupancy())
        return links[indptr[pick]:indptr[pick + 1]]

    def routes_of(fids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return _csr([route_of(f) for f in fids.tolist()])
    return route_of, routes_of


def simulate(topology: Topology, flows: FlowSet, *,
             placement: np.ndarray | None = None,
             fidelity: str = "exact",
             max_events: int = 50_000_000,
             route_cache: RouteCache | dict | None = None,
             metrics: MetricsCollector | None = None,
             routing: str = "deterministic",
             fault_timeline: FaultTimeline | None = None
             ) -> SimulationResult:
    """Run a workload on a topology and return completion statistics.

    Parameters
    ----------
    topology:
        Routed network; supplies routes and link capacities.
    flows:
        The workload's flow DAG (task-id space).
    placement:
        Optional task -> endpoint map.  Defaults to identity, which
        requires ``flows.num_tasks <= topology.num_endpoints``.  Two tasks
        may share an endpoint (oversubscribed placement); flows between
        co-located tasks are *zero-hop* — they never enter the network and
        complete the instant they are released.
    fidelity:
        ``"exact"`` or ``"approx"`` (see module docstring).
    max_events:
        Safety valve against runaway event loops.
    route_cache:
        Optional :class:`~repro.engine.routes.RouteCache` shared between
        calls; one store per topology amortises route computation when
        many workloads replay on the same machine (the sweep runner does
        this), across policies and degraded views (see
        :func:`_make_route_fn`).  A plain dict is read and filled under
        its ``(src, dst)`` keys (:mod:`repro.engine.routes`).
    metrics:
        Optional :class:`repro.obs.MetricsCollector` (sized to this
        topology's link table).  When supplied, the engine feeds it
        per-link delivered bits and busy time, allocator statistics, and
        span timers, and attaches its snapshot as ``result.metrics``.
        The default (``None``) adds no work to the event loop.
    routing:
        Candidate-selection policy: ``"deterministic"`` (default; routes
        and results bitwise-identical to the single-path engine),
        ``"ecmp"`` (per-flow deterministic hash over the minimal
        candidates) or ``"adaptive"`` (per-flow least-congested candidate
        by live link occupancy, deterministic route as escape).  See
        :mod:`repro.routing.policy` and ``docs/routing.md``.
    fault_timeline:
        Optional :class:`~repro.topology.timeline.FaultTimeline`.  A
        non-empty timeline is the loop's second event source (see the
        module docstring): the network degrades and heals mid-run,
        in-flight flows are recovered across fault events, and
        ``result.transient`` carries the recovery counters.  Requires the
        *healthy* base topology (static faults belong in the timeline as
        events at ``t <= 0``).  ``None`` or an empty timeline gives results
        bitwise-identical to a call without the argument.
    """
    if fidelity not in _FIDELITIES:
        raise SimulationError(f"fidelity must be one of {_FIDELITIES}")
    routing = validate_policy(routing)
    placement = _check_placement(topology, flows, placement)
    collector = metrics
    if collector is not None:
        collector.set_routing(routing)

    n = flows.num_flows
    if n == 0:
        snap = collector.snapshot(topology, 0.0) if collector is not None \
            else None
        return SimulationResult(makespan=0.0, completion_times=np.empty(0),
                                start_times=np.empty(0),
                                fidelity=fidelity, num_flows=0,
                                reallocations=0, events=0, total_bits=0.0,
                                metrics=snap)

    epochs = ()
    if fault_timeline is not None and not fault_timeline.empty:
        if isinstance(topology, DegradedTopology):
            raise SimulationError(
                "fault timelines require the healthy base topology; encode "
                "static faults as timeline events at t <= 0 instead of "
                "wrapping with DegradedTopology")
        fault_timeline.validate(topology)
        epochs = fault_timeline.epochs()

    capacities = topology.links.capacities
    remaining = flows.size.copy()
    indegree = flows.indegree.copy()
    completion = np.full(n, np.nan)
    start = np.full(n, np.nan)
    weighted = flows.is_weighted
    weight_arr = flows.weight

    adaptive = routing == "adaptive"
    # adaptive routing admits and re-admits one flow at a time, and walks
    # approx-mode releases flow by flow: each selection must see the
    # occupancy the flow before it left, which a batch (route everything,
    # then add_many) would hide
    active = ActiveSet(capacities, weighted=weighted,
                       track_occupancy=adaptive)
    occupancy = (lambda: active.occupancy) if adaptive else None

    store = RouteCache.of(route_cache)
    src_ep = placement[flows.src]
    dst_ep = placement[flows.dst]
    co_located = src_ep == dst_ep   # zero-hop flows
    pair_index = flow_pairs(src_ep, dst_ep, topology.num_endpoints)

    counters = {"fault_events": 0, "flows_rerouted": 0, "flows_parked": 0,
                "flows_recovered": 0, "rerouted_bits": 0.0,
                "recovery_seconds": 0.0}
    #: flow id -> time it was parked (pair currently disconnected).
    parked: dict[int, float] = {}

    # epoch state: events at or before t=0 are the machine's state at job
    # start; later ones fire inside the loop.  ``view`` is the topology
    # flows route over; it is ``topology`` itself whenever no fault is in
    # force (always, without a timeline).
    def view_of(idx: int) -> Topology:
        if idx < 0 or epochs[idx].faults.empty:
            return topology
        return DegradedTopology(topology, epochs[idx].faults)

    def start_of(idx: int) -> float:
        return epochs[idx].start if idx < len(epochs) else math.inf

    epoch_idx = -1
    while start_of(epoch_idx + 1) <= 0.0:
        epoch_idx += 1
    view = view_of(epoch_idx)
    next_change = start_of(epoch_idx + 1)
    route_of, routes_of = _make_route_fn(view, src_ep, dst_ep, store,
                                         collector, routing, occupancy,
                                         pair_index)

    completed_count = 0

    def route_or_park(f: int, t: float) -> np.ndarray | None:
        """Route a flow over the current view, or park it until a repair.

        Propagates :class:`~repro.errors.DegradedNetworkError` when no
        later epoch exists — the pair can never reconnect, which is the
        one case the typed error is for.
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
        """Mark a flow ready at ``t``; zero-hop flows complete instantly.

        A flow whose route is empty (its tasks share an endpoint) never
        reaches the allocator — an empty route has no bottleneck link, so
        max-min allocation is undefined for it.  It completes at its
        release time, which can cascade through chains of co-located
        dependents; the cascade is iterative to keep deep chains safe.
        Returns the number of flows that entered the network.
        """
        nonlocal completed_count
        admitted = 0
        stack = [(fid, rate)]
        while stack:
            f, r = stack.pop()
            start[f] = t
            route = route_or_park(f, t)
            if route is None:
                continue  # parked; stays un-started until a repair
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

    def admit(fids: np.ndarray, t: float,
              rates: np.ndarray | None = None) -> int:
        """Route and add a batch of network flows released at ``t``.

        ``rates`` seeds each flow's rate (approx-mode inheritance; zero
        otherwise — every caller reallocates before such a rate is read).
        Routes come from the batched route fill; when a degraded view
        cuts a pair off, the batch routes flow by flow instead, so that
        the cut pair parks alone.  Returns the number of flows that
        entered the network.
        """
        start[fids] = t
        try:
            lens, entries = routes_of(fids)
        except DegradedNetworkError:
            if view is topology:
                raise
            keep: list[int] = []
            route_list = []
            for i, f in enumerate(fids.tolist()):
                route = route_or_park(f, t)
                if route is not None:
                    keep.append(i)
                    route_list.append(route)
            fids = fids[keep]
            if rates is not None:
                rates = rates[keep]
            lens, entries = _csr(route_list)
        active.add_many(fids, lens, entries, rates=rates,
                        weights=weight_arr[fids] if weighted else None)
        if collector is not None:
            for f, length in zip(fids.tolist(), lens.tolist()):
                collector.flow_injected(float(flows.size[f]), length)
        return fids.shape[0]

    succ_lo = flows.succ_indptr[:-1]
    succ_hi = flows.succ_indptr[1:]
    succ_indices = flows.succ_indices

    def successors_of(done_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The concatenated successor lists of ``done_ids`` and their
        lengths."""
        lo = succ_lo[done_ids]
        hi = succ_hi[done_ids]
        return succ_indices[_slices_concat(lo, hi)], hi - lo

    # per-flow scratch of release_ready, -1 between calls
    last_pos = np.full(n, -1, dtype=np.int64)

    def release_ready(succs: np.ndarray) -> np.ndarray:
        """Apply a batch's indegree decrements and return the positions in
        ``succs`` that released a flow, ascending.

        A successor can occur several times in ``succs`` (shared by
        same-instant completions, or a repeated dependency edge); in a
        per-flow walk the decrement that drives it to zero is its *last*
        occurrence, so that is the one position returned for a ready
        successor, and ascending positions are the walk's trigger order.
        """
        np.subtract.at(indegree, succs, 1)
        pos = np.arange(succs.shape[0], dtype=np.int64)
        np.maximum.at(last_pos, succs, pos)
        trig = ((last_pos[succs] == pos)
                & (indegree[succs] == 0)).nonzero()[0]
        last_pos[succs] = -1
        return trig

    def admit_batch(ready: np.ndarray, t: float) -> int:
        """Admit a batch of ready flows at ``t`` with a zero seeded rate.

        With a zero-hop flow among them the batch falls back to the
        per-flow cascade, in order, so the flows its completions release
        are admitted where the per-flow walk admits them.  Returns the
        number of flows that entered the network.
        """
        if not adaptive and not np.count_nonzero(co_located[ready]):
            return admit(ready, t)
        admitted = 0
        for f in ready.tolist():
            admitted += inject(f, t, 0.0)
        return admitted

    def release_batch(done_ids: np.ndarray, t: float) -> int:
        """Release every successor of a completed batch (vectorised).

        Equivalent to the per-flow successor walk (all released flows
        start at ``t`` and exact mode reallocates before any rate is
        read), but the indegree updates and admissions are batched.
        Returns the number of flows admitted to the network.
        """
        succs, _ = successors_of(done_ids)
        if succs.shape[0] == 0:
            return 0
        ready = succs[release_ready(succs)]
        if ready.shape[0] == 0:
            return 0
        return admit_batch(np.sort(ready), t)

    def release_inherit(done_ids: np.ndarray, done_rates: np.ndarray,
                        t: float) -> int:
        """Retire an approx-mode completion batch and release successors.

        Approx mode seeds each released flow with the rate of the
        predecessor whose decrement drove its indegree to zero — in a
        per-flow walk, the *last* occurrence of that successor across the
        batch's concatenated successor lists.  This vectorised path
        reproduces that pairing (:func:`release_ready`'s last-occurrence
        scatter) and admits the released flows in the same trigger
        order, so the inherited rates are bitwise those of the walk.
        Zero-hop successors complete instantly and cascade decrements
        that interleave with the batch's own, so their presence falls
        back to the sequential walk.  Returns the number of flows
        admitted to the network.
        """
        completion[done_ids] = t
        active.remove_many(done_ids)
        succs, lens = successors_of(done_ids)
        if succs.shape[0] == 0:
            return 0
        rep_rates = np.repeat(done_rates, lens)
        if np.count_nonzero(co_located[succs]):
            released = 0
            for f, r in zip(succs.tolist(), rep_rates.tolist()):
                indegree[f] -= 1
                if indegree[f] == 0:
                    released += inject(f, t, r)
            return released
        trig = release_ready(succs)
        if trig.shape[0] == 0:
            return 0
        return admit(succs[trig], t, rep_rates[trig])

    def readmit(f: int, route: np.ndarray,
                batch: list[tuple[int, np.ndarray]]) -> None:
        """Queue a rerouted or recovered flow for re-admission at a zero
        seeded rate; adaptive routing adds it at once, so the next
        selection sees the occupancy it leaves."""
        if adaptive:
            active.add(f, route, weight=float(weight_arr[f]) if weighted
                       else 1.0)
        else:
            batch.append((f, route))

    def readmit_batch(batch: list[tuple[int, np.ndarray]]) -> None:
        if batch:
            fids = np.asarray([f for f, _ in batch], dtype=np.int64)
            active.add_many(fids, *_csr([r for _, r in batch]),
                            weights=weight_arr[fids] if weighted else None)

    def apply_epoch(t: float) -> None:
        """Advance to the next epoch: swap the routing view, reroute the
        flows it cuts, and retry the parked ones."""
        nonlocal epoch_idx, view, route_of, routes_of, next_change
        epoch_idx += 1
        view = view_of(epoch_idx)
        next_change = start_of(epoch_idx + 1)
        route_of, routes_of = _make_route_fn(view, src_ep, dst_ep, store,
                                             collector, routing, occupancy,
                                             pair_index)
        counters["fault_events"] += 1

        # flows whose route the new fault state just cut (repairs disable
        # nothing, so a pure-repair epoch recovers parked flows only),
        # re-added after *all* removals in ascending-id order
        cut: list[int] = []
        if view is not topology and active.size:
            entries, lens = active.route_entries()
            cut = np.unique(np.repeat(active.flow_ids, lens)[
                view.disabled_link_mask()[entries]]).tolist()
        if cut:
            active.remove_many(np.asarray(cut, dtype=np.int64))
        batch: list[tuple[int, np.ndarray]] = []
        for f in cut:
            route = route_or_park(f, t)
            if route is None:
                continue
            readmit(f, route, batch)
            counters["flows_rerouted"] += 1
            counters["rerouted_bits"] += float(remaining[f])
        readmit_batch(batch)
        batch = []
        for f in sorted(parked):
            try:
                route = route_of(f)
            except DegradedNetworkError:
                continue  # still cut; retried at the next epoch
            readmit(f, route, batch)
            if collector is not None:
                collector.flow_injected(float(flows.size[f]), route.shape[0])
            counters["flows_recovered"] += 1
            counters["recovery_seconds"] += t - parked.pop(f)
            counters["rerouted_bits"] += float(remaining[f])
        readmit_batch(batch)
        if parked and epoch_idx + 1 >= len(epochs):
            pairs = [(int(src_ep[f]), int(dst_ep[f])) for f in sorted(parked)]
            raise DegradedNetworkError(
                pairs, faults=None if view is topology
                else view.faults.describe())

    roots = flows.roots()
    if roots.shape[0] == 0:
        raise SimulationError("no injectable flows: dependency graph has no roots")
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
            if not parked:
                raise SimulationError(
                    f"simulation stalled with {n - completed_count} flows "
                    "blocked (cyclic or unsatisfiable dependencies)")
            # everything in flight waits on a repair: jump straight to the
            # next fault event (route_or_park only parks when a later
            # epoch exists, so this terminates)
            now = max(now, next_change)
            apply_epoch(now)
            force_alloc = True
            events += 1
            if events > max_events:
                raise SimulationError(f"exceeded {max_events} events")
            continue
        if fidelity == "exact" or force_alloc \
                or churn >= max(1.0, CHURN_FRACTION * alloc_size):
            stats: dict | None = {} if collector is not None else None
            t0 = time.perf_counter() if collector is not None else 0.0
            active.allocate(stats=stats)
            if collector is not None:
                assert stats is not None
                if stats["relevel"]:
                    reason = "relevel"
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
        left = remaining[ids]
        with np.errstate(divide="ignore", invalid="ignore"):
            # a zero or NaN rate yields a non-finite deadline, reported as
            # a typed error below — never as a numpy RuntimeWarning
            deadlines = left / rates
        dt = float(deadlines.min())
        if not math.isfinite(dt):
            # a rate the allocator froze at a numerically-zero level (or a
            # 0/0 with an already-drained flow) has no defined deadline
            bad = ids[~np.isfinite(deadlines)]
            raise SimulationError(
                f"flow(s) {bad.tolist()[:8]} have a non-finite completion "
                f"deadline: the allocator froze them at zero rate "
                f"(fidelity={fidelity!r}, event {events})")

        if next_change < now + dt:
            # a fault event fires before the earliest completion: charge
            # partial progress, jump to the boundary, recover and re-plan.
            # Completions exactly *at* the boundary are not special-cased —
            # they fall out of the next iteration with dt == 0.
            dt_fault = next_change - now
            if collector is not None:
                collector.account_event(*active.route_entries(), rates,
                                        dt_fault)
            remaining[ids] = left - rates * dt_fault
            now = next_change
            apply_epoch(now)
            force_alloc = True
            events += 1
            if events > max_events:
                raise SimulationError(f"exceeded {max_events} events")
            continue

        # absolute+relative tie window: a pure relative one collapses to a
        # no-op when dt == 0 (simultaneous zero-size flows would then churn
        # one event each instead of batching)
        done = (deadlines <= dt + max(dt, 1.0) * _TIE_EPS).nonzero()[0]
        if collector is not None:
            collector.account_event(*active.route_entries(), rates, dt)
        now += dt
        # charge progress: left - rates * dt, in the deadlines' buffer
        np.subtract(left, np.multiply(rates, dt, out=deadlines), out=left)
        remaining[ids] = left

        done_ids = ids[done]        # materialised: removal moves slots
        done_rates = rates[done]
        remaining[done_ids] = 0.0
        released = 0
        if fidelity == "exact":
            # rates are reallocated before any released flow's rate is
            # read, so the completion batch processes vectorised
            completion[done_ids] = now
            active.remove_many(done_ids)
            released = release_batch(done_ids, now)
        else:
            # walk the batch in admission order, the per-flow walk's
            # order (slot order is not: a removal moves a tail slot down)
            walk = np.argsort(active.arrivals[done])
            if adaptive:
                for fid, rate in zip(done_ids[walk].tolist(),
                                     done_rates[walk].tolist()):
                    completion[fid] = now
                    active.remove(fid)
                    for succ in flows.successors(fid).tolist():
                        indegree[succ] -= 1
                        if indegree[succ] == 0:
                            # rate is inherited by the release (approx)
                            released += inject(succ, now, rate)
            else:
                released = release_inherit(done_ids[walk], done_rates[walk],
                                           now)
        completed_count += done_ids.shape[0]
        events += 1
        if events > max_events:
            raise SimulationError(f"exceeded {max_events} events")
        churn += done_ids.shape[0] + released

    snap = None
    if collector is not None:
        collector.add_time("event_loop", time.perf_counter() - loop_t0)
        if epochs:
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
                         "relevel_fills": active.relevel_fills,
                         "fill_rounds": active.fill_rounds},
        transient=dict(counters) if epochs else None,
    )


def _check_placement(topology: Topology, flows: FlowSet,
                     placement: np.ndarray | None) -> np.ndarray:
    if placement is None:
        if flows.num_tasks > topology.num_endpoints:
            raise SimulationError(
                f"workload has {flows.num_tasks} tasks but topology only "
                f"{topology.num_endpoints} endpoints; supply a placement")
        return np.arange(flows.num_tasks, dtype=np.int64)
    placement = np.asarray(placement, dtype=np.int64)
    if placement.shape != (flows.num_tasks,):
        raise SimulationError(f"placement must map all {flows.num_tasks} tasks")
    if placement.size == 0:
        # a zero-task workload's placement is vacuously valid; numpy's
        # min()/max() on a zero-size array would raise an opaque ValueError
        return placement
    if placement.min() < 0 or placement.max() >= topology.num_endpoints:
        raise SimulationError("placement maps tasks outside the topology")
    return placement
