"""The oracles: the reference allocator and the rebuild-per-event engine.

:class:`repro.engine.active.ActiveSet` is the only allocator and
:func:`repro.engine.simulate` the only event loop in ``src/``.  This
module keeps what they replaced as the references the equivalence suites
compare them against:

* :func:`allocate`, progressive filling recomputed from zero state over a
  freshly concatenated route CSR (:func:`pool_csr` gathers that CSR from
  an ``ActiveSet``'s pool);
* :func:`simulate_rebuild`, a per-flow completion walk that rebuilds the
  active list and the route CSR at every allocation and hands them to
  :func:`allocate`.  It routes on its own (:func:`oracle_route_fn`,
  through ``Topology.route`` and the per-pair walk enumerators of
  ``tests/walk_oracle.py``) and shares only the placement check and the
  loop constants with the engine under test.  Fault timelines are out of
  its scope.

:func:`assert_results_identical` is the comparison every equivalence
suite uses.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

import numpy as np

from repro.engine.active import ActiveSet
from repro.engine.flows import FlowSet
from repro.engine.maxmin import _COUNT_TOL, _SAT_TOL, _slices_concat
from repro.engine.results import SimulationResult
from repro.engine.simulator import (_FIDELITIES, _TIE_EPS, CHURN_FRACTION,
                                    _check_placement)
from repro.errors import SimulationError
from repro.routing.policy import ecmp_index, validate_policy
from repro.topology.base import Topology
from tests import walk_oracle

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsCollector


def pool_csr(active: ActiveSet) -> tuple[np.ndarray, np.ndarray]:
    """The set's active routes as the ``(link_entries, flow_ptr)`` CSR
    :func:`allocate` takes, gathered from its pool in slot order."""
    entries, lens = active.route_entries()
    ptr = np.zeros(lens.shape[0] + 1, dtype=np.int64)
    np.cumsum(lens, out=ptr[1:])
    return entries, ptr


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
        ``stats["iterations"]``, each iteration's increment and
        cumulative level to ``stats["deltas"]`` and ``stats["levels"]``,
        and the links each iteration saturated, ascending per iteration,
        to ``stats["saturated"]`` (one array of link ids per iteration).
        The default (``None``) adds no work to the loop.

    Returns
    -------
    numpy.ndarray
        Per-flow rate in bits/s; every rate is strictly positive.

    Written for numpy throughput: link ids are compacted to the links the
    batch uses; a link -> entries CSR is built once, so each saturated
    link's flows are gathered exactly once over the whole run; and each
    iteration is a masked minimum over the active links.
    :class:`~repro.engine.active.ActiveSet`'s fill kernel
    (:mod:`repro.engine.kernels.numpy_fill`) performs these same float
    operations on the same values — residual ``cap - delta * count`` per
    iteration, the ``_SAT_TOL`` capacity floor as the saturation test —
    but defers them on the links that cannot saturate soon, so its rates
    and iteration counts equal this routine's bit for bit (for weighted
    flows, up to the order in which equal-level weights leave a link's
    count: ascending flow id there, batch order here).
    """
    num_flows = flow_ptr.shape[0] - 1
    deltas: list[float] = []
    levels: list[float] = []
    saturated_links: list[np.ndarray] = []
    if stats is not None:
        stats.update(iterations=0, deltas=deltas, levels=levels,
                     saturated=saturated_links)
    if num_flows == 0:
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
        if stats is not None:
            deltas.append(delta)
            levels.append(level)
            saturated_links.append(used[saturated])
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



def assert_results_identical(a: SimulationResult, b: SimulationResult,
                             label_a: str, label_b: str) -> None:
    """Assert two simulation results are bitwise-identical.

    Every float compares equal (NaN patterns included), not merely close:
    the engine is specified as an *exact* replacement of the oracle, so
    any ULP of drift is a bug, not noise.
    """
    ctx = f"[{label_a} vs {label_b}]"
    assert a.makespan == b.makespan, \
        f"{ctx} makespan {a.makespan!r} != {b.makespan!r}"
    np.testing.assert_array_equal(
        a.completion_times, b.completion_times,
        err_msg=f"{ctx} completion_times differ")
    np.testing.assert_array_equal(
        a.start_times, b.start_times, err_msg=f"{ctx} start_times differ")
    assert a.events == b.events, \
        f"{ctx} events {a.events} != {b.events}"
    assert a.reallocations == b.reallocations, \
        f"{ctx} reallocations {a.reallocations} != {b.reallocations}"
    assert a.fidelity == b.fidelity and a.num_flows == b.num_flows, ctx
    assert a.transient == b.transient, \
        f"{ctx} transient counters {a.transient} != {b.transient}"


def adaptive_index(candidates: list, occupancy: np.ndarray) -> int:
    """The reference adaptive choice, candidate by candidate: the first
    candidate whose worst network link (its route less the first and
    last entries, the whole route when it has two links or fewer) is the
    least occupied.  :func:`repro.routing.policy.adaptive_block_index`
    computes it over a block."""
    best = 0
    best_score = None
    for i, route in enumerate(candidates):
        body = route[1:-1] if len(route) > 2 else route
        score = int(occupancy[body].max())
        if best_score is None or score < best_score:
            best, best_score = i, score
    return best


def oracle_route_fn(topology: Topology, src_ep: np.ndarray,
                    dst_ep: np.ndarray, memo: dict, routing: str,
                    occupancy=None):
    """``route_of(fid)``: each flow's route under ``routing``, from
    ``Topology.route`` (deterministic) or the walk oracle's candidates
    (:func:`tests.walk_oracle.route_candidates`, the multi-path
    policies), one pair at a time.

    Routes are memoised in ``memo`` under ``("oracle", ...)`` keys, which
    no engine path reads or writes, so a dict shared with the engine
    under test never hands the oracle a route the engine produced.
    """
    def route_of(fid: int) -> np.ndarray:
        s, d = int(src_ep[fid]), int(dst_ep[fid])
        if s == d:
            return np.empty(0, dtype=np.int64)
        key = ("oracle", routing == "deterministic", s, d)
        cands = memo.get(key)
        if cands is None:
            cands = memo[key] = [np.asarray(r, dtype=np.int64) for r in (
                [topology.route(s, d)] if routing == "deterministic"
                else walk_oracle.route_candidates(topology, s, d))]
        if routing == "ecmp":
            return cands[ecmp_index(fid, s, d, len(cands))]
        if routing == "adaptive" and len(cands) > 1:
            return cands[adaptive_index(cands, occupancy())]
        return cands[0]
    return route_of


def simulate_rebuild(topology: Topology, flows: FlowSet, *,
                     placement: np.ndarray | None = None,
                     fidelity: str = "exact",
                     max_events: int = 50_000_000,
                     route_cache: dict | None = None,
                     metrics: MetricsCollector | None = None,
                     routing: str = "deterministic") -> SimulationResult:
    """:func:`repro.engine.simulate`'s signature (minus the fault
    timeline) and argument validation, run on the rebuild engine."""
    if fidelity not in _FIDELITIES:
        raise SimulationError(f"fidelity must be one of {_FIDELITIES}")
    routing = validate_policy(routing)
    placement = _check_placement(topology, flows, placement)
    if metrics is not None:
        metrics.set_routing(routing)
    if flows.num_flows == 0:
        snap = metrics.snapshot(topology, 0.0) if metrics is not None \
            else None
        return SimulationResult(makespan=0.0, completion_times=np.empty(0),
                                start_times=np.empty(0),
                                fidelity=fidelity, num_flows=0,
                                reallocations=0, events=0, total_bits=0.0,
                                metrics=snap)
    return _simulate_rebuild(topology, flows, placement, fidelity,
                             max_events, route_cache, metrics, routing)


def _simulate_rebuild(topology: Topology, flows: FlowSet,
                      placement: np.ndarray, fidelity: str,
                      max_events: int,
                      route_cache: dict | None,
                      collector: MetricsCollector | None,
                      routing: str = "deterministic"
                      ) -> SimulationResult:
    """The historical rebuild-per-event engine, kept verbatim.

    Every event re-materialises the active list (Python list filtering),
    re-concatenates all active routes into a fresh CSR, and hands it to
    the reference :func:`allocate` to recompute
    progressive filling from zero state.  This is the baseline the
    incremental engine is benchmarked and verified against — both
    produce identical rates, makespans and event counts.
    """
    n = flows.num_flows
    capacities = topology.links.capacities
    remaining = flows.size.copy()
    indegree = flows.indegree.copy()
    completion = np.full(n, np.nan)
    start = np.full(n, np.nan)
    weighted = flows.is_weighted
    routes: list[np.ndarray | None] = [None] * n

    if route_cache is None:
        route_cache = {}
    src_ep = placement[flows.src]
    dst_ep = placement[flows.dst]
    # local occupancy mirror for adaptive selection (this engine has no
    # persistent ActiveSet to maintain one)
    occ = np.zeros(capacities.shape[0], dtype=np.int64) \
        if routing == "adaptive" else None
    route_of = oracle_route_fn(topology, src_ep, dst_ep, route_cache,
                               routing, (lambda: occ) if occ is not None
                               else None)

    completed_count = 0

    def inject(fid: int, t: float, rate: float,
               out_ids: list[int], out_rates: list[float]) -> None:
        nonlocal completed_count
        stack = [(fid, rate)]
        while stack:
            f, r = stack.pop()
            start[f] = t
            route = route_of(f)
            if collector is not None:
                collector.flow_injected(float(flows.size[f]), route.shape[0])
            if route.shape[0]:
                routes[f] = route
                if occ is not None:
                    occ[route] += 1
                out_ids.append(f)
                out_rates.append(r)
                continue
            completion[f] = t
            remaining[f] = 0.0
            completed_count += 1
            for succ in flows.successors(f).tolist():
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    stack.append((succ, r))

    roots = flows.roots().tolist()
    if not roots:
        raise SimulationError("no injectable flows: dependency graph has no roots")
    active: list[int] = []
    for fid in roots:
        inject(fid, 0.0, 0.0, active, [])
    rates = np.zeros(len(active), dtype=np.float64)  # aligned with `active`

    now = 0.0
    events = 0
    reallocations = 0
    churn = len(active)   # everything new -> allocate on first iteration
    alloc_size = 0
    loop_t0 = time.perf_counter() if collector is not None else 0.0

    while completed_count < n:
        if not active:
            raise SimulationError(
                f"simulation stalled with {n - completed_count} flows blocked "
                "(cyclic or unsatisfiable dependencies)")
        if fidelity == "exact" or churn >= max(1.0, CHURN_FRACTION * alloc_size):
            route_list = [routes[f] for f in active]
            entries = np.concatenate(route_list)
            ptr = np.zeros(len(active) + 1, dtype=np.int64)
            np.cumsum([r.shape[0] for r in route_list], out=ptr[1:])
            weights = flows.weight[np.asarray(active)] if weighted else None
            if collector is None:
                rates = allocate(entries, ptr, capacities, weights)
            else:
                stats: dict = {}
                t0 = time.perf_counter()
                rates = allocate(entries, ptr, capacities, weights,
                                 stats=stats)
                reason = "forced" if fidelity == "exact" else \
                    ("initial" if reallocations == 0 else "churn")
                collector.record_allocation(len(active), stats["iterations"],
                                            reason,
                                            time.perf_counter() - t0)
            reallocations += 1
            churn = 0
            alloc_size = len(active)

        ids = np.asarray(active, dtype=np.int64)
        with np.errstate(divide="ignore", invalid="ignore"):
            # a zero or NaN rate yields a non-finite deadline, reported as
            # a typed error below — never as a numpy RuntimeWarning
            deadlines = remaining[ids] / rates
        dt = float(deadlines.min())
        if not np.isfinite(dt):
            bad = ids[~np.isfinite(deadlines)]
            raise SimulationError(
                f"flow(s) {bad.tolist()[:8]} have a non-finite completion "
                f"deadline: the allocator froze them at zero rate "
                f"(fidelity={fidelity!r}, event {events})")
        done_mask = deadlines <= dt + max(dt, 1.0) * _TIE_EPS
        if collector is not None:
            route_list = [routes[f] for f in active]
            collector.account_event(
                np.concatenate(route_list),
                np.asarray([r.shape[0] for r in route_list], dtype=np.int64),
                rates, dt)
        now += dt
        remaining[ids] -= rates * dt
        remaining[ids[done_mask]] = 0.0

        done_ids = ids[done_mask]
        done_rates = rates[done_mask]
        released: list[int] = []
        released_rates: list[float] = []
        for fid, rate in zip(done_ids.tolist(), done_rates.tolist()):
            completion[fid] = now
            if occ is not None:
                occ[routes[fid]] -= 1
            routes[fid] = None  # release the route reference
            for succ in flows.successors(fid).tolist():
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    # rate is inherited by the release (approx mode)
                    inject(succ, now, rate, released, released_rates)
        completed_count += int(done_mask.sum())
        events += 1
        if events > max_events:
            raise SimulationError(f"exceeded {max_events} events")

        keep = ~done_mask
        active = [f for f, k in zip(active, keep.tolist()) if k] + released
        rates = np.concatenate([rates[keep], np.asarray(released_rates)]) \
            if released else rates[keep]
        churn += len(done_ids) + len(released)

    snap = None
    if collector is not None:
        collector.add_time("event_loop", time.perf_counter() - loop_t0)
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
        allocator_stats={"allocator": "rebuild",
                         "full_passes": reallocations,
                         "warm_fills": 0,
                         "relevel_fills": 0},
    )
