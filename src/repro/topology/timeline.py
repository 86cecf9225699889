"""Transient fault timelines: seeded failure/repair event sequences.

The static fault model (:class:`~repro.topology.degraded.FaultSet`) fixes
the broken machine before a simulation starts.  At the paper's
131,072-QFDB scale, component MTBF guarantees faults arrive *during* jobs:
this module provides the reproducible event sequences that
:func:`repro.engine.simulate` merges with flow completions as a second
event source, so the network degrades and heals mid-run.

A :class:`FaultTimeline` is an ordered sequence of :class:`FaultEvent`
records with absolute timestamps.  Events at or before t=0 describe the
machine's state at job start (equivalent to a static fault set); later
events fire inside the event loop.  :meth:`FaultTimeline.epochs` folds the
events into cumulative :class:`TimelineEpoch` states — each carrying the
full :class:`~repro.topology.degraded.FaultSet` in force from its start
time — which is what the engine and the route cache keys consume: a
repaired machine's epoch has a *smaller* fault set, and a fully-healed
epoch reuses the healthy cache partition outright.

:class:`TimelineSpec` is the declarative form a
:class:`~repro.sweep.plan.SweepCell` embeds: a seeded sampling recipe
(``cables`` uniform failure times over ``[0, horizon)``, exponential
repairs with mean ``mttr``) that reproduces the same timeline wherever the
cell runs — the Monte-Carlo campaign runner fans one spec per seed across
the sweep workers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import TopologyError
from repro.topology.base import Topology
from repro.topology.degraded import FaultSet, validate_fault_ids
from repro.topology.faults import duplex_cables, uplink_ports


@dataclass(frozen=True)
class FaultEvent:
    """Everything that happens to the machine at one instant.

    ``fail_links``/``repair_links`` hold *directed* link ids — like
    :class:`~repro.topology.degraded.FaultSet`, always both directions of
    each cable.  ``fail_uplinks``/``repair_uplinks`` hold endpoint ids
    whose upper-tier port dies/returns (hybrids only).
    """

    time: float
    fail_links: frozenset[int] = frozenset()
    fail_uplinks: frozenset[int] = frozenset()
    repair_links: frozenset[int] = frozenset()
    repair_uplinks: frozenset[int] = frozenset()

    @property
    def empty(self) -> bool:
        return not (self.fail_links or self.fail_uplinks
                    or self.repair_links or self.repair_uplinks)


@dataclass(frozen=True)
class TimelineEpoch:
    """The cumulative fault state in force from ``start`` onwards."""

    start: float
    faults: FaultSet


class FaultTimeline:
    """A reproducible, time-ordered sequence of fault and repair events.

    Events are sorted by time and same-instant events are merged on
    construction; :meth:`epochs` materialises the cumulative fault states.
    An empty timeline is the healthy machine —
    :func:`repro.engine.simulate` treats it exactly like no timeline at
    all (bitwise-identical results).
    """

    def __init__(self, events=(), *,
                 provenance: tuple | None = None) -> None:
        merged: dict[float, list[frozenset[int]]] = {}
        for ev in events:
            if ev.empty:
                continue
            slot = merged.setdefault(float(ev.time),
                                     [frozenset(), frozenset(),
                                      frozenset(), frozenset()])
            slot[0] |= ev.fail_links
            slot[1] |= ev.fail_uplinks
            slot[2] |= ev.repair_links
            slot[3] |= ev.repair_uplinks
        out = []
        for t in sorted(merged):
            fl, fu, rl, ru = merged[t]
            both = (fl & rl) | (fu & ru)
            if both:
                raise TopologyError(
                    f"timeline fails and repairs the same component(s) "
                    f"{sorted(both)[:8]} at t={t:g}")
            out.append(FaultEvent(t, fl, fu, rl, ru))
        self.events: tuple[FaultEvent, ...] = tuple(out)
        self.provenance = provenance
        self._epochs: tuple[TimelineEpoch, ...] | None = None

    # -------------------------------------------------------------- sampling
    @classmethod
    def sample(cls, topology: Topology, *, cables: int = 0, uplinks: int = 0,
               seed: int = 0, horizon: float,
               mttr: float | None = None) -> FaultTimeline:
        """Draw a seeded timeline of transient faults over ``[0, horizon)``.

        ``cables`` distinct duplex cables (NIC links never fail) and
        ``uplinks`` distinct uplink ports (hybrids only) each fail at a
        uniform time in ``[0, horizon)``; with ``mttr`` each failure is
        repaired after an independent Exp(``mttr``) delay, otherwise
        failures are permanent.  Reproducible: the same ``(topology,
        cables, uplinks, seed, horizon, mttr)`` always yields the same
        timeline, wherever it is rebuilt (the campaign workers rely on
        this).
        """
        if cables < 0 or uplinks < 0:
            raise TopologyError(
                f"fault counts must be non-negative, got cables={cables}, "
                f"uplinks={uplinks}")
        if not horizon > 0:
            raise TopologyError(
                f"timeline horizon must be positive, got {horizon}")
        if mttr is not None and not mttr > 0:
            raise TopologyError(
                f"mttr must be positive (or None for permanent faults), "
                f"got {mttr}")
        events: list[FaultEvent] = []
        if cables:
            pairs = duplex_cables(topology, cables)
            # independent sub-streams: cable identity, failure times and
            # repair delays never perturb each other across parameter changes
            rng = np.random.default_rng([seed, 0x71])
            chosen = rng.choice(len(pairs), size=cables, replace=False)
            times = rng.uniform(0.0, horizon, size=cables)
            delays = rng.exponential(mttr, size=cables) if mttr else None
            for i in range(cables):
                lids = frozenset(pairs[int(chosen[i])])
                t = float(times[i])
                events.append(FaultEvent(t, fail_links=lids))
                if delays is not None:
                    events.append(FaultEvent(t + float(delays[i]),
                                             repair_links=lids))
        if uplinks:
            ports = uplink_ports(topology, uplinks)
            rng = np.random.default_rng([seed, 0x7A])
            chosen = rng.choice(len(ports), size=uplinks, replace=False)
            times = rng.uniform(0.0, horizon, size=uplinks)
            delays = rng.exponential(mttr, size=uplinks) if mttr else None
            for i in range(uplinks):
                port = frozenset({ports[int(chosen[i])]})
                t = float(times[i])
                events.append(FaultEvent(t, fail_uplinks=port))
                if delays is not None:
                    events.append(FaultEvent(t + float(delays[i]),
                                             repair_uplinks=port))
        return cls(events, provenance=(
            cables, uplinks, seed, float(horizon),
            None if mttr is None else float(mttr)))

    @classmethod
    def from_fault_set(cls, faults: FaultSet,
                       time: float = 0.0) -> FaultTimeline:
        """A timeline equivalent to a static fault set from ``time`` on.

        With ``time <= 0`` and no further events, a transient run matches
        the static ``DegradedTopology`` run exactly (the regression suite
        asserts this).
        """
        if faults.empty:
            return cls(())
        return cls((FaultEvent(time, fail_links=faults.failed_links,
                               fail_uplinks=faults.failed_uplinks),))

    # ------------------------------------------------------------- inspection
    @property
    def empty(self) -> bool:
        return not self.events

    def epochs(self) -> tuple[TimelineEpoch, ...]:
        """Cumulative fault states, one per event instant, in time order.

        Strict bookkeeping: failing an already-failed component or
        repairing a healthy one raises — a hand-built timeline that does
        either is almost certainly mis-specified, and silently coalescing
        would make the repair/failure counts lie.
        """
        if self._epochs is None:
            links: set[int] = set()
            uplinks: set[int] = set()
            out = []
            for ev in self.events:
                double = ev.fail_links & links
                if double:
                    raise TopologyError(
                        f"timeline fails already-failed link(s) "
                        f"{sorted(double)[:8]} at t={ev.time:g}")
                ghost = ev.repair_links - links
                if ghost:
                    raise TopologyError(
                        f"timeline repairs link(s) {sorted(ghost)[:8]} that "
                        f"are not failed at t={ev.time:g}")
                double_u = ev.fail_uplinks & uplinks
                if double_u:
                    raise TopologyError(
                        f"timeline fails already-dead uplink port(s) "
                        f"{sorted(double_u)[:8]} at t={ev.time:g}")
                ghost_u = ev.repair_uplinks - uplinks
                if ghost_u:
                    raise TopologyError(
                        f"timeline repairs uplink port(s) "
                        f"{sorted(ghost_u)[:8]} that are not dead at "
                        f"t={ev.time:g}")
                links -= ev.repair_links
                links |= ev.fail_links
                uplinks -= ev.repair_uplinks
                uplinks |= ev.fail_uplinks
                out.append(TimelineEpoch(ev.time,
                                         FaultSet(frozenset(links),
                                                  frozenset(uplinks))))
            self._epochs = tuple(out)
        return self._epochs

    def validate(self, topology: Topology) -> None:
        """Range-check every event against ``topology`` and the bookkeeping.

        Raises :class:`~repro.errors.TopologyError` naming the offending
        ids — the same checks :class:`~repro.topology.degraded
        .DegradedTopology` applies to a static fault set at wrap time.
        """
        for ev in self.events:
            validate_fault_ids(topology, ev.fail_links, ev.fail_uplinks)
            validate_fault_ids(topology, ev.repair_links, ev.repair_uplinks)
        self.epochs()

    def fingerprint(self) -> dict:
        """Checkpoint-stable description of this timeline."""
        if self.provenance is not None:
            cables, uplinks, seed, horizon, mttr = self.provenance
            return {"cables": cables, "uplinks": uplinks, "seed": seed,
                    "horizon": horizon, "mttr": mttr}
        return {"events": [
            [ev.time, sorted(ev.fail_links), sorted(ev.fail_uplinks),
             sorted(ev.repair_links), sorted(ev.repair_uplinks)]
            for ev in self.events]}

    def describe(self) -> str:
        fails = sum(len(ev.fail_links) // 2 + len(ev.fail_uplinks)
                    for ev in self.events)
        repairs = sum(len(ev.repair_links) // 2 + len(ev.repair_uplinks)
                      for ev in self.events)
        if not self.events:
            return "empty timeline"
        span = (self.events[0].time, self.events[-1].time)
        return (f"{fails} failures, {repairs} repairs over "
                f"[{span[0]:g}s, {span[1]:g}s]")


@dataclass(frozen=True)
class TimelineSpec:
    """Declarative, hashable sampling recipe for a :class:`FaultTimeline`.

    The sweep-cell form of a timeline: small enough to pickle to workers
    and to fingerprint into checkpoint keys, rebuilt into the identical
    timeline wherever the cell runs (sampling is seeded).  ``horizon`` and
    ``mttr`` are absolute seconds — the campaign runner derives them from
    each topology's healthy makespan.
    """

    cables: int = 0
    uplinks: int = 0
    seed: int = 0
    horizon: float = 1.0
    mttr: float | None = None

    def build(self, topology: Topology) -> FaultTimeline:
        return FaultTimeline.sample(
            topology, cables=self.cables, uplinks=self.uplinks,
            seed=self.seed, horizon=self.horizon, mttr=self.mttr)

    def fingerprint(self) -> dict:
        return {"cables": self.cables, "uplinks": self.uplinks,
                "seed": self.seed, "horizon": self.horizon,
                "mttr": self.mttr}

    def label(self) -> str:
        """Checkpoint-key suffix; %.9g keeps float horizons stable."""
        mttr = "-" if self.mttr is None else f"{self.mttr:.9g}"
        return (f"tl({self.cables},{self.uplinks},s{self.seed},"
                f"h{self.horizon:.9g},r{mttr})")
