"""Opt-in engine instrumentation (the ``repro.obs`` collector).

The simulator reports *what* happened (makespan, event count); this module
records *why*: which links carried the bits, how long each tier stayed
busy, how the allocator's batches behaved, and where the wall-clock time
went.  A :class:`MetricsCollector` is handed to
:func:`repro.engine.simulate` via its ``metrics`` keyword; the default
(``None``) leaves the hot path untouched — every instrumentation site is
gated on ``collector is not None``, so a metrics-off run executes the same
instructions as before the layer existed.

What the engine feeds the collector:

* per-link **delivered bits** (``rate * dt`` accumulated per traversed
  link per event) and **busy time** (seconds during which a link carried
  at least one flow);
* per-allocation **batch size**, **progressive-filling iterations** and
  the trigger (``forced`` for exact mode's per-event reallocation,
  ``churn``/``initial`` for approx mode's bounded-churn policy,
  ``relevel`` for the incremental allocator's relevels, which resume the
  previous fill after pure removals);
* **span timers** around route construction, bandwidth allocation, and
  the whole event loop.

:meth:`MetricsCollector.snapshot` folds the per-link vectors through the
topology's :meth:`~repro.topology.base.Topology.link_tiers` metadata into
a schema-versioned, JSON-serialisable record, so a Figure 4/5 anomaly can
be explained as "the uplinks tier ran at 97% occupancy".
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError

#: Schema tag stamped on every snapshot; bump when the layout changes.
SCHEMA_VERSION = "repro-metrics-v2"

#: Keys every snapshot must carry to validate.
_SNAPSHOT_FIELDS = frozenset({
    "schema", "makespan_s", "events", "network_flows", "zero_hop_flows",
    "injected_bits", "routed_link_bits", "delivered_link_bits",
    "allocator", "timers_s", "tiers",
})

#: Keys of each per-tier summary.
_TIER_FIELDS = frozenset({
    "links", "delivered_bits", "busy_seconds", "capacity_bits_per_s",
    "mean_utilisation", "peak_utilisation", "occupancy",
})

_ALLOCATOR_FIELDS = frozenset({
    "allocations", "batch_flows_total", "batch_flows_max",
    "filling_iterations_total", "filling_iterations_max",
    "churn_reallocations", "forced_reallocations", "initial_allocations",
    "relevel_reallocations", "fault_reallocations",
})


class MetricsCollector:
    """Accumulates one simulation's instrumentation (see module docstring).

    One collector serves one :func:`~repro.engine.simulate` call; sized to
    the topology's link table so per-link accumulation is plain vectorised
    indexing.
    """

    def __init__(self, num_links: int) -> None:
        if num_links < 0:
            raise ConfigError(f"num_links must be >= 0, got {num_links}")
        self.link_bits = np.zeros(num_links, dtype=np.float64)
        self.link_busy = np.zeros(num_links, dtype=np.float64)
        self.events = 0
        self.network_flows = 0
        self.zero_hop_flows = 0
        self.injected_bits = 0.0
        self.routed_link_bits = 0.0   # sum over flows of size * route length
        self.allocations = 0
        self.batch_flows_total = 0
        self.batch_flows_max = 0
        self.filling_iterations_total = 0
        self.filling_iterations_max = 0
        self.alloc_reasons = {"forced": 0, "churn": 0, "initial": 0,
                              "relevel": 0}
        self.timers_s: dict[str, float] = {}
        self.routing = "deterministic"
        self.transient: dict | None = None

    def set_routing(self, policy: str) -> None:
        """Record which routing policy the engine ran under (snapshotted)."""
        self.routing = policy

    # ------------------------------------------------------------- feed sites
    def flow_injected(self, size_bits: float, route_len: int) -> None:
        """A flow entered the network (zero-hop flows report length 0)."""
        if route_len:
            self.network_flows += 1
            self.injected_bits += size_bits
            self.routed_link_bits += size_bits * route_len
        else:
            self.zero_hop_flows += 1

    def account_event(self, entries: np.ndarray, lens: np.ndarray,
                      rates: np.ndarray, dt: float) -> None:
        """One event-loop step: every active flow moved ``rate * dt`` bits
        over every link of its route, and each touched link was busy for
        ``dt`` seconds.  ``entries`` holds the flows' routes concatenated
        (flow ``i`` owns ``lens[i]`` link ids), aligned with ``rates``."""
        self.events += 1
        if dt <= 0.0 or not lens.shape[0]:
            return
        # bincount beats np.add.at by a wide margin on repeated indices;
        # allocated rates are strictly positive, so the non-zero pattern
        # of the moved bits doubles as the busy-link mask
        moved = np.bincount(entries, weights=np.repeat(rates * dt, lens),
                            minlength=self.link_bits.shape[0])
        self.link_bits += moved
        self.link_busy[moved > 0.0] += dt

    def record_allocation(self, batch_size: int, iterations: int,
                          reason: str, seconds: float) -> None:
        """One max-min allocation: batch size, filling rounds, trigger."""
        self.allocations += 1
        self.batch_flows_total += batch_size
        self.batch_flows_max = max(self.batch_flows_max, batch_size)
        self.filling_iterations_total += iterations
        self.filling_iterations_max = max(self.filling_iterations_max,
                                          iterations)
        self.alloc_reasons[reason] = self.alloc_reasons.get(reason, 0) + 1
        self.add_time("allocation", seconds)

    def add_time(self, name: str, seconds: float) -> None:
        """Accumulate wall-clock time under a span name."""
        self.timers_s[name] = self.timers_s.get(name, 0.0) + seconds

    def record_transient(self, counters: dict) -> None:
        """Attach a fault-timeline run's recovery counters (snapshotted)."""
        self.transient = dict(counters)

    # --------------------------------------------------------------- snapshot
    def snapshot(self, topology, makespan: float) -> dict:
        """Schema-versioned, JSON-serialisable summary of the run.

        Per-link vectors are folded into per-tier aggregates through the
        topology's link metadata; the tier ``delivered_bits`` columns sum
        to ``delivered_link_bits`` exactly (tiers partition the links).
        """
        names, index = topology.link_tiers()
        caps = topology.links.capacities
        tiers: dict[str, dict] = {}
        for i, name in enumerate(names):
            mask = index == i
            nlinks = int(mask.sum())
            bits = float(self.link_bits[mask].sum())
            busy = float(self.link_busy[mask].sum())
            cap = float(caps[mask].sum())
            if makespan > 0 and nlinks:
                mean_util = bits / (cap * makespan)
                peak_util = float(
                    (self.link_bits[mask] / (caps[mask] * makespan)).max())
                occupancy = busy / (nlinks * makespan)
            else:
                mean_util = peak_util = occupancy = 0.0
            tiers[name] = {
                "links": nlinks,
                "delivered_bits": bits,
                "busy_seconds": busy,
                "capacity_bits_per_s": cap,
                "mean_utilisation": mean_util,
                "peak_utilisation": peak_util,
                "occupancy": occupancy,
            }
        out = {
            "schema": SCHEMA_VERSION,
            # extra key relative to _SNAPSHOT_FIELDS: validation checks
            # missing fields only, so older snapshots keep validating
            "routing": self.routing,
            "makespan_s": float(makespan),
            "events": self.events,
            "network_flows": self.network_flows,
            "zero_hop_flows": self.zero_hop_flows,
            "injected_bits": self.injected_bits,
            "routed_link_bits": self.routed_link_bits,
            "delivered_link_bits": float(self.link_bits.sum()),
            "allocator": {
                "allocations": self.allocations,
                "batch_flows_total": self.batch_flows_total,
                "batch_flows_max": self.batch_flows_max,
                "filling_iterations_total": self.filling_iterations_total,
                "filling_iterations_max": self.filling_iterations_max,
                "churn_reallocations": self.alloc_reasons.get("churn", 0),
                "forced_reallocations": self.alloc_reasons.get("forced", 0),
                "initial_allocations": self.alloc_reasons.get("initial", 0),
                "relevel_reallocations": self.alloc_reasons.get("relevel",
                                                                0),
                "fault_reallocations": self.alloc_reasons.get("fault", 0),
            },
            "timers_s": {k: float(v) for k, v in sorted(self.timers_s.items())},
            "tiers": tiers,
        }
        if self.transient is not None:
            # extra key (validation checks missing fields only): recovery
            # recovery counters of a fault-timeline run, absent otherwise
            out["transient"] = dict(self.transient)
        return out


def validate_snapshot(doc: dict) -> None:
    """Raise :class:`~repro.errors.ConfigError` unless ``doc`` is a valid
    :data:`SCHEMA_VERSION` snapshot (shape and basic sanity, not values)."""
    if not isinstance(doc, dict):
        raise ConfigError(f"metrics snapshot must be a dict, got {type(doc)}")
    if doc.get("schema") != SCHEMA_VERSION:
        raise ConfigError(
            f"unknown metrics schema {doc.get('schema')!r}; "
            f"expected {SCHEMA_VERSION!r}")
    missing = _SNAPSHOT_FIELDS - doc.keys()
    if missing:
        raise ConfigError(f"metrics snapshot missing fields: {sorted(missing)}")
    alloc = doc["allocator"]
    if not isinstance(alloc, dict) or _ALLOCATOR_FIELDS - alloc.keys():
        raise ConfigError("metrics snapshot has a malformed allocator block")
    tiers = doc["tiers"]
    if not isinstance(tiers, dict) or not tiers:
        raise ConfigError("metrics snapshot has no tier breakdown")
    for name, tier in tiers.items():
        if not isinstance(tier, dict) or _TIER_FIELDS - tier.keys():
            raise ConfigError(f"tier {name!r} summary is malformed")
        if tier["links"] < 0 or tier["delivered_bits"] < 0:
            raise ConfigError(f"tier {name!r} has negative aggregates")
    total = sum(t["delivered_bits"] for t in tiers.values())
    delivered = doc["delivered_link_bits"]
    if abs(total - delivered) > 1e-6 * max(1.0, abs(delivered)):
        raise ConfigError(
            f"tier delivered_bits sum {total} != delivered_link_bits "
            f"{delivered}")
