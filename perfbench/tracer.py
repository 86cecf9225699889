"""Layer tracing from outside the program.

The benchmark never edits ``repro``.  A :class:`Tracer` wraps public
functions and methods of each layer (``topology``, ``workloads``,
``routing``, ``engine``, ``sweep``, ``service``, ``obs``) with spans and
counters, and :meth:`Tracer.uninstall` restores the originals.

Spans nest per thread.  Each span's *self time* is its duration minus the
time its child spans cover; a child adds its duration to the parent when
it closes.  Spans are aggregated per name as they close (count, total,
self) instead of being stored one by one, because the routing layer alone
opens tens of thousands of spans per cell.  A span opened while the
innermost open span already has the same name is not recorded, so a
public wrapper that calls another public wrapper of the same layer is
counted once.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import Counter, defaultdict

#: Layers of the layer → metric vocabulary, in report order.
LAYERS = ("topology", "workloads", "routing", "engine", "sweep", "service",
          "obs")


class Tracer:
    """Per-thread span stacks, aggregated per span name."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        #: span name -> [count, total seconds, self seconds]
        self.spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: Counter = Counter()
        #: span name -> individual durations, for names asked to keep them
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.keep_samples: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------------- spans
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str):
        """Open a span; returns its frame (``None`` when re-entrant)."""
        stack = self._stack()
        if stack and stack[-1][0] == name:
            return None
        frame = [name, self.clock(), 0.0]
        stack.append(frame)
        return frame

    def end(self, frame, name: str | None = None) -> float:
        """Close ``frame`` (optionally under another name); returns its
        duration."""
        if frame is None:
            return 0.0
        now = self.clock()
        stack = self._stack()
        stack.pop()
        dur = now - frame[1]
        if stack:
            stack[-1][2] += dur
        name = name or frame[0]
        with self._lock:
            agg = self.spans[name]
            agg[0] += 1
            agg[1] += dur
            agg[2] += dur - frame[2]
            if name in self.keep_samples:
                self.samples[name].append(dur)
        return dur

    def count(self, name: str, n: int | float = 1) -> None:
        with self._lock:
            self.counters[name] += n

    # ------------------------------------------------------------- patching
    def patch(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` by ``make(original)``; undone by
        :meth:`uninstall`."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Time every call of ``owner.attr`` as span ``name``.

        ``after(result, args, kwargs)`` runs once the span has closed, to
        derive counters from the call.
        """
        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                frame = self.begin(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.end(frame)
                if after is not None and frame is not None:
                    after(result, args, kwargs)
                return result
            return traced
        self.patch(owner, attr, make)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -------------------------------------------------------------- reading
    def total(self, name: str) -> float:
        return self.spans[name][1] if name in self.spans else 0.0

    def self_time(self, name: str) -> float:
        return self.spans[name][2] if name in self.spans else 0.0

    def calls(self, name: str) -> int:
        return self.spans[name][0] if name in self.spans else 0

    def layer_split(self) -> dict[str, dict]:
        """Self time and span count per layer (the prefix of a span name)."""
        out = {layer: {"self_s": 0.0, "spans": 0} for layer in LAYERS}
        for name, (count, _, self_s) in self.spans.items():
            layer = name.split(".", 1)[0]
            row = out.setdefault(layer, {"self_s": 0.0, "spans": 0})
            row["self_s"] += self_s
            row["spans"] += count
        return out

    def dump(self) -> dict:
        """A JSON-ready copy (the traced server writes one on exit)."""
        return {"spans": {k: list(v) for k, v in self.spans.items()},
                "counters": dict(self.counters),
                "samples": {k: list(v) for k, v in self.samples.items()}}

    def merge(self, doc: dict) -> None:
        """Fold a :meth:`dump` from another process into this tracer."""
        for name, (count, total, self_s) in doc["spans"].items():
            agg = self.spans[name]
            agg[0] += count
            agg[1] += total
            agg[2] += self_s
        self.counters.update(doc["counters"])
        for name, values in doc["samples"].items():
            self.samples[name].extend(values)


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer's public entry points with ``tracer`` spans."""
    import repro
    import repro.engine
    import repro.engine.simulator
    import repro.service.broker
    import repro.sweep
    import repro.sweep.runner
    import repro.topology
    from repro.core.config import TopologySpec, WorkloadSpec
    from repro.engine.active import ActiveSet
    from repro.obs.metrics import MetricsCollector
    from repro.obs.stream import MetricsStream
    from repro.service.broker import Broker
    from repro.service.store import ResultStore
    from repro.topology.base import Topology

    t = tracer

    # topology: every build path ends in repro.topology.build
    t.wrap(TopologySpec, "build", "topology.build",
           after=lambda *_: t.count("topology.builds"))
    t.wrap(repro.topology, "build", "topology.build",
           after=lambda *_: t.count("topology.builds"))

    # workloads: the spec yields a workload object whose build() makes flows
    def flows_built(flows, args, kwargs):
        t.count("workloads.builds")
        t.count("workloads.flows", flows.num_flows)

    def spec_build(fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = t.begin("workloads.build")
            try:
                workload = fn(*args, **kwargs)
            finally:
                t.end(frame)
            inner = workload.build

            @functools.wraps(inner)
            def build():
                f = t.begin("workloads.build")
                try:
                    flows = inner()
                finally:
                    t.end(f)
                flows_built(flows, (), {})
                return flows
            workload.build = build
            return workload
        return traced
    t.patch(WorkloadSpec, "build", spec_build)

    # routing: both route entry points live on the Topology base class
    t.wrap(Topology, "route", "routing.route",
           after=lambda *_: t.count("routing.computed"))
    t.wrap(Topology, "route_candidates", "routing.route",
           after=lambda *_: t.count("routing.computed"))

    # engine: simulate is re-exported under several module names
    def simulated(result, args, kwargs):
        t.count("engine.cells")
        t.count("engine.events", result.events)
        t.count("engine.reallocations", result.reallocations)
    for module in (repro, repro.engine, repro.engine.simulator,
                   repro.sweep.runner):
        t.wrap(module, "simulate", "engine.simulate", after=simulated)

    def allocate(fn):
        @functools.wraps(fn)
        def traced(self, stats=None):
            before = (self.full_passes, self.relevel_fills, self.warm_fills)
            info = {} if stats is None else stats
            frame = t.begin("engine.alloc")
            try:
                out = fn(self, stats=info)
            finally:
                after = (self.full_passes, self.relevel_fills,
                         self.warm_fills)
                kind = ("full", "relevel", "warm")[
                    [a - b for a, b in zip(after, before)].index(1)] \
                    if after != before else "noop"
                t.end(frame, f"engine.alloc_{kind}")
            t.count("engine.fill_iterations", info.get("iterations", 0))
            return out
        return traced
    t.patch(ActiveSet, "allocate", allocate)
    t.wrap(ActiveSet, "add", "engine.admit",
           after=lambda *_: t.count("engine.admitted"))
    t.wrap(ActiveSet, "add_many", "engine.admit",
           after=lambda r, a, k: t.count("engine.admitted", len(a[1])))
    t.wrap(ActiveSet, "remove", "engine.retire")
    t.wrap(ActiveSet, "remove_many", "engine.retire")

    # sweep: the runner's entry point and the broker's imported name
    def swept(records, args, kwargs):
        t.count("sweep.runs")
        t.count("sweep.cells", len(args[0].cells))
    for module in (repro.sweep, repro.sweep.runner):
        t.wrap(module, "run_sweep", "sweep.run", after=swept)

    # service: admission, queue wait, store reads and writes.  A cell's
    # queue wait runs from the submit that enqueued it to the start of
    # the batch sweep that takes it.
    t.keep_samples.update({"service.store_get", "service.store_put"})
    enqueued_at: dict[str, float] = {}

    def submit(fn):
        @functools.wraps(fn)
        def traced(self, tenant, cell):
            before = self.counters["enqueued"]
            frame = t.begin("service.submit")
            try:
                return fn(self, tenant, cell)
            finally:
                t.end(frame)
                if self.counters["enqueued"] != before:
                    enqueued_at[cell.key()] = t.clock()
        return traced
    t.patch(Broker, "submit", submit)

    def batch_sweep(fn):
        @functools.wraps(fn)
        def traced(plan, **kwargs):
            now = t.clock()
            for cell in plan.cells:
                queued = enqueued_at.pop(cell.key(), None)
                if queued is not None:
                    with t._lock:
                        t.samples["service.queue_wait"].append(now - queued)
            frame = t.begin("sweep.run")
            try:
                return fn(plan, **kwargs)
            finally:
                t.end(frame)
                swept(None, (plan,), kwargs)
        return traced
    t.patch(repro.service.broker, "run_sweep", batch_sweep)
    t.wrap(ResultStore, "get", "service.store_get")
    t.wrap(ResultStore, "put", "service.store_put")

    # obs: per-event accounting and the per-cell metrics stream
    t.wrap(MetricsCollector, "account_event", "obs.account")
    t.wrap(MetricsStream, "write_cell", "obs.stream")
    return tracer
