"""Flow-level network simulation engine (the INRFlow substitute).

Pipeline: a workload builds a :class:`~repro.engine.flows.FlowSet` (a DAG of
sized point-to-point flows), :func:`~repro.engine.simulator.simulate` runs
it on a topology under max-min fair bandwidth sharing, and
:func:`~repro.engine.static.analyze` provides the application-independent
link-load view.
"""

from repro.engine.active import ActiveSet
from repro.engine.flows import FlowBuilder, FlowSet
from repro.engine.maxmin import bottleneck_lower_bound
from repro.engine.results import LinkLoadReport, SimulationResult
from repro.engine.routes import RouteCache
from repro.engine.simulator import simulate
from repro.engine.static import analyze
from repro.engine.trace import per_task_stats, timeline_rows, to_csv

__all__ = [
    "ActiveSet",
    "FlowBuilder",
    "FlowSet",
    "LinkLoadReport",
    "RouteCache",
    "SimulationResult",
    "analyze",
    "bottleneck_lower_bound",
    "per_task_stats",
    "simulate",
    "timeline_rows",
    "to_csv",
]
