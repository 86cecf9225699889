"""Monte-Carlo availability campaigns over transient fault timelines.

A campaign answers the question a single fault run cannot: *what is the
distribution* of slowdown when cables fail mid-job?  It fans N seeded
:class:`~repro.topology.timeline.TimelineSpec` cells — one fault trace per
seed — across the existing resumable process-pool sweep runner
(:func:`repro.sweep.runner.run_sweep`), so campaigns inherit
checkpoint/resume, ``--keep-going`` typed failure records, per-cell
timeouts and the metrics JSONL stream for free.

Two phases per topology:

1. a *healthy* reference run, whose makespan both normalises the slowdown
   ratios and scales the timeline (``horizon = healthy_makespan *
   horizon_frac``, ``mttr = healthy_makespan * mttr_frac``) — fault rates
   track each topology's own job duration instead of hard-coding seconds;
2. the Monte-Carlo fan-out: one transient cell per seed, run with
   ``keep_going`` so a disconnected trace becomes an *unavailable* sample
   (a typed :class:`~repro.errors.DegradedNetworkError` record) instead of
   aborting the campaign.

The report is deterministic (no wall-clock fields; bootstrap resampling is
seeded) — identical invocations produce byte-identical JSON, which is what
lets ``results/campaign_512.json`` live in the repository.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable

import numpy as np

from repro.core.config import HYBRID_FAMILIES, TopologySpec, WorkloadSpec
from repro.errors import ConfigError
from repro.sweep.plan import SweepCell, SweepPlan
from repro.sweep.runner import run_sweep
from repro.topology.timeline import TimelineSpec

#: Schema tag stamped on every campaign report; bump when the layout
#: changes.
CAMPAIGN_SCHEMA_VERSION = "repro-campaign-v1"


def parse_seed_range(spec: str) -> list[int]:
    """Expand a seed-range shorthand into the explicit seed list.

    ``"A:B"`` is the half-open range ``A..B-1`` (like Python slicing);
    a bare ``"N"`` is the single seed ``[N]``.  Shared by ``repro
    campaign`` and ``repro resilience --seeds``.
    """
    text = spec.strip()
    try:
        if ":" in text:
            lo_s, _, hi_s = text.partition(":")
            lo, hi = int(lo_s), int(hi_s)
            if lo < 0 or hi <= lo:
                raise ConfigError(
                    f"seed range {spec!r} must satisfy 0 <= A < B")
            return list(range(lo, hi))
        value = int(text)
    except ValueError:
        raise ConfigError(
            f"cannot parse seed range {spec!r}; expected 'A:B' "
            f"(half-open) or a single integer") from None
    if value < 0:
        raise ConfigError(f"seeds must be >= 0, got {value}")
    return [value]


def _bootstrap_ci(samples: list[float], *, resamples: int = 1000,
                  seed: int = 0) -> tuple[float, float]:
    """Seeded percentile-bootstrap 95% CI for the mean of ``samples``."""
    arr = np.asarray(samples, dtype=np.float64)
    n = arr.shape[0]
    if n == 1:
        return float(arr[0]), float(arr[0])
    rng = np.random.default_rng([seed, 0xB0])
    idx = rng.integers(0, n, size=(resamples, n))
    means = arr[idx].mean(axis=1)
    lo, hi = np.percentile(means, [2.5, 97.5])
    return float(lo), float(hi)


def _select_topologies(specs: list[TopologySpec],
                       wanted: list[str] | None) -> list[TopologySpec]:
    """Filter by family name *or* exact label (``"nesttree(2,4)"``)."""
    if not wanted:
        return specs
    chosen = [s for s in specs
              if s.family in wanted or s.label() in wanted]
    if not chosen:
        known = ", ".join(sorted({s.family for s in specs}
                                 | {s.label() for s in specs}))
        raise ConfigError(
            f"no design-space topology matches {wanted!r}; "
            f"choose families or labels from: {known}")
    return chosen


def run_campaign(*, endpoints: int, workload: WorkloadSpec,
                 topologies: list[TopologySpec], placement: str = "spread",
                 seeds: list[int], cables: int, uplinks: int = 0,
                 horizon_frac: float = 1.0, mttr_frac: float = 0.25,
                 fidelity: str = "approx", seed: int = 0,
                 routing: str = "deterministic",
                 jobs: int = 1,
                 checkpoint: str | os.PathLike | None = None,
                 resume: bool = False,
                 log: Callable[[str], None] | None = None,
                 cell_timeout: float | None = None,
                 metrics_path: str | os.PathLike | None = None,
                 bootstrap: int = 1000) -> dict:
    """Run a Monte-Carlo availability campaign and return its report.

    Parameters mirror the sweep runner's where they overlap; campaign-
    specific knobs:

    ``seeds``
        Timeline seeds, one Monte-Carlo sample each (see
        :func:`parse_seed_range`).
    ``cables`` / ``uplinks``
        Transient faults per timeline.  Uplink-port faults apply to the
        hybrid families only; they are dropped (not errors) elsewhere so
        one campaign can span hybrids and baselines.
    ``horizon_frac`` / ``mttr_frac``
        Failure-window length and mean-time-to-repair as fractions of
        each topology's *healthy* makespan; ``mttr_frac <= 0`` makes
        faults permanent.
    ``checkpoint``
        Result-store directory shared by both phases (their cells have
        distinct digests), resumable with ``resume=True``.
    """
    if not seeds:
        raise ConfigError("campaign needs at least one timeline seed")
    if len(set(seeds)) != len(seeds):
        raise ConfigError("campaign seeds must be distinct")
    if cables < 0 or uplinks < 0:
        raise ConfigError(
            f"fault counts must be non-negative, got cables={cables}, "
            f"uplinks={uplinks}")
    if not cables and not uplinks:
        raise ConfigError(
            "campaign needs at least one transient fault per timeline "
            "(cables or uplinks)")
    if not horizon_frac > 0:
        raise ConfigError(
            f"horizon_frac must be positive, got {horizon_frac}")
    if bootstrap < 1:
        raise ConfigError(f"bootstrap must be >= 1, got {bootstrap}")

    # ---- phase 1: healthy references (also the timeline scale source)
    healthy_cells = tuple(
        SweepCell(workload=workload, topology=tspec, placement=placement,
                  routing=routing)
        for tspec in topologies)
    healthy_plan = SweepPlan(endpoints=endpoints, fidelity=fidelity,
                             seed=seed, cells=healthy_cells)
    if log is not None:
        log(f"phase 1/2: {len(healthy_cells)} healthy reference run(s)")
    healthy_records = run_sweep(
        healthy_plan, jobs=jobs, checkpoint=checkpoint,
        resume=resume and checkpoint is not None,
        log=log, cell_timeout=cell_timeout)
    healthy_by_label = {r.topology: r for r in healthy_records}

    # ---- phase 2: the Monte-Carlo fan-out, one timeline per seed
    mc_cells: list[SweepCell] = []
    cell_index: dict[str, tuple[str, int]] = {}   # key -> (label, seed)
    for tspec in topologies:
        label = tspec.label()
        healthy = healthy_by_label[label]
        horizon = healthy.makespan * horizon_frac
        mttr = healthy.makespan * mttr_frac if mttr_frac > 0 else None
        t_uplinks = uplinks if tspec.family in HYBRID_FAMILIES else 0
        if not cables and not t_uplinks:
            continue  # uplink-only campaign: nothing to fail on a baseline
        for tseed in seeds:
            cell = SweepCell(
                workload=workload, topology=tspec, placement=placement,
                routing=routing,
                timeline=TimelineSpec(cables=cables, uplinks=t_uplinks,
                                      seed=tseed, horizon=horizon,
                                      mttr=mttr))
            mc_cells.append(cell)
            cell_index[cell.key()] = (label, tseed)
    mc_plan = SweepPlan(endpoints=endpoints, fidelity=fidelity, seed=seed,
                        cells=tuple(mc_cells))
    if log is not None:
        log(f"phase 2/2: {len(mc_cells)} Monte-Carlo run(s) "
            f"({len(seeds)} seed(s) x {len(topologies)} topologies)")
    failures: dict[str, dict] = {}
    mc_records = run_sweep(
        mc_plan, jobs=jobs, checkpoint=checkpoint,
        resume=resume and checkpoint is not None,
        log=log, keep_going=True,
        cell_timeout=cell_timeout, metrics_path=metrics_path,
        failures_out=failures)

    # ---- fold into the per-topology availability report
    by_cell = {(r.topology, r.timeline["seed"]): r for r in mc_records
               if r.timeline is not None}
    rows = []
    for tspec in topologies:
        label = tspec.label()
        healthy = healthy_by_label[label]
        samples = []     # (seed, record) of the completed runs
        failed = []      # {seed, error} of the unavailable ones
        for tseed in seeds:
            record = by_cell.get((label, tseed))
            if record is not None:
                samples.append((tseed, record))
                continue
            key = next((k for k, v in cell_index.items()
                        if v == (label, tseed)), None)
            err = failures.get(key, {}).get("error") if key else None
            failed.append({"seed": tseed, "error": err})
        slowdowns = [r.makespan / healthy.makespan for _, r in samples] \
            if healthy.makespan > 0 else []
        counters: dict[str, float] = {}
        for _, r in samples:
            for k, v in (r.transient or {}).items():
                counters[k] = counters.get(k, 0) + v
        row = {
            "topology": label,
            "family": tspec.family,
            "healthy_makespan_s": healthy.makespan,
            "runs": len(seeds),
            "completed": len(samples),
            "availability": len(samples) / len(seeds),
            "by_seed": [{"seed": s, "makespan_s": r.makespan,
                         "slowdown": r.makespan / healthy.makespan
                         if healthy.makespan > 0 else None,
                         "transient": r.transient}
                        for s, r in samples],
            "failed": failed,
            "transient_totals": counters,
        }
        if slowdowns:
            lo, hi = _bootstrap_ci(slowdowns, resamples=bootstrap, seed=seed)
            row["slowdown_mean"] = float(np.mean(slowdowns))
            row["slowdown_max"] = float(np.max(slowdowns))
            row["slowdown_ci95"] = [lo, hi]
        rows.append(row)

    return {
        "schema": CAMPAIGN_SCHEMA_VERSION,
        "endpoints": endpoints,
        "workload": workload.name,
        "fidelity": fidelity,
        "routing": routing,
        "seed": seed,
        "seeds": list(seeds),
        "cables": cables,
        "uplinks": uplinks,
        "horizon_frac": horizon_frac,
        "mttr_frac": mttr_frac,
        "bootstrap": bootstrap,
        "topologies": rows,
    }


def campaign_table(report: dict) -> str:
    """Human-readable availability/slowdown summary of a campaign report."""
    lines = [
        f"Availability campaign: {report['workload']} @ "
        f"{report['endpoints']} endpoints, {report['cables']} transient "
        f"cable fault(s)"
        + (f" + {report['uplinks']} uplink fault(s) on hybrids"
           if report["uplinks"] else "")
        + f", {len(report['seeds'])} seeded timelines",
        f"{'topology':>16} {'avail':>7} {'slowdown':>9} "
        f"{'ci95':>15} {'max':>6} {'rerouted':>9} {'parked':>7}",
    ]
    for row in report["topologies"]:
        totals = row["transient_totals"]
        if "slowdown_mean" in row:
            lo, hi = row["slowdown_ci95"]
            stats = (f"{row['slowdown_mean']:>8.3f}x "
                     f"[{lo:6.3f},{hi:6.3f}] {row['slowdown_max']:>5.2f}x")
        else:
            stats = f"{'-':>9} {'-':>15} {'-':>6}"
        lines.append(
            f"{row['topology']:>16} {row['availability']:>6.1%} {stats} "
            f"{int(totals.get('flows_rerouted', 0)):>9} "
            f"{int(totals.get('flows_parked', 0)):>7}")
    return "\n".join(lines)


def write_campaign_report(report: dict,
                          path: str | os.PathLike) -> str:
    """Write a campaign report as deterministic, committed-artifact JSON."""
    import json

    text = json.dumps(report, indent=2, sort_keys=True)
    with open(path, "w") as fh:
        fh.write(text + "\n")
    return os.fspath(path)


def _default_log(message: str) -> None:  # pragma: no cover - CLI helper
    print(f"[campaign] {message}", file=sys.stderr, flush=True)
