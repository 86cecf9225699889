"""Command-line interface: regenerate every table and figure of the paper.

Usage (installed as ``repro`` or via ``python -m repro``)::

    repro table1 --endpoints 131072        # paper-scale static analysis
    repro table2 --endpoints 131072
    repro fig4 --endpoints 4096 --out fig4.csv --jobs 4 --checkpoint store/
    repro fig5 --endpoints 4096 --jobs 4 --checkpoint store/ --resume
    repro run --topology nesttree --t 2 --u 4 --workload allreduce
    repro profile allreduce nesttree --t 2 --u 4   # tier/timing tables
    repro resilience --endpoints 4096 --workload allreduce \
        --fail-links 0 4 16 64 --jobs 4   # makespan vs failed cables
    repro campaign --endpoints 512 --workload allreduce --seeds 0:16 \
        --cables 8 --jobs 4 --report campaign.json   # availability MC
    repro optimize --endpoints 512 --budget 40 --seed 7 \
        --report front.json               # search the design space
    repro serve --store results/ --endpoints 512 --port 8641
    repro submit --port 8641 --workload allreduce \
        --topology nesttree --t 2 --u 4   # ask the running service
    repro info

The sweep commands accept ``--metrics PATH`` to stream one observability
record per cell to a JSONL file (see ``docs/observability.md``).

Dynamic experiments (fig4/fig5/run) default to a scaled-down system; the
static analyses (table1/table2) run at any scale including the paper's
131,072 endpoints.

Bad input exits 2 with one ``repro: error:`` line, like argparse itself;
any other library error found at run time exits 1 with one line.
"""

from __future__ import annotations

import argparse
import sys

from repro.core import (DEFAULT_ENDPOINTS, DesignSpaceExplorer, claims_report,
                        figure, table1, table2)
from repro.core.config import DEFAULT_QUADRATIC_TASKS
from repro.core.paperdata import PAPER_ENDPOINTS
from repro.errors import ConfigError, ReproError, TopologyError, WorkloadError
from repro.routing import ROUTING_POLICIES

#: The lower bound of a flag that must exceed zero.
_POSITIVE = "positive"

#: The lower bound of every numeric flag, by argparse dest: the least value
#: it accepts, or ``_POSITIVE``.  A ``(command, dest)`` entry overrides the
#: plain one; each count of a list-valued flag is checked, an unset
#: optional flag is not.
_LOWER_BOUNDS = {
    "endpoints": _POSITIVE, ("serve", "endpoints"): 2, "seed": 0,
    "tasks": 1, "quadratic_tasks": 1, "max_pairs": 1,
    "switch_cost": 0, "switch_power": 0,
    "jobs": 1, "cell_timeout": _POSITIVE,
    "fail_links": 0, "fail_uplinks": 0, "fail_seed": 0,
    "cables": 0, "uplinks": 0, "horizon_frac": _POSITIVE, "mttr_frac": 0,
    "bootstrap": 1,
    "budget": 1, "pilot_endpoints": 8, "fault_levels": 0,
    "port": 0, ("submit", "port"): 1, "capacity": 1, "timeout": _POSITIVE,
}

#: Commands whose design space needs 2x2x2 subtori to tile the system.
_SUBTORUS_SWEEPS = ("fig4", "fig5", "resilience", "campaign")


def _add_common(p: argparse.ArgumentParser, *, endpoints: int) -> None:
    p.add_argument("--endpoints", type=int, default=endpoints,
                   help=f"system size in QFDBs (default {endpoints})")
    p.add_argument("--seed", type=int, default=0, help="random seed")


def _add_fidelity(p: argparse.ArgumentParser, *,
                  default: str = "approx") -> None:
    p.add_argument("--fidelity", choices=("exact", "approx"),
                   default=default,
                   help=f"engine fidelity (default {default})")


def _add_quadratic_tasks(p: argparse.ArgumentParser) -> None:
    p.add_argument("--quadratic-tasks", type=int,
                   default=DEFAULT_QUADRATIC_TASKS,
                   help="task cap for MapReduce/n-Bodies")


def _add_cell(p: argparse.ArgumentParser) -> None:
    """The hybrid parameters and task count of one simulated cell."""
    p.add_argument("--t", type=int, default=None, help="subtorus side")
    p.add_argument("--u", type=int, default=None, help="uplink sparsity")
    p.add_argument("--tasks", type=int, default=None,
                   help="tasks to place (default: one per endpoint)")


def _add_sweep(p: argparse.ArgumentParser, *, workloads: bool = True
               ) -> None:
    _add_common(p, endpoints=DEFAULT_ENDPOINTS)
    _add_fidelity(p)
    _add_quadratic_tasks(p)
    if workloads:  # resilience replays its one --workload instead
        p.add_argument("--workloads", nargs="*", default=None,
                       help="subset of workloads to run")
    p.add_argument("--out", default=None, help="also write raw CSV here")
    _add_runner(p, metrics_help="instrument every cell and stream one "
                "schema-versioned metrics record per cell to this JSONL "
                "file (tier link accounting, allocator stats, timers; see "
                "docs/observability.md)")
    p.add_argument("--keep-going", action="store_true",
                   help="record per-cell failures as typed error entries in "
                        "the checkpoint's failures/ sidecar instead of "
                        "aborting the sweep")
    _add_routing(p)


def _add_workers(p: argparse.ArgumentParser, *, metrics_help: str) -> None:
    """The options of every command that simulates cells in worker
    processes (the sweep commands and ``serve``)."""
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (default 1: serial)")
    p.add_argument("--cell-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="wall-clock cap per simulation cell (parallel "
                        "workers stuck past it are killed and the cell "
                        "marked failed)")
    p.add_argument("--metrics", default=None, metavar="PATH",
                   help=metrics_help)


def _add_runner(p: argparse.ArgumentParser, *, metrics_help: str) -> None:
    """The options of every command that runs simulation cells through
    :func:`repro.sweep.run_sweep`."""
    _add_workers(p, metrics_help=metrics_help)
    p.add_argument("--checkpoint", default=None, metavar="DIR",
                   help="store each simulation cell's result in this "
                        "result-store directory as it completes (the store "
                        "`repro serve --store` answers from)")
    p.add_argument("--resume", action="store_true",
                   help="skip cells already present in --checkpoint")
    p.add_argument("--quiet", action="store_true",
                   help="suppress progress logging")


def _add_routing(p: argparse.ArgumentParser) -> None:
    p.add_argument("--routing", choices=ROUTING_POLICIES,
                   default="deterministic",
                   help="candidate-selection routing policy applied to "
                        "every simulation (default deterministic; see "
                        "docs/routing.md)")


def _add_cost_model(p: argparse.ArgumentParser) -> None:
    """Cost-model overrides (Table 2 / optimize objectives)."""
    p.add_argument("--switch-cost", type=float, default=None, metavar="QFDB",
                   help="cost of one upper-tier switch in QFDB units "
                        "(default: the paper-calibrated 0.75)")
    p.add_argument("--switch-power", type=float, default=None, metavar="QFDB",
                   help="power of one upper-tier switch in QFDB units "
                        "(default: the paper-calibrated 0.25)")


def _cost_model(args: argparse.Namespace):
    """The (possibly overridden) CostModel for a command; None = defaults."""
    from repro.topology.cost import CostModel

    if args.switch_cost is None and args.switch_power is None:
        return None
    defaults = CostModel()
    return CostModel(
        switch_cost=defaults.switch_cost if args.switch_cost is None
        else args.switch_cost,
        switch_power=defaults.switch_power if args.switch_power is None
        else args.switch_power)


def _add_faults(p: argparse.ArgumentParser, *, many_links: bool) -> None:
    """Fault-injection arguments shared by fig4/fig5 and resilience."""
    if many_links:
        p.add_argument("--fail-links", type=int, nargs="+", default=[0],
                       metavar="N",
                       help="failed duplex cable counts to sweep "
                            "(default: 0, the healthy network)")
    else:
        p.add_argument("--fail-links", type=int, default=0, metavar="N",
                       help="failed duplex cables to inject (default 0)")
    p.add_argument("--fail-uplinks", type=int, default=0, metavar="N",
                   help="dead hybrid uplink ports to inject; applies to "
                        "the nesttree/nestghc cells only (default 0)")
    p.add_argument("--fail-seed", type=int, default=0,
                   help="seed for reproducible fault sampling (default 0)")


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser, every subcommand included."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Multi-tier interconnect design exploration "
                    "(ICPP 2019 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p1 = sub.add_parser("table1", help="average distance / diameter table")
    _add_common(p1, endpoints=PAPER_ENDPOINTS)
    p1.add_argument("--max-pairs", type=int, default=50_000,
                    help="sampled pairs per topology (exact if that covers "
                         "the whole pair space)")

    p2 = sub.add_parser("table2", help="switch count / cost / power table")
    _add_common(p2, endpoints=PAPER_ENDPOINTS)
    _add_cost_model(p2)

    p4 = sub.add_parser("fig4", help="heavy-workload normalised times")
    _add_sweep(p4)
    _add_faults(p4, many_links=False)
    p5 = sub.add_parser("fig5", help="light-workload normalised times")
    _add_sweep(p5)
    _add_faults(p5, many_links=False)

    ps = sub.add_parser(
        "resilience",
        help="makespan vs injected faults per topology family")
    _add_sweep(ps, workloads=False)
    _add_faults(ps, many_links=True)
    ps.add_argument("--workload", required=True,
                    help="workload to replay at each fault level")
    ps.add_argument("--topologies", nargs="*", default=None,
                    metavar="FAMILY",
                    help="subset of topology families to sweep "
                         "(default: the full design space)")
    ps.add_argument("--seeds", default=None, metavar="A:B",
                    help="fault-seed range ('A:B' half-open, or a single "
                         "integer): each degraded cell is resampled per "
                         "seed and the table reports mean makespans "
                         "(default: --fail-seed only)")

    pc = sub.add_parser(
        "campaign",
        help="Monte-Carlo availability campaign over transient fault "
             "timelines")
    _add_common(pc, endpoints=DEFAULT_ENDPOINTS)
    pc.add_argument("--workload", required=True,
                    help="workload replayed under every fault timeline")
    pc.add_argument("--topologies", nargs="*", default=None,
                    metavar="FAMILY|LABEL",
                    help="topology families or exact labels, e.g. torus "
                         "or 'nesttree(2,4)' (default: the full design "
                         "space)")
    pc.add_argument("--seeds", default="0:8", metavar="A:B",
                    help="timeline seeds, one Monte-Carlo sample each "
                         "('A:B' half-open, or a single integer; "
                         "default 0:8)")
    pc.add_argument("--cables", type=int, default=4, metavar="N",
                    help="transient duplex-cable faults per timeline "
                         "(default 4)")
    pc.add_argument("--uplinks", type=int, default=0, metavar="N",
                    help="transient uplink-port faults per timeline, "
                         "hybrids only (default 0)")
    pc.add_argument("--horizon-frac", type=float, default=1.0,
                    metavar="FRAC",
                    help="failure-window length as a fraction of each "
                         "topology's healthy makespan (default 1.0)")
    pc.add_argument("--mttr-frac", type=float, default=0.25, metavar="FRAC",
                    help="mean time to repair as a fraction of the healthy "
                         "makespan; 0 makes faults permanent "
                         "(default 0.25)")
    _add_fidelity(pc)
    _add_quadratic_tasks(pc)
    pc.add_argument("--bootstrap", type=int, default=1000, metavar="N",
                    help="bootstrap resamples behind the slowdown CIs "
                         "(default 1000)")
    _add_runner(pc, metrics_help="stream one obs metrics record per "
                "Monte-Carlo cell (includes the transient recovery "
                "counters) to this JSONL file")
    pc.add_argument("--report", default=None, metavar="PATH",
                    help="write the schema-versioned JSON report here")
    _add_routing(pc)

    pr = sub.add_parser("run", help="one (topology, workload) simulation")
    _add_common(pr, endpoints=DEFAULT_ENDPOINTS)
    pr.add_argument("--topology", required=True,
                    help="family: torus, fattree, ghc, nesttree, nestghc")
    pr.add_argument("--workload", required=True)
    _add_cell(pr)
    _add_fidelity(pr, default="exact")
    _add_routing(pr)

    pp = sub.add_parser(
        "profile",
        help="instrumented single run: tier-utilisation and timing tables")
    pp.add_argument("workload", help="workload name (see `repro info`)")
    pp.add_argument("topology",
                    help="family: torus, fattree, ghc, nesttree, nestghc")
    _add_common(pp, endpoints=DEFAULT_ENDPOINTS)
    _add_cell(pp)
    _add_fidelity(pp, default="exact")
    _add_routing(pp)

    po = sub.add_parser(
        "optimize",
        help="multi-fidelity Pareto search over the hybrid design space")
    _add_common(po, endpoints=DEFAULT_ENDPOINTS)
    po.add_argument("--budget", type=int, default=40,
                    help="candidate proposals the strategy may spend "
                         "(rank-0 evaluations; default 40)")
    po.add_argument("--strategy", default="evolution",
                    help="proposal strategy: grid, random, or evolution "
                         "(default evolution)")
    po.add_argument("--workloads", nargs="*", default=None,
                    help="workload set the makespan objective averages "
                         "over (default: allreduce nearneighbors "
                         "permutation)")
    po.add_argument("--pilot-endpoints", type=int, default=None, metavar="N",
                    help="rank-1 pilot scale (default: min(endpoints, 512); "
                         "equal scales collapse the ladder to rank 0 -> 2)")
    _add_fidelity(po)
    _add_quadratic_tasks(po)
    po.add_argument("--fault-levels", type=int, nargs="+", default=[0],
                    metavar="N",
                    help="failed-cable counts as an extra search axis "
                         "(default: 0, healthy designs only)")
    po.add_argument("--routings", nargs="+", default=["deterministic"],
                    choices=ROUTING_POLICIES, metavar="POLICY",
                    help="routing policies as an extra search axis "
                         f"(choose from: {', '.join(ROUTING_POLICIES)}; "
                         "default: deterministic only)")
    _add_runner(po, metrics_help="base path for per-evaluation obs "
                "metrics streams (PATH.rank<N>.metrics.jsonl)")
    po.add_argument("--report", default=None, metavar="PATH",
                    help="write the schema-versioned JSON report here")
    _add_cost_model(po)

    pv = sub.add_parser(
        "serve",
        help="long-lived simulation service with a content-addressed "
             "result cache and per-tenant fair scheduling")
    _add_common(pv, endpoints=DEFAULT_ENDPOINTS)
    pv.add_argument("--store", required=True, metavar="DIR",
                    help="content-addressed result store directory "
                         "(created if missing; shareable across service "
                         "restarts and instances, and with sweep "
                         "--checkpoint directories)")
    pv.add_argument("--host", default="127.0.0.1",
                    help="bind address (default 127.0.0.1)")
    pv.add_argument("--port", type=int, default=0,
                    help="TCP port (default 0: pick a free port and "
                         "print it)")
    _add_fidelity(pv)
    pv.add_argument("--capacity", type=int, default=256,
                    help="bounded queue size; further submissions get a "
                         "typed 429 (default 256)")
    pv.add_argument("--weight", action="append", default=[],
                    metavar="TENANT=W",
                    help="fair-share weight for one tenant (repeatable; "
                         "unlisted tenants weigh 1)")
    _add_workers(pv, metrics_help="append one obs metrics record per "
                 "simulated cell to this JSONL file (the stream "
                 "accumulates across batches)")

    pb = sub.add_parser(
        "submit",
        help="submit cells to a running `repro serve` instance")
    pb.add_argument("--host", default="127.0.0.1",
                    help="service address (default 127.0.0.1)")
    pb.add_argument("--port", type=int, required=True,
                    help="service port (printed by `repro serve`)")
    pb.add_argument("--tenant", default="default",
                    help="fair-share tenant name (default 'default')")
    pb.add_argument("--no-wait", action="store_true",
                    help="return digests immediately instead of waiting "
                         "for results")
    pb.add_argument("--cells-json", default=None, metavar="PATH",
                    help="JSON file with a list of cell documents to "
                         "submit (see docs/service.md); overrides the "
                         "single-cell flags below")
    pb.add_argument("--workload", default=None)
    pb.add_argument("--topology", default=None,
                    help="family: torus, fattree, ghc, nesttree, nestghc")
    _add_cell(pb)
    pb.add_argument("--placement", default="spread",
                    help="task placement policy (default spread)")
    _add_faults(pb, many_links=False)
    pb.add_argument("--timeout", type=float, default=300.0,
                    metavar="SECONDS",
                    help="client-side HTTP timeout (default 300)")
    _add_routing(pb)

    sub.add_parser("info", help="library inventory")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _validate(args)
        return _COMMANDS[args.command](args) or 0
    except (ConfigError, TopologyError, WorkloadError) as exc:
        # bad input, whether caught up front or only at run time (e.g. a
        # --checkpoint path that is a file): exit 2 like argparse itself
        parser.error(str(exc))
    except (ReproError, OSError) as exc:
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return 1


def _validate(args: argparse.Namespace) -> None:
    """Reject bad input before any work starts, with a ConfigError.

    Without this, an unknown workload surfaces as a ``KeyError`` deep in
    the registry and an untileable endpoint count as a topology-construction
    traceback after minutes of sweep warm-up.
    """
    from repro.topology import available as families
    from repro.workloads import available as workloads

    for dest, value in vars(args).items():
        low = _LOWER_BOUNDS.get((args.command, dest),
                                _LOWER_BOUNDS.get(dest))
        if low is None or value is None:
            continue
        for count in value if isinstance(value, list) else (value,):
            if (count <= 0) if low == _POSITIVE else (count < low):
                need = _POSITIVE if low == _POSITIVE else f">= {low}"
                raise ConfigError(f"--{dest.replace('_', '-')} must be "
                                  f"{need}, got {count}")
    if getattr(args, "port", 0) > 65535:
        raise ConfigError(f"--port must be <= 65535, got {args.port}")

    _check_names("workload", [getattr(args, "workload", None),
                              *(getattr(args, "workloads", None) or ())],
                 workloads())
    _check_names("topology family",
                 [getattr(args, "topology", None),
                  *(args.topologies or () if args.command == "resilience"
                    else ())],
                 families())

    if getattr(args, "resume", False) and not args.checkpoint:
        raise ConfigError("--resume requires --checkpoint DIR")
    if args.command in _SUBTORUS_SWEEPS and args.endpoints % 8:
        raise ConfigError(
            f"--endpoints must be a multiple of 8 so the sweep's 2x2x2 "
            f"subtori tile the system, got {args.endpoints}")
    if getattr(args, "pilot_endpoints", None) and \
            args.pilot_endpoints > args.endpoints:
        raise ConfigError(f"--pilot-endpoints ({args.pilot_endpoints}) must "
                          f"not exceed --endpoints ({args.endpoints})")
    if args.command in ("run", "profile"):
        _validate_hybrid(args)
    if args.command == "campaign" and not (args.cables or args.uplinks):
        raise ConfigError("a campaign needs at least one transient fault "
                          "per timeline; set --cables and/or --uplinks")


def _check_names(kind: str, names: list[str | None],
                 known: list[str]) -> None:
    for name in names:
        if name is not None and name not in known:
            raise ConfigError(f"unknown {kind} {name!r}; "
                              f"choose from: {', '.join(known)}")


def _validate_hybrid(args: argparse.Namespace) -> None:
    """Hybrid ``(t, u)`` guard for run/profile.

    Without this a bad density or side only explodes deep inside topology
    construction; the typed ConfigError from core.config lists the valid
    parameter ranges instead.
    """
    from repro.core.config import HYBRID_FAMILIES, validate_hybrid_params

    if args.topology not in HYBRID_FAMILIES:
        if args.t is not None or args.u is not None:
            raise ConfigError(f"--t and --u apply to the hybrid families "
                              f"({', '.join(HYBRID_FAMILIES)}) only, not "
                              f"{args.topology}")
        return
    if args.t is None or args.u is None:
        raise ConfigError(f"{args.topology} needs both --t (subtorus side) "
                          f"and --u (uplink density)")
    validate_hybrid_params(args.topology, args.t, args.u,
                           endpoints=args.endpoints)


def _hybrid_params(args: argparse.Namespace) -> dict[str, int]:
    """The ``--t``/``--u`` values given, as topology parameters."""
    return {k: getattr(args, k) for k in ("t", "u")
            if getattr(args, k) is not None}


def _parse_weights(specs: list[str]) -> dict[str, int]:
    """Expand repeated ``--weight TENANT=W`` flags."""
    weights: dict[str, int] = {}
    for spec in specs:
        tenant, sep, value = spec.partition("=")
        if not sep or not tenant:
            raise ConfigError(f"--weight must be TENANT=W, got {spec!r}")
        try:
            weight = int(value)
        except ValueError:
            raise ConfigError(f"--weight {tenant}: weight must be an "
                              f"integer, got {value!r}") from None
        if weight < 1:
            raise ConfigError(f"--weight {tenant}: weight must be >= 1, "
                              f"got {weight}")
        weights[tenant] = weight
    return weights


def _submit_cells(args: argparse.Namespace) -> list[dict]:
    """The cell documents a submit invocation sends."""
    import json

    if args.cells_json is not None:
        try:
            with open(args.cells_json) as fh:
                cells = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"--cells-json {args.cells_json}: "
                              f"{exc}") from None
        if not isinstance(cells, list):
            raise ConfigError(f"--cells-json {args.cells_json}: must hold "
                              f"a JSON list of cell documents")
        return cells
    if not (args.workload and args.topology):
        raise ConfigError("submit needs --cells-json PATH, or --workload "
                          "and --topology for a single cell")
    faults = None
    if args.fail_links or args.fail_uplinks:
        faults = {"cables": args.fail_links, "uplinks": args.fail_uplinks,
                  "seed": args.fail_seed}
    return [{"workload": args.workload, "tasks": args.tasks,
             "topology": {"family": args.topology,
                          "params": _hybrid_params(args)},
             "placement": args.placement, "faults": faults,
             "routing": args.routing}]


def _explorer(args: argparse.Namespace) -> DesignSpaceExplorer:
    return DesignSpaceExplorer(
        args.endpoints, fidelity=args.fidelity,
        quadratic_tasks=args.quadratic_tasks, seed=args.seed,
        progress=not args.quiet)


def _log(args: argparse.Namespace):
    """Progress lines prefixed with the command name; None under --quiet."""
    if args.quiet:
        return None
    return lambda m: print(f"[{args.command}] {m}", file=sys.stderr,
                           flush=True)


def _write_csv(args: argparse.Namespace, table) -> None:
    """Write a result table's raw CSV to ``--out``, when given."""
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(table.to_csv())
        print(f"\nraw results written to {args.out}", file=sys.stderr)


def _run_figure(args: argparse.Namespace) -> None:
    from repro.workloads import heavy_workloads, light_workloads

    heavy = args.command == "fig4"
    names = args.workloads or (heavy_workloads() if heavy else light_workloads())
    table = _explorer(args).run(names, jobs=args.jobs,
                                checkpoint=args.checkpoint,
                                resume=args.resume,
                                fail_links=args.fail_links,
                                fail_uplinks=args.fail_uplinks,
                                fail_seed=args.fail_seed,
                                keep_going=args.keep_going,
                                cell_timeout=args.cell_timeout,
                                metrics=args.metrics,
                                routing=args.routing)
    fig_no = 4 if heavy else 5
    print(figure(table, names,
                 title=f"Figure {fig_no} ({'heavy' if heavy else 'light'} "
                       f"workloads)"))
    print()
    print(claims_report(table, fig_no))
    _write_csv(args, table)


def _run_resilience(args: argparse.Namespace) -> None:
    """Sweep makespan vs injected faults for every topology family.

    The new scenario axis the paper's conclusions ask for: the same
    workload is replayed on each topology at increasing fault counts, and
    the table reports each topology's slowdown relative to its own healthy
    run (when a 0-fault column is included).  Cells whose degraded network
    disconnects the workload's endpoint pairs — or that fail for any other
    reason under ``--keep-going`` — show up as ``failed`` rather than
    silently vanishing.
    """
    from repro.core.config import HYBRID_FAMILIES
    from repro.core.explorer import PLACEMENT_POLICY, ResultTable
    from repro.sweep import SweepCell, SweepPlan, parse_seed_range, run_sweep

    explorer = _explorer(args)
    specs = explorer.topology_specs()
    if args.topologies:
        specs = [s for s in specs if s.family in args.topologies]
    wspec = explorer.workload_spec(args.workload)
    policy = PLACEMENT_POLICY.get(args.workload, "spread")
    counts = list(dict.fromkeys(args.fail_links))  # dedupe, keep order
    seeds = parse_seed_range(args.seeds) if args.seeds \
        else [args.fail_seed]
    cells = []
    for count in counts:
        for tspec in specs:
            uplinks = (args.fail_uplinks if tspec.family in HYBRID_FAMILIES
                       else 0)
            # a healthy cell's key carries no fault seed: resampling it
            # per seed would just run the identical cell repeatedly
            cell_seeds = seeds if (count or uplinks) else seeds[:1]
            for fseed in cell_seeds:
                cells.append(SweepCell(
                    workload=wspec, topology=tspec, placement=policy,
                    fail_links=count, fail_uplinks=uplinks,
                    fail_seed=fseed, routing=args.routing))
    plan = SweepPlan(endpoints=args.endpoints, fidelity=args.fidelity,
                     seed=args.seed, cells=tuple(cells))
    records = run_sweep(plan, jobs=args.jobs, checkpoint=args.checkpoint,
                        resume=args.resume, log=_log(args),
                        keep_going=args.keep_going,
                        cell_timeout=args.cell_timeout,
                        metrics_path=args.metrics)

    by_cell: dict[tuple[str, int], list] = {}
    for r in records:
        key = (r.topology, r.faults["cables"] if r.faults else 0)
        by_cell.setdefault(key, []).append(r)
    labels = list(dict.fromkeys(s.label() for s in specs))
    seed_note = (f"fault seeds {seeds[0]}..{seeds[-1]}, mean over "
                 f"{len(seeds)} samples" if len(seeds) > 1
                 else f"fault seed {seeds[0]}")
    print(f"Resilience sweep: {args.workload} @ {args.endpoints} endpoints "
          f"({seed_note}, "
          f"{args.fail_uplinks} uplink-port faults on hybrids)")
    header = f"{'topology':>16}" + "".join(
        f"{f'links={c}':>16}" for c in counts)
    print(header)
    for label in labels:
        healthy_runs = by_cell.get((label, 0))
        healthy = (sum(r.makespan for r in healthy_runs)
                   / len(healthy_runs)) if healthy_runs else None
        row = [f"{label:>16}"]
        for count in counts:
            cell_runs = by_cell.get((label, count))
            if not cell_runs:
                row.append(f"{'failed':>16}")
                continue
            makespan = sum(r.makespan for r in cell_runs) / len(cell_runs)
            if healthy is not None and healthy > 0:
                row.append(f"{makespan * 1e3:8.3f}ms"
                           f" {makespan / healthy:4.2f}x")
            else:
                row.append(f"{makespan * 1e3:14.3f}ms")
        print("".join(row))
    table = ResultTable(endpoints=args.endpoints, fidelity=args.fidelity)
    for record in records:
        table.add(record)
    _write_csv(args, table)


def _run_campaign(args: argparse.Namespace) -> None:
    """Monte-Carlo availability campaign over transient fault timelines.

    One seeded :class:`~repro.topology.timeline.FaultTimeline` per seed is
    replayed per topology; the report gives slowdown distributions with
    bootstrap CIs and availability (the fraction of timelines the workload
    survives).  Deterministic under fixed flags — ``--report`` output is
    byte-identical across runs, so it can be committed as an artifact.
    """
    from repro.core.explorer import PLACEMENT_POLICY
    from repro.sweep import (campaign_table, parse_seed_range, run_campaign,
                             write_campaign_report)
    from repro.sweep.campaign import _select_topologies

    explorer = _explorer(args)
    report = run_campaign(
        endpoints=args.endpoints,
        workload=explorer.workload_spec(args.workload),
        topologies=_select_topologies(explorer.topology_specs(),
                                      args.topologies),
        placement=PLACEMENT_POLICY.get(args.workload, "spread"),
        seeds=parse_seed_range(args.seeds),
        cables=args.cables, uplinks=args.uplinks,
        horizon_frac=args.horizon_frac, mttr_frac=args.mttr_frac,
        fidelity=args.fidelity, seed=args.seed, routing=args.routing,
        jobs=args.jobs, checkpoint=args.checkpoint, resume=args.resume,
        log=_log(args), cell_timeout=args.cell_timeout,
        metrics_path=args.metrics, bootstrap=args.bootstrap)
    print(campaign_table(report))
    if args.report:
        path = write_campaign_report(report, args.report)
        print(f"report written to {path}", file=sys.stderr)


def _run_optimize(args: argparse.Namespace) -> None:
    """Multi-fidelity Pareto search over the hybrid design space.

    Output is deterministic under a fixed seed (no wall-clock anywhere),
    so identical invocations print — and with ``--report`` write —
    byte-identical results.
    """
    from repro.search import (DesignSpace, FidelityLadder, LadderEvaluator,
                              make_strategy, run_search, write_report)
    from repro.search.fidelity import DEFAULT_WORKLOADS
    from repro.topology.cost import CostModel

    workloads = tuple(args.workloads or DEFAULT_WORKLOADS)
    log = _log(args)
    ladder = FidelityLadder.for_scale(
        args.endpoints, workloads,
        pilot_endpoints=args.pilot_endpoints,
        fidelity=args.fidelity, seed=args.seed,
        quadratic_tasks=args.quadratic_tasks)
    space = DesignSpace(endpoints=args.endpoints,
                        pilot_endpoints=ladder.pilot_endpoints,
                        fault_levels=tuple(dict.fromkeys(args.fault_levels)),
                        routings=tuple(dict.fromkeys(args.routings)))
    strategy = make_strategy(args.strategy, space, seed=args.seed)
    evaluator = LadderEvaluator(
        ladder, cost_model=_cost_model(args) or CostModel(),
        jobs=args.jobs, checkpoint=args.checkpoint, resume=args.resume,
        cell_timeout=args.cell_timeout, metrics=args.metrics, log=log)
    result = run_search(space, strategy, ladder, budget=args.budget,
                        evaluator=evaluator, log=log)

    print(f"Pareto front @ {args.endpoints} endpoints "
          f"(strategy={result.strategy}, budget={args.budget}, "
          f"seed={args.seed}, workloads={'+'.join(workloads)})")
    print(f"{'design':>16} | {'makespan':>9} {'cost':>8} {'power':>8}")
    for row in result.front_rows():
        obj = row["objectives"]
        marker = " *" if row["baseline"] else ""
        print(f"{row['label']:>16} | {obj['makespan']:>9.4f} "
              f"{obj['cost'] * 100:>7.2f}% {obj['power'] * 100:>7.2f}%"
              + marker)
    print("(* = baseline reference, not a search product; makespan is "
          "normalised to the fattree)")
    ranks = result.rank_summary
    print(f"evaluations: rank0 {ranks['rank0']['unique_designs']} designs "
          f"({ranks['rank0']['proposals']} proposals, "
          f"{ranks['rank0']['static_cache_hits']} cache hits), "
          + ("rank1 skipped (collapsed ladder), "
             if "skipped" in ranks["rank1"] else
             f"rank1 {ranks['rank1']['simulations']} pilot sims, ")
          + f"rank2 {ranks['rank2']['simulations']} full-fidelity sims")
    if args.report:
        path = write_report(result, args.report)
        print(f"report written to {path}", file=sys.stderr)


def _run_single(args: argparse.Namespace) -> None:
    """One simulation; ``profile`` instruments it and prints the tier and
    timing tables after the summary."""
    from repro import simulate
    from repro.mapping.placement import spread_placement
    from repro.obs import MetricsCollector, profile_report
    from repro.topology import build as build_topology
    from repro.workloads import build as build_workload

    topo = build_topology(args.topology, args.endpoints,
                          **_hybrid_params(args))
    tasks = args.tasks or args.endpoints
    wl = build_workload(args.workload, tasks, seed=args.seed)
    placement = None if tasks == args.endpoints \
        else spread_placement(tasks, args.endpoints)
    profile = args.command == "profile"
    result = simulate(topo, wl.build(), placement=placement,
                      fidelity=args.fidelity, routing=args.routing,
                      metrics=MetricsCollector(topo.links.num_links)
                      if profile else None)
    print(topo.describe())
    print(wl.describe())
    print(result.summary())
    if profile:
        print()
        print(profile_report(result.metrics))


def _run_serve(args: argparse.Namespace) -> None:
    """Run the simulation service until interrupted.

    Prints one parseable ``listening on HOST:PORT`` line (stdout,
    flushed) once the socket is bound — scripts and the CI smoke job key
    off it.
    """
    import asyncio

    from repro.service import Broker, ResultStore, ServiceServer

    weights = _parse_weights(args.weight)

    async def serve() -> None:
        broker = Broker(
            ResultStore(args.store),
            endpoints=args.endpoints, fidelity=args.fidelity,
            seed=args.seed, capacity=args.capacity,
            weights=weights or None, jobs=args.jobs,
            cell_timeout=args.cell_timeout, metrics_path=args.metrics)
        server = ServiceServer(broker, args.host, args.port)
        host, port = await server.start()
        print(f"repro service listening on {host}:{port} "
              f"(store {args.store}, {args.endpoints} endpoints, "
              f"{args.fidelity} fidelity, seed {args.seed})", flush=True)
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await server.close()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        print("repro service stopped", file=sys.stderr)


def _run_submit(args: argparse.Namespace) -> int:
    """Submit cells to a running service and print the JSON response.

    Exit 0 when the service answered 200 and (if waiting) every cell
    settled ``done``; 1 otherwise — so scripts can chain on success.
    Cells are checked on the client first: a bad one exits 2 here instead
    of coming back as a 400 from the service.
    """
    import json

    from repro.errors import ProtocolError
    from repro.service import ServiceClient
    from repro.service.protocol import submission_from_json

    cells = _submit_cells(args)
    try:
        submission_from_json({"tenant": args.tenant, "cells": cells})
    except ProtocolError as exc:
        raise ConfigError(str(exc)) from None
    client = ServiceClient(args.host, args.port, timeout=args.timeout)
    try:
        status, doc = client.submit(cells, tenant=args.tenant,
                                    wait=not args.no_wait)
    except OSError as exc:
        print(f"repro submit: cannot reach {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 1
    print(json.dumps(doc, indent=2))
    if status != 200:
        print(f"repro submit: service answered {status}", file=sys.stderr)
        return 1
    if not args.no_wait and any(r.get("status") != "done"
                                for r in doc.get("results", ())):
        return 1
    return 0


def _info(args: argparse.Namespace) -> None:
    from repro import __version__
    from repro.topology import available as topo_available
    from repro.workloads import heavy_workloads, light_workloads

    print(f"repro {__version__} — ICPP 2019 multi-tier interconnect "
          f"reproduction")
    print(f"topologies: {', '.join(topo_available())}")
    print(f"heavy workloads (Fig.4): {', '.join(heavy_workloads())}")
    print(f"light workloads (Fig.5): {', '.join(light_workloads())}")


#: The handler of each subcommand; a returned int is the exit status.
_COMMANDS = {
    "table1": lambda args: print(table1(args.endpoints,
                                        max_pairs=args.max_pairs,
                                        seed=args.seed)),
    "table2": lambda args: print(table2(args.endpoints,
                                        model=_cost_model(args))),
    "fig4": _run_figure, "fig5": _run_figure,
    "resilience": _run_resilience, "campaign": _run_campaign,
    "optimize": _run_optimize,
    "run": _run_single, "profile": _run_single,
    "serve": _run_serve, "submit": _run_submit, "info": _info,
}


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
