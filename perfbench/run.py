"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke        # every workload, tiny, seconds

Run from the repository root.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The lines before it are a readable report and one
``perfbench-record`` JSON line with the host fingerprint, every cell's
outputs and the layer split.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # set-up is timed from here, before imports

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import stats  # noqa: E402

WORKLOADS = ("fig4-cold-sweep", "event-tail", "serve-explore")

#: The metric names and units this run prints, as BENCHMARK.json lists
#: them: (name, unit, better) end to end (--trace 0) and (name, unit)
#: per layer (--trace 1).
with open(ROOT / "BENCHMARK.json") as _fh:
    _SPEC = json.load(_fh)
END_TO_END = tuple((m["name"], m["unit"], m["better"])
                   for m in _SPEC["end_to_end"])
PER_LAYER = tuple((m["name"], m["unit"]) for m in _SPEC["per_layer"])

#: The set-up is repeated this many times per run; its median is reported.
#: Starting a process is the noisiest step on a busy shared host, so the
#: cheap set-ups repeat more often.
SETUP_REPEATS = {"fig4-cold-sweep": 7, "event-tail": 5, "serve-explore": 7}


def fail(message: str) -> int:
    print(f"perfbench: error: {message}", file=sys.stderr)
    return 2


def pinned_environment_problem() -> str | None:
    knobs = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if knobs:
        return (f"refusing to run with {', '.join(knobs)} set: the "
                f"benchmark measures the program's default configuration")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return f"no repro sources under {ROOT / 'src'}"
    return None


def fingerprint() -> dict:
    import numpy

    from repro import __version__
    from repro.engine import kernels
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy_version, "fill_kernels": kernels.default_name(),
            "repro": __version__}


def make_workload(name: str, scale, seed: int, reference, workdir: Path):
    import workloads as wl

    ref = None if reference is None else reference.get(name)
    if name == "fig4-cold-sweep":
        return wl.Fig4ColdSweep(scale, seed, ref)
    if name == "event-tail":
        return wl.EventTail(scale, seed, ref)
    return wl.ServeExplore(scale, seed, ref, workdir)


def child_setup_seconds(name: str, seed: int) -> float:
    """Set-up time of ``name`` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


# ------------------------------------------------------------------ metrics
def first_run_probe(meter, setup_probes: int) -> int:
    """Index of the first probe that sets the run's host speed: the
    first after set-up, when there is one.  The set-up's probes are left
    out: a starting serve server shares the probes' CPU, and an offline
    set-up child runs on another CPU than the probes."""
    return setup_probes if len(meter.samples) > setup_probes else 0


def waits_ms(name: str, m, seconds: float) -> list[float]:
    """What a user waits for, in host ms: each request of the serve
    traffic (timed from its due time; an unanswered one counts as
    answered at the grace limit), a cell of the sweep, or a pass of the
    tail."""
    import workloads as wl

    if name == "serve-explore":
        worst = (seconds + wl.GRACE_S) * 1e3
        return [x if math.isfinite(x) else worst
                for x in m.extra["log"].latencies_ms()]
    return [s * 1e3 for s in m.extra.get("pass_s", m.host_s())]


def end_to_end(name: str, setups: list[float], m, seconds: float,
               speed: float = 1.0) -> tuple[dict, dict]:
    """The end-to-end metrics, with host times multiplied by ``speed``
    (the run's host-speed factor to the power ``hostspeed.EXPONENT``) to
    seconds on the reference host; and the same figures unscaled, for
    the report."""
    import workloads as wl

    if name == "serve-explore":
        log = m.extra["log"]
        on_time = log.within(wl.LATENCY_LIMIT_S)
        # the server's own host seconds for each cell it simulated alone
        cold = [c["host_s"] for c in m.extra["alone"] if "host_s" in c] \
            or [float("nan")]
        values = {"cell_s": sum(cold) / len(cold),
                  "peak_rss_mb": m.extra["peak_rss_mb"],
                  "slo_ok_frac": on_time / len(log),
                  # offered at a fixed rate: not host time, never scaled
                  "goodput_rps": on_time / m.window_s}
        timed = ("setup_s", "cell_s", "p50_ms")
    else:
        host = m.host_s() or [float("nan")]
        ok = m.attempted - m.failed
        values = {"cell_s": sum(host) / len(host),
                  "peak_rss_mb": wl.peak_rss_mb(),
                  "slo_ok_frac": ok / max(1, m.attempted),
                  # per second of the cells' own time, probes left out
                  "goodput_rps": ok / sum(host)}
        timed = ("setup_s", "cell_s", "p50_ms", "goodput_rps")
    values["setup_s"] = stats.median(setups)
    values["p50_ms"] = stats.median(waits_ms(name, m, seconds))
    scaled = {k: (v / speed if k == "goodput_rps" else v * speed)
              if k in timed else v for k, v in values.items()}
    return ({k: {"value": scaled[k], "unit": unit}
             for k, unit, _ in END_TO_END}, values)


def per_layer(name: str, tracer, setup_tracer, m, base, seconds: float,
              overhead: float) -> dict:
    t = tracer
    c = t.counters
    admitted = c["engine.admitted"]
    events = c["engine.events"]
    engine_self = t.self_time("engine.simulate")
    v = dict.fromkeys((n for n, _ in PER_LAYER), 0.0)
    v.update({
        "topology.builds": c["topology.builds"],
        "topology.build_s": t.total("topology.build"),
        "workloads.build_s": t.total("workloads.build")
        + setup_tracer.total("workloads.build"),
        "workloads.flows": c["workloads.flows"]
        + setup_tracer.counters["workloads.flows"],
        "routing.computed": c["routing.computed"],
        "routing.route_s": t.total("routing.route"),
        "routing.hit_ratio": (1.0 - c["routing.computed"] / admitted)
        if admitted else 0.0,
        "engine.simulate_s": t.total("engine.simulate"),
        "engine.self_s": engine_self,
        "engine.events": events,
        "engine.self_us_per_event": engine_self / events * 1e6
        if events else 0.0,
        "engine.admit_s": t.total("engine.admit"),
        "engine.retire_s": t.total("engine.retire"),
        "engine.fill_iterations": c["engine.fill_iterations"],
        "engine.approx_err_max": m.extra.get("approx_err_max", 0.0),
        "sweep.run_s": t.total("sweep.run"),
        "sweep.self_s": t.self_time("sweep.run"),
        "obs.account_s": t.total("obs.account"),
        "obs.stream_s": t.total("obs.stream"),
        "trace.overhead_frac": overhead,
        # from the untraced pass: the tail is too unsteady between runs to
        # bound as an end-to-end metric, so it is reported here
        "loadgen.p99_ms": stats.percentile(waits_ms(name, base, seconds), 99),
    })
    for kind in ("full", "relevel", "warm"):
        v[f"engine.alloc_{kind}_n"] = t.calls(f"engine.alloc_{kind}")
        v[f"engine.alloc_{kind}_s"] = t.total(f"engine.alloc_{kind}")

    def p_ms(values, p):
        return stats.percentile(values, p) * 1e3 if values else 0.0

    if name == "serve-explore":
        counters = m.extra["counters"]
        log = m.extra["log"]
        waits = t.samples.get("service.queue_wait", [])
        requests = counters["requests"]
        v.update({
            "service.requests": requests,
            "service.hit_ratio": (counters["store_hits"]
                                  + counters["deduped"]) / requests
            if requests else 0.0,
            "service.simulated": counters["simulated"],
            "service.rejected": counters["rejected"],
            "service.errors": counters["errors"],
            "service.batches": counters["batches"],
            "service.batch_cells_mean": c["sweep.cells"] / c["sweep.runs"]
            if c["sweep.runs"] else 0.0,
            "service.queue_wait_ms_p50": p_ms(waits, 50),
            "service.queue_wait_ms_p99": p_ms(waits, 99),
            "service.batch_sweep_s": t.total("sweep.run"),
            "service.store_get_ms_p50":
                p_ms(t.samples.get("service.store_get", []), 50),
            "service.store_put_ms_p50":
                p_ms(t.samples.get("service.store_put", []), 50),
            "service.front_ms_p50": stats.percentile(
                log.hit_round_trips_ms(), 50)
            if log.hit_round_trips_ms() else 0.0,
            "loadgen.sent": sum(1 for s in log.sent if s is not None),
            "loadgen.late_ms_max": max(log.lateness_ms(), default=0.0),
        })
    else:
        # offline runs have no arrival schedule: "sent" is cells started
        # and lateness is how far the run overshot its window
        v["loadgen.sent"] = base.attempted
        v["loadgen.late_ms_max"] = max(0.0, base.window_s - seconds) * 1e3
    return {k: {"value": float(v[k]), "unit": unit} for k, unit in PER_LAYER}


# ------------------------------------------------------------------- report
#: workload -> (claim, span names whose self time the claim is about)
PREDICTIONS = {
    "fig4-cold-sweep": ("routing dominates", ("routing.route",)),
    "event-tail": ("engine self time plus allocation dominate",
                   ("engine.simulate", "engine.alloc_full",
                    "engine.alloc_relevel", "engine.alloc_warm")),
}


def layer_report(name: str, tracer, m, base) -> tuple[list[str], dict]:
    """Per-layer self time, spans and waits, plus the prediction check."""
    split = tracer.layer_split()
    waits = {"service": sum(tracer.samples.get("service.queue_wait", []))}
    if name == "serve-explore":
        waits["loadgen"] = sum(m.extra["log"].lateness_ms()) / 1e3
    total = sum(row["self_s"] for row in split.values())
    lines = [f"layer split ({name}, traced; self time is span time minus "
             f"child spans):",
             f"  {'layer':<10} {'self_s':>10} {'share':>7} {'spans':>9} "
             f"{'wait_s':>9}"]
    for layer, row in split.items():
        share = row["self_s"] / total if total else 0.0
        wait = waits.get(layer)
        lines.append(f"  {layer:<10} {row['self_s']:>10.3f} {share:>7.1%} "
                     f"{row['spans']:>9d} "
                     f"{'-' if wait is None else f'{wait:.3f}':>9}")
    if "loadgen" in waits:
        lines.append(f"  {'loadgen':<10} {'':>10} {'':>7} "
                     f"{len(m.extra['log']):>9d} {waits['loadgen']:>9.3f}")
    verdict = None
    if name in PREDICTIONS and total:
        claim, spans = PREDICTIONS[name]
        top = max(split, key=lambda k: split[k]["self_s"])
        share = sum(tracer.self_time(s) for s in spans) / total
        holds = share > 0.5
        verdict = {"prediction": claim, "holds": holds,
                   "share": share, "largest_layer": top}
        lines.append(f"prediction check: {claim} in {name}: "
                     f"{'holds' if holds else 'DOES NOT hold'} "
                     f"({' + '.join(spans)} self time is {share:.1%} of "
                     f"all traced self time; largest layer {top})")
    return lines, {"layers": split, "waits": waits, "prediction": verdict}


def summary_lines(name: str, result: dict, m, setups) -> list[str]:
    lines = [f"workload {name}: {m.attempted} attempted, {m.failed} failed, "
             f"window {m.window_s:.2f}s, set-up samples "
             f"{', '.join(f'{s:.3f}' for s in setups)} s"]
    for key, item in result["metrics"].items():
        lines.append(f"  {key:<28} {item['value']:>14.6g} {item['unit']}")
    for rec in m.records:
        if rec["problems"]:
            lines.append(f"  FAILED {json.dumps(rec)}")
    return lines


def speed_lines(result: dict, meter, first: int, raw: dict,
                speed: float) -> list[str]:
    lines = [f"host speed: probe median {meter.probe_s(first) * 1e3:.3f} ms "
             f"over {len(meter.samples) - first} probes after set-up, "
             f"reference {hostspeed.REFERENCE_S * 1e3:.3f} ms; the host "
             f"times above are scaled by {speed:.4f} (factor "
             f"{meter.factor(first):.4f} to the power "
             f"{hostspeed.EXPONENT}). Unscaled:"]
    for key, value in raw.items():
        if value != result["metrics"][key]["value"]:
            lines.append(f"  {key:<28} {value:>14.6g} "
                         f"{result['metrics'][key]['unit']}")
    return lines


# ---------------------------------------------------------------------- run
def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale, reference, workdir: Path) -> tuple[dict, dict, list]:
    """Set up and measure one workload; returns (result, record, lines)."""
    import workloads as wl
    from tracer import Tracer, install

    w = make_workload(name, scale, seed, reference, workdir)
    setup_tracer = Tracer()
    # host-speed probes run through an untraced run from its first timed
    # step on: the serve launches, or the offline set-up children
    meter = hostspeed.Meter()
    serve = name == "serve-explore"
    try:
        if serve:
            if not trace:
                meter.start()
            setups = w.setup(launches=1 if trace else SETUP_REPEATS[name])
        else:
            if trace:
                install(setup_tracer)
            w.setup()
            setup_tracer.uninstall()
            setups = [time.perf_counter() - T_START]
            if not trace:
                meter.start()
            if not trace and scale is wl.FULL:
                setups += [child_setup_seconds(name, seed)
                           for _ in range(SETUP_REPEATS[name] - 1)]
        setup_probes = len(meter.samples)
        base = w.measure(seconds)
        meter.stop()
        m, overhead, tracer = base, 0.0, None
        if trace:
            tracer = Tracer()
            if serve:
                m = w.measure(seconds, traced=True)
                with open(w.trace_path) as fh:
                    tracer.merge(json.load(fh))
                overhead = m.extra["cpu_s"] / base.extra["cpu_s"] - 1.0
            else:
                install(tracer)
                try:
                    m = w.measure(seconds, replay=base.work)
                finally:
                    tracer.uninstall()
                overhead = sum(m.host_s()) / sum(base.host_s()) - 1.0
    finally:
        meter.stop()
        if serve:
            w.stop()

    problems = []
    runs = [base] if m is base else [base, m]
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    sent = len(base.extra["log"]) if serve else 0
    if serve and scale is wl.FULL and \
            (stats.supported_percentile(sent) or 0) < 99:
        problems.append(f"{sent} requests cannot support a p99 (needs 10 "
                        f"beyond it)")
    if trace:
        metrics = per_layer(name, tracer, setup_tracer, m, base, seconds,
                            overhead)
    else:
        first = first_run_probe(meter, setup_probes)
        factor = meter.factor(first)
        speed = factor ** hostspeed.EXPONENT
        metrics, raw = end_to_end(name, setups, m, seconds, speed)
    result = {"correct": failed == 0 and not problems,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "scale": scale.__dict__, "problems": problems,
              "setup_samples_s": setups,
              "cells": [r for run in runs for r in
                        (run.extra["cells"] + run.extra["alone"] if serve
                         else run.records)]}
    if serve:
        log = m.extra["log"]
        lat = log.latencies_ms()
        worst = sorted(range(len(log)), key=lambda i: -lat[i])[:20]
        record["slowest_requests"] = [
            {"due_s": log.due[i], "latency_ms": lat[i], "hit": log.hit[i],
             "digest": log.digest[i]} for i in worst]
        record["latencies_ms"] = lat
    lines = summary_lines(name, result, m, setups) + \
        [f"  PROBLEM {p}" for p in problems]
    if not trace:
        record["host_speed"] = {
            "factor": factor, "scale": speed,
            "exponent": hostspeed.EXPONENT,
            "probe_s": meter.probe_s(first), "setup_probes": setup_probes,
            "reference_probe_s": hostspeed.REFERENCE_S,
            "probes": len(meter.samples), "unscaled": raw}
        lines += speed_lines(result, meter, first, raw, speed)
    if trace:
        report, split = layer_report(name, tracer, m, base)
        lines += report
        record["layers"] = split
    return result, record, lines


def validate_result(result: dict, trace: bool) -> None:
    """Raise ``ValueError`` unless ``result`` has the result-line shape."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(result)}")
    if not isinstance(result["correct"], bool):
        raise ValueError("correct must be a bool")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            raise ValueError(f"{key} must be a whole number")
    if result["attempted"] < 1:
        raise ValueError("attempted must be at least 1")
    want = {n: u for n, u in PER_LAYER} if trace else \
        {n: u for n, u, _ in END_TO_END}
    got = result["metrics"]
    if set(got) != set(want):
        raise ValueError(f"metrics {sorted(set(got) ^ set(want))} differ")
    for name, item in got.items():
        if set(item) != {"value", "unit"} or item["unit"] != want[name]:
            raise ValueError(f"metric {name}: {item}")
        if not isinstance(item["value"], (int, float)) or \
                not math.isfinite(item["value"]):
            raise ValueError(f"metric {name} is not a finite number")


def smoke() -> int:
    """Every workload end to end at the smoke scale, untraced and traced,
    with the result lines validated.  Prints no result line."""
    import workloads as wl

    workdir = ROOT / ".perfbench_work" / f"smoke-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name in WORKLOADS:
            for trace in (False, True):
                result, _, _ = run_workload(name, 0, 2.0, trace, wl.SMOKE,
                                            None, workdir)
                validate_result(result, trace)
                if not result["correct"]:
                    raise RuntimeError(f"{name} smoke run incorrect")
                print(f"smoke {name} trace={int(trace)}: ok, "
                      f"{result['attempted']} attempted")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("smoke ok")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload tiny and check the output")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    problem = pinned_environment_problem()
    if problem:
        return fail(problem)
    sys.path.insert(0, str(ROOT / "src"))
    if args.smoke:
        return smoke()
    if args.workload is None:
        return fail("--workload is required")
    if args.seconds <= 0:
        return fail("--seconds must be positive")

    import cells
    import workloads as wl

    if args.setup_only:
        make_workload(args.workload, wl.FULL, args.seed, None,
                      ROOT).setup()
        print(json.dumps({"setup_s": time.perf_counter() - T_START}))
        return 0
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result, record, lines = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace),
            wl.FULL, cells.load_reference(), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["host"] = fingerprint()
    validate_result(result, bool(args.trace))
    print("\n".join(lines))
    print("perfbench-record " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
