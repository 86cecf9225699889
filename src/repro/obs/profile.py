"""Plain-text rendering of a metrics snapshot (the ``repro profile`` CLI).

Renders the per-tier utilisation table and the wall-clock timing table
from a :meth:`repro.obs.metrics.MetricsCollector.snapshot` record.  The
tier table's ``delivered`` column sums to the run's total delivered link
bits, so a reader can see at a glance which tier carried the traffic —
the question behind the paper's Figure 4/5 anomalies.
"""

from __future__ import annotations

from repro.errors import ConfigError


def _fmt_bits(bits: float) -> str:
    for unit, scale in (("Tb", 1e12), ("Gb", 1e9), ("Mb", 1e6), ("kb", 1e3)):
        if bits >= scale:
            return f"{bits / scale:.3g}{unit}"
    return f"{bits:.3g}b"


def tier_table(snapshot: dict) -> str:
    """The per-tier utilisation table of one snapshot."""
    lines = [f"{'tier':>14} {'links':>7} {'delivered':>11} {'share':>7} "
             f"{'occupancy':>10} {'mean util':>10} {'peak util':>10}"]
    lines.append("-" * len(lines[0]))
    total_bits = snapshot["delivered_link_bits"]
    total_links = 0
    for name, tier in snapshot["tiers"].items():
        share = tier["delivered_bits"] / total_bits if total_bits else 0.0
        total_links += tier["links"]
        lines.append(
            f"{name:>14} {tier['links']:>7d} "
            f"{_fmt_bits(tier['delivered_bits']):>11} {share * 100:>6.1f}% "
            f"{tier['occupancy'] * 100:>9.1f}% "
            f"{tier['mean_utilisation'] * 100:>9.1f}% "
            f"{tier['peak_utilisation'] * 100:>9.1f}%")
    lines.append(
        f"{'total':>14} {total_links:>7d} {_fmt_bits(total_bits):>11} "
        f"{100.0:>6.1f}%")
    return "\n".join(lines)


def timing_table(snapshot: dict) -> str:
    """Span timers and allocator statistics of one snapshot."""
    alloc = snapshot["allocator"]
    timers = snapshot["timers_s"]
    lines = ["Timing (wall-clock spans):"]
    for name in ("route_construction", "allocation", "event_loop"):
        if name in timers:
            lines.append(f"  {name.replace('_', ' '):>20}: "
                         f"{timers[name]:9.4f} s")
    for name, seconds in timers.items():
        if name not in ("route_construction", "allocation", "event_loop"):
            lines.append(f"  {name.replace('_', ' '):>20}: {seconds:9.4f} s")
    mean_batch = (alloc["batch_flows_total"] / alloc["allocations"]
                  if alloc["allocations"] else 0.0)
    relevel = alloc["relevel_reallocations"]
    relevel_note = f", {relevel} relevelled" if relevel else ""
    lines.append(
        f"Allocator: {alloc['allocations']} allocations "
        f"({alloc['forced_reallocations']} forced, "
        f"{alloc['churn_reallocations']} churn-triggered, "
        f"{alloc['initial_allocations']} initial{relevel_note}); "
        f"mean batch {mean_batch:.1f} flows "
        f"(max {alloc['batch_flows_max']}), "
        f"{alloc['filling_iterations_total']} filling iterations "
        f"(max {alloc['filling_iterations_max']}/allocation)")
    lines.append(
        f"Flows: {snapshot['network_flows']} networked "
        f"+ {snapshot['zero_hop_flows']} zero-hop; "
        f"{snapshot['events']} events; "
        f"{_fmt_bits(snapshot['injected_bits'])} injected, "
        f"{_fmt_bits(snapshot['delivered_link_bits'])} delivered over links")
    return "\n".join(lines)


def profile_report(snapshot: dict | None) -> str:
    """Full profile text: tier utilisation plus timing/allocator tables."""
    if snapshot is None:
        raise ConfigError(
            "no metrics snapshot on this result; run simulate() with a "
            "MetricsCollector")
    header = (f"Per-tier link accounting "
              f"(makespan {snapshot['makespan_s'] * 1e3:.3f} ms):")
    return "\n".join([header, tier_table(snapshot), "", timing_table(snapshot)])
