"""Parallel, resumable design-space sweep execution.

:class:`~repro.sweep.plan.SweepPlan` declares the cells of a sweep, and
:func:`~repro.sweep.runner.run_sweep` executes them (in-process or across a
process pool, with per-worker topology and route cache reuse).  A
``checkpoint`` directory is a :class:`~repro.service.store.ResultStore`
— the store ``repro serve`` answers from — holding each completed cell
under its content digest, so interrupted sweeps resume instead of
restarting and sweeps and the service answer each other's cells.  The
explorer and the ``fig4``/``fig5`` CLI paths run on top of this package;
:func:`~repro.sweep.campaign.run_campaign` fans seeded transient-fault
timelines across the same runner for Monte-Carlo availability studies.
"""

from repro.sweep.campaign import (CAMPAIGN_SCHEMA_VERSION, campaign_table,
                                  parse_seed_range, run_campaign,
                                  write_campaign_report)
from repro.sweep.plan import SweepCell, SweepPlan
from repro.sweep.runner import run_sweep

__all__ = [
    "CAMPAIGN_SCHEMA_VERSION",
    "SweepCell",
    "SweepPlan",
    "campaign_table",
    "parse_seed_range",
    "run_campaign",
    "run_sweep",
    "write_campaign_report",
]
