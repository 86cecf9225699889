"""Shared benchmark infrastructure.

Benchmarks default to a scaled-down system so ``pytest benchmarks/
--benchmark-only`` completes in minutes; set ``REPRO_BENCH_ENDPOINTS`` (and
optionally ``REPRO_BENCH_TASKS`` for the quadratic workloads) to raise the
scale — the headline EXPERIMENTS.md run uses 4096.  ``REPRO_BENCH_JOBS``
fans each figure sweep out over the parallel sweep runner (default 1:
serial, which also lets every bench share one in-process topology cache).

Each figure bench simulates one workload across the whole design space and
deposits its records into a session-wide table; at session teardown the
assembled Figure 4/5 reports (normalised series + the paper's shape checks)
are written to ``benchmarks/results/``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

# the repository root, so benches can import the loop oracle (tests.oracle)
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from repro.core import DesignSpaceExplorer
from repro.core.explorer import ResultTable

BENCH_ENDPOINTS = int(os.environ.get("REPRO_BENCH_ENDPOINTS", "512"))
BENCH_TASKS = int(os.environ.get("REPRO_BENCH_TASKS", "128"))
BENCH_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))
RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def sweep_jobs() -> int:
    """Worker count for the figure sweeps (REPRO_BENCH_JOBS)."""
    return BENCH_JOBS


def write_result(name: str, text: str) -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / name
    path.write_text(text + "\n")
    return path


@pytest.fixture(scope="session")
def explorer() -> DesignSpaceExplorer:
    """One explorer (and topology cache) shared by every figure bench."""
    return DesignSpaceExplorer(BENCH_ENDPOINTS, fidelity="approx",
                               quadratic_tasks=BENCH_TASKS, seed=0)


class FigureCollector:
    """Accumulates per-workload sweep records and renders the figure."""

    def __init__(self, figure_no: int, endpoints: int) -> None:
        self.figure_no = figure_no
        self.table = ResultTable(endpoints=endpoints, fidelity="approx")

    def absorb(self, table: ResultTable) -> None:
        self.table.records.extend(table.records)

    def render(self) -> str:
        from repro.core import claims_report, figure

        workloads = self.table.workloads()
        if not workloads:
            return f"Figure {self.figure_no}: no results collected"
        text = figure(self.table, workloads,
                      title=f"Figure {self.figure_no}")
        text += "\n\n" + claims_report(self.table, self.figure_no)
        return text


@pytest.fixture(scope="session")
def fig4_collector():
    collector = FigureCollector(4, BENCH_ENDPOINTS)
    yield collector
    write_result("fig4_report.txt", collector.render())


@pytest.fixture(scope="session")
def fig5_collector():
    collector = FigureCollector(5, BENCH_ENDPOINTS)
    yield collector
    write_result("fig5_report.txt", collector.render())
