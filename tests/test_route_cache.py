"""Paper-scale memory budgets of the route store and the plain dict.

``-m scale_smoke`` (CI runs it on every push): the deterministic routes
of a 32,768-endpoint allreduce, filled cold through ``analyze`` into the
:class:`~repro.engine.RouteCache` every sweep uses, and into the plain
dict that outside callers may still pass, each stay under a hard RSS
ceiling.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")


def _run(script: str) -> str:
    """Run ``script`` in a fresh interpreter, so ``ru_maxrss`` reflects
    its workload alone, and return its standard output."""
    env = dict(os.environ,
               PYTHONPATH=REPO_SRC + os.pathsep
               + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.scale_smoke
class TestScaleSmoke:
    def test_32k_endpoint_store_under_rss_ceiling(self):
        """All 491,520 allreduce routes of a 32k-endpoint NestTree in one
        route store, under 256 MB RSS.

        The exact row count keeps the test from passing on a fill that
        routed nothing.
        """
        out = _run(
            "import resource\n"
            "from repro.engine import RouteCache, analyze\n"
            "from repro.topology import build\n"
            "from repro.workloads import build as build_workload\n"
            "topo = build('nesttree', 32768, t=2, u=4)\n"
            "flows = build_workload('allreduce', 32768, seed=0).build()\n"
            "store = RouteCache()\n"
            "analyze(topo, flows, route_cache=store)\n"
            "rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss \\\n"
            "    / 1024.0\n"
            "print(f'rows={len(store)} rss_mb={rss_mb:.0f}')\n"
            "assert len(store) == 491520, len(store)\n"
            "assert not store._candidate_arenas\n"
            "assert rss_mb < 256.0, f'RSS {rss_mb:.0f} MiB over budget'\n")
        assert "rows=491520" in out

    def test_32k_endpoint_cache_under_rss_ceiling(self):
        """All 491,520 allreduce routes of a 32k-endpoint NestTree in one
        dict, under 1.5 GB RSS; the exact route count keeps the test from
        passing on a fill that routed nothing.
        """
        out = _run(
            "import resource\n"
            "from repro.engine import analyze\n"
            "from repro.topology import build\n"
            "from repro.workloads import build as build_workload\n"
            "topo = build('nesttree', 32768, t=2, u=4)\n"
            "flows = build_workload('allreduce', 32768, seed=0).build()\n"
            "cache = {}\n"
            "analyze(topo, flows, route_cache=cache)\n"
            "rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss \\\n"
            "    / 1024.0\n"
            "print(f'routes={len(cache)} rss_mb={rss_mb:.0f}')\n"
            "assert len(cache) == 491520, len(cache)\n"
            "assert rss_mb < 1536.0, f'RSS {rss_mb:.0f} MiB over budget'\n")
        assert "routes=491520" in out
