"""Tests for the directed-link registry."""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.errors import TopologyError
from repro.topology.linktable import LinkTable


class TestAdd:
    def test_ids_are_dense(self):
        t = LinkTable()
        assert t.add_links([0, 1], [1, 0], 1.0).tolist() == [0, 1]
        assert t.add_links([2], [3], 1.0).tolist() == [2]
        assert t.num_links == 3

    def test_duplicate_rejected(self):
        t = LinkTable()
        t.add_links([0], [1], 1.0)
        with pytest.raises(TopologyError, match="duplicate link 0 -> 1"):
            t.add_links([2, 0], [3, 1], 1.0)
        assert t.num_links == 1          # a rejected batch adds nothing

    def test_duplicate_within_one_batch_rejected(self):
        t = LinkTable()
        with pytest.raises(TopologyError, match="duplicate link 4 -> 5"):
            t.add_links([4, 1, 4], [5, 2, 5], 1.0)
        assert t.num_links == 0

    def test_opposite_direction_is_distinct(self):
        t = LinkTable()
        t.add_links([0], [1], 1.0)
        t.add_links([1], [0], 2.0)  # fine
        t.add_links([5, 6], [6, 5], 1.0)  # both directions in one batch

    def test_nonpositive_capacity_rejected(self):
        t = LinkTable()
        with pytest.raises(TopologyError):
            t.add_links([0], [1], 0.0)
        with pytest.raises(TopologyError):
            t.add_links([0], [1], -5.0)
        with pytest.raises(TopologyError, match="-2.0"):
            t.add_links([0, 1], [1, 2], [1.0, -2.0])
        assert t.num_links == 0

    def test_per_link_capacities(self):
        t = LinkTable()
        t.add_links([0, 1], [1, 2], [1.0, 3.0])
        assert t.capacities.tolist() == [1.0, 3.0]

    def test_mismatched_or_negative_vertices_rejected(self):
        t = LinkTable()
        with pytest.raises(TopologyError):
            t.add_links([0, 1], [1], 1.0)
        with pytest.raises(TopologyError):
            t.add_links([-1], [1], 1.0)

    def test_add_cables(self):
        t = LinkTable()
        a, b, c, d = t.add_cables([3, 1], [7, 2], 2.0)
        assert t.endpoints_of(a) == (3, 7)
        assert t.endpoints_of(b) == (7, 3)
        assert t.endpoints_of(c) == (1, 2)
        assert t.endpoints_of(d) == (2, 1)

    def test_frozen_rejects_additions(self):
        t = LinkTable()
        t.add_links([0], [1], 1.0)
        t.freeze()
        with pytest.raises(TopologyError):
            t.add_links([1], [2], 1.0)
        with pytest.raises(TopologyError):
            t.add_cables([1], [2], 1.0)


class TestLookup:
    def test_id_of(self):
        t = LinkTable()
        t.add_links([0], [1], 1.0)
        (lid,) = t.add_links([2], [5], 1.0)
        assert t.id_of(2, 5) == lid
        assert t.has(2, 5) and not t.has(5, 2)
        assert not t.has(-1, 5) and not t.has(2, 2 ** 40)

    def test_ids_of(self):
        t = LinkTable()
        t.add_links([4, 0, 2], [1, 3, 9], 1.0)
        assert t.ids_of([2, 4, 0, 4], [9, 1, 3, 1]).tolist() == [2, 0, 1, 0]
        with pytest.raises(TopologyError, match="no link 1 -> 4"):
            t.ids_of([4, 1], [1, 4])

    def test_missing_raises(self):
        t = LinkTable()
        with pytest.raises(TopologyError):
            t.id_of(0, 1)
        with pytest.raises(TopologyError):
            t.endpoints_of(0)

    def test_path_to_links(self):
        t = LinkTable()
        a, b = t.add_links([0, 1], [1, 2], 1.0).tolist()
        assert t.path_to_links([0, 1, 2]) == [a, b]
        assert t.path_to_links([0]) == []

    def test_path_over_missing_link_raises(self):
        t = LinkTable()
        t.add_links([0], [1], 1.0)
        with pytest.raises(TopologyError):
            t.path_to_links([0, 1, 2])


class TestCapacities:
    def test_vector_matches_registration_order(self):
        t = LinkTable()
        t.add_links([0, 1], [1, 2], [1.0, 3.0])
        assert np.allclose(t.capacities, [1.0, 3.0])

    def test_vector_is_immutable(self):
        t = LinkTable()
        t.add_links([0], [1], 1.0)
        with pytest.raises(ValueError):
            t.capacities[0] = 9.0

    def test_pairs_copy(self):
        t = LinkTable()
        t.add_links([0], [1], 1.0)
        pairs = t.pairs()
        pairs[(9, 9)] = 99
        assert not t.has(9, 9)


class TestEndpointViews:
    """sources/destinations must never expose mutable internal state."""

    def test_arrays_match_registration_order(self):
        t = LinkTable()
        t.add_links([0, 3], [1, 2], 1.0)
        assert t.sources.tolist() == [0, 3]
        assert t.destinations.tolist() == [1, 2]

    def test_views_are_read_only(self):
        t = LinkTable()
        t.add_links([0], [1], 1.0)
        for arr in (t.sources, t.destinations):
            with pytest.raises(ValueError):
                arr[0] = 99
        t.freeze()
        for arr in (t.sources, t.destinations):
            with pytest.raises(ValueError):
                arr[0] = 99

    def test_frozen_views_are_cached(self):
        t = LinkTable()
        t.add_links([0], [1], 1.0)
        t.freeze()
        assert t.sources is t.sources
        assert t.destinations is t.destinations

    def test_unfrozen_views_track_additions(self):
        t = LinkTable()
        t.add_links([0], [1], 1.0)
        before = t.sources
        t.add_links([5], [6], 1.0)
        assert before.tolist() == [0]       # a snapshot, not an alias
        assert t.sources.tolist() == [0, 5]


REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")


@pytest.mark.scale_smoke
class TestScaleSmoke:
    def test_131k_nesttree_link_table_under_40_mib(self):
        """The link table of a paper-scale NestTree(2,4) (131,072
        endpoints, 851,968 links) holds under 40 MiB.

        Runs in a subprocess so tracemalloc sees this build alone.  The
        table's share is what releasing it frees, so arrays it merely
        references count too; the exact link count keeps the test from
        passing on a build that registered nothing.
        """
        script = (
            "import gc, tracemalloc\n"
            "from repro.topology import build\n"
            "tracemalloc.start()\n"
            "topo = build('nesttree', 131072, t=2, u=4)\n"
            "links = topo.links.num_links\n"
            "gc.collect()\n"
            "held = tracemalloc.get_traced_memory()[0]\n"
            "topo.links = None\n"
            "gc.collect()\n"
            "mib = (held - tracemalloc.get_traced_memory()[0]) / 2 ** 20\n"
            "print(f'links={links} table_mib={mib:.1f}')\n"
            "assert mib < 40.0, f'link table {mib:.1f} MiB over budget'\n")
        env = dict(os.environ,
                   PYTHONPATH=REPO_SRC + os.pathsep
                   + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=env,
                              timeout=600)
        assert proc.returncode == 0, proc.stderr
        assert "links=851968 " in proc.stdout, proc.stdout
