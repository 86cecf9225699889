"""Tests for FlowBuilder / FlowSet (dependency DAG machinery)."""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.flows import FlowBuilder
from repro.errors import WorkloadError


REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")


def diamond() -> FlowBuilder:
    """a -> {b, c} -> d"""
    b = FlowBuilder(4)
    f_a = b.add_flow(0, 1, 1.0)
    f_b = b.add_flow(1, 2, 1.0, after=[f_a])
    f_c = b.add_flow(1, 3, 1.0, after=[f_a])
    b.add_flow(2, 3, 1.0, after=[f_b, f_c])
    return b


class TestBuilder:
    def test_ids_sequential(self):
        b = FlowBuilder(2)
        assert b.add_flow(0, 1, 1.0) == 0
        assert b.add_flow(1, 0, 1.0) == 1
        assert b.num_flows == 2

    def test_validates_tasks(self):
        b = FlowBuilder(2)
        with pytest.raises(WorkloadError):
            b.add_flow(0, 2, 1.0)
        with pytest.raises(WorkloadError):
            b.add_flow(-1, 0, 1.0)

    def test_validates_size(self):
        b = FlowBuilder(2)
        with pytest.raises(WorkloadError):
            b.add_flow(0, 1, 0.0)

    def test_validates_dependency_ids(self):
        b = FlowBuilder(2)
        b.add_flow(0, 1, 1.0)
        with pytest.raises(WorkloadError):
            b.add_dependency(0, 5)
        with pytest.raises(WorkloadError):
            b.add_dependency(0, 0)

    def test_needs_a_task(self):
        with pytest.raises(WorkloadError):
            FlowBuilder(0)

    def test_chain_helper(self):
        b = FlowBuilder(2)
        ids = [b.add_flow(0, 1, 1.0) for _ in range(4)]
        b.chain(ids)
        fs = b.build()
        assert fs.indegree.tolist() == [0, 1, 1, 1]

    def test_barrier_helper(self):
        b = FlowBuilder(2)
        pre = [b.add_flow(0, 1, 1.0) for _ in range(2)]
        post = [b.add_flow(1, 0, 1.0) for _ in range(3)]
        b.barrier(pre, post)
        fs = b.build()
        assert fs.num_dependencies == 6
        assert fs.indegree.tolist() == [0, 0, 2, 2, 2]


ARRAYS = ("src", "dst", "size", "weight", "indegree", "succ_indptr",
          "succ_indices")


def snapshot(b: FlowBuilder) -> dict:
    """Everything a build of ``b`` would return, plus its flow count."""
    fs = b.build(validate=False)
    return {"num_flows": b.num_flows,
            **{name: getattr(fs, name).copy() for name in ARRAYS}}


def assert_same_snapshot(a: dict, b: dict) -> None:
    assert a.keys() == b.keys()
    for key in a:
        np.testing.assert_array_equal(a[key], b[key], err_msg=key)
        if key != "num_flows":
            assert a[key].dtype == b[key].dtype, key


class TestBatch:
    def test_batch_matches_scalar_calls(self):
        scalar = FlowBuilder(4)
        for s, d in [(0, 1), (1, 2), (2, 3)]:
            scalar.add_flow(s, d, 2.0)
        scalar.add_dependency(0, 2)
        scalar.add_dependency(1, 2)
        batch = FlowBuilder(4)
        ids = batch.add_flows([0, 1, 2], np.array([1, 2, 3]), 2.0)
        batch.add_dependencies(ids[:2], [2, 2])
        assert ids.tolist() == [0, 1, 2]
        assert ids.dtype == np.int64
        assert_same_snapshot(snapshot(scalar), snapshot(batch))

    def test_mixed_calls_keep_order(self):
        b = FlowBuilder(3)
        a = b.add_flow(0, 1, 1.0)
        ids = b.add_flows([1, 2], [2, 0], [3.0, 4.0], weight=[1.0, 2.0])
        c = b.add_flow(2, 1, 5.0, after=[a])
        b.add_dependencies([ids[1]], [c])
        b.add_dependency(ids[0], c)
        assert (a, *ids.tolist(), c) == (0, 1, 2, 3)
        fs = b.build()
        assert fs.src.tolist() == [0, 1, 2, 2]
        assert fs.size.tolist() == [1.0, 3.0, 4.0, 5.0]
        assert fs.weight.tolist() == [1.0, 1.0, 2.0, 1.0]
        # successors of each flow keep insertion order
        assert fs.successors(0).tolist() == [3]
        assert fs.successors(2).tolist() == [3]
        assert fs.indegree.tolist() == [0, 0, 0, 3]

    def test_scalar_columns_broadcast(self):
        b = FlowBuilder(4)
        ids = b.add_flows([1, 2, 3], 0, 2.5, weight=2.0)
        sink = b.add_flow(0, 1, 1.0)
        b.add_dependencies(ids, sink)  # fan-in to one flow
        fs = b.build()
        assert fs.dst.tolist() == [0, 0, 0, 1]
        assert fs.size.tolist() == [2.5, 2.5, 2.5, 1.0]
        assert fs.weight.tolist() == [2.0, 2.0, 2.0, 1.0]
        assert fs.indegree.tolist() == [0, 0, 0, 3]

    def test_empty_batches_are_noops(self):
        b = FlowBuilder(2)
        assert b.add_flows([], [], 1.0).tolist() == []
        b.add_dependencies([], [])
        assert b.num_flows == 0
        assert b.build().num_flows == 0

    def test_builder_reusable_after_build(self):
        b = FlowBuilder(2)
        b.add_flows([0, 1], [1, 0], 1.0)
        b.add_dependency(0, 1)
        first = b.build()
        b.add_flow(0, 1, 1.0, after=[1])
        second = b.build()
        assert first.num_flows == 2 and first.num_dependencies == 1
        assert second.num_flows == 3 and second.num_dependencies == 2
        assert second.successors(1).tolist() == [2]

    def test_backward_edge_acyclic_graph_validates(self):
        b = FlowBuilder(2)
        b.add_flows([0, 1, 0], [1, 0, 1], 1.0)
        b.add_dependencies([2, 0], [0, 1])  # 2 -> 0 points backward
        fs = b.build()
        assert fs.topological_order().tolist() == [2, 0, 1]
        assert fs.dependency_depth() == 3

    def test_cycle_through_batch_raises(self):
        b = FlowBuilder(2)
        b.add_flows([0, 1, 0], [1, 0, 1], 1.0)
        b.add_dependencies([0, 1, 2], [1, 2, 0])
        with pytest.raises(WorkloadError, match="cycle"):
            b.build()
        b.build(validate=False)  # the caller's responsibility then

    MALFORMED = {
        "task-out-of-range": lambda b: b.add_flows([0, 3], [1, 1], 1.0),
        "negative-task": lambda b: b.add_flows([0, 1], [1, -1], 1.0),
        "zero-size": lambda b: b.add_flows([0, 1], [1, 0], [1.0, 0.0]),
        "negative-size": lambda b: b.add_flows([0, 1], [1, 0], -1.0),
        "nan-size": lambda b: b.add_flows([0, 1], [1, 0], float("nan")),
        "zero-weight": lambda b: b.add_flows([0], [1], 1.0, weight=0.0),
        "dst-length": lambda b: b.add_flows([0, 1], [1, 0, 2], 1.0),
        "size-length": lambda b: b.add_flows([0, 1], [1, 0], [1.0]),
        "float-ids": lambda b: b.add_flows([0.0, 1.0], [1, 0], 1.0),
        "scalar-src": lambda b: b.add_flows(0, 1, 1.0),
        "unknown-succ": lambda b: b.add_dependencies([0, 1], [1, 5]),
        "unknown-pred": lambda b: b.add_dependencies([-1], [1]),
        "self-dependency": lambda b: b.add_dependencies([0, 1], [1, 1]),
        "dep-length": lambda b: b.add_dependencies([0, 1], [1]),
        "dep-2d": lambda b: b.add_dependencies([[0]], [[1]]),
        "dep-scalar": lambda b: b.add_dependencies(0, 1),
        "after-unknown": lambda b: b.add_flow(0, 1, 1.0, after=[0, 9]),
        "after-own-id": lambda b: b.add_flow(0, 1, 1.0, after=[4]),
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_batch_raises_and_leaves_builder_unchanged(self, case):
        b = FlowBuilder(3)
        b.add_flows([0, 1, 2], [1, 2, 0], [1.0, 2.0, 3.0])
        b.add_flow(2, 1, 4.0, after=[0])
        b.add_dependency(1, 2)
        before = snapshot(b)
        with pytest.raises(WorkloadError):
            self.MALFORMED[case](b)
        assert_same_snapshot(snapshot(b), before)

    def test_batch_copies_its_inputs(self):
        src = np.array([0, 1])
        size = np.array([1.0, 2.0])
        b = FlowBuilder(2)
        b.add_flows(src, 1 - src, size)
        src[:] = 0
        size[:] = 9.0
        fs = b.build()
        assert fs.src.tolist() == [0, 1]
        assert fs.size.tolist() == [1.0, 2.0]


class TestFlowSet:
    def test_diamond_structure(self):
        fs = diamond().build()
        assert fs.num_flows == 4
        assert fs.roots().tolist() == [0]
        assert sorted(fs.successors(0).tolist()) == [1, 2]
        assert fs.successors(3).tolist() == []
        assert fs.indegree.tolist() == [0, 1, 1, 2]

    def test_total_bits(self):
        fs = diamond().build()
        assert fs.total_bits == 4.0

    def test_topological_order(self):
        fs = diamond().build()
        order = fs.topological_order().tolist()
        pos = {f: i for i, f in enumerate(order)}
        assert pos[0] < pos[1] and pos[0] < pos[2]
        assert pos[1] < pos[3] and pos[2] < pos[3]

    def test_cycle_detection(self):
        b = FlowBuilder(2)
        x = b.add_flow(0, 1, 1.0)
        y = b.add_flow(1, 0, 1.0, after=[x])
        b.add_dependency(y, x)
        with pytest.raises(WorkloadError):
            b.build()

    def test_cycle_detection_can_be_skipped(self):
        b = FlowBuilder(2)
        x = b.add_flow(0, 1, 1.0)
        y = b.add_flow(1, 0, 1.0, after=[x])
        b.add_dependency(y, x)
        fs = b.build(validate=False)  # caller's responsibility now
        with pytest.raises(WorkloadError):
            fs.topological_order()

    def test_dependency_depth(self):
        fs = diamond().build()
        assert fs.dependency_depth() == 3

    def test_dependency_depth_no_deps(self):
        b = FlowBuilder(2)
        for _ in range(5):
            b.add_flow(0, 1, 1.0)
        assert b.build().dependency_depth() == 1

    def test_empty(self):
        fs = FlowBuilder(1).build()
        assert fs.num_flows == 0
        assert fs.dependency_depth() == 0


class TestProperties:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_dags_roundtrip(self, data):
        """CSR successors/indegree agree with the edge list on random DAGs
        built from interleaved scalar and batch calls, and match a build
        of the same flows and edges through scalar calls alone."""
        b = FlowBuilder(4)
        scalar = FlowBuilder(4)
        edges: list[tuple[int, int]] = []
        for _ in range(data.draw(st.integers(1, 12))):
            n = b.num_flows
            kind = data.draw(st.sampled_from(
                ["flow", "flows", "dep", "deps"] if n > 1 else ["flow", "flows"]))
            if kind in ("flow", "flows"):
                k = 1 if kind == "flow" else data.draw(st.integers(0, 6))
                src = data.draw(st.lists(st.integers(0, 3), min_size=k, max_size=k))
                dst = data.draw(st.lists(st.integers(0, 3), min_size=k, max_size=k))
                size = data.draw(st.lists(st.floats(0.1, 10.0), min_size=k,
                                          max_size=k))
                if kind == "flow":
                    b.add_flow(src[0], dst[0], size[0])
                else:
                    ids = b.add_flows(src, dst, size)
                    assert ids.tolist() == list(range(n, n + k))
                for s_, d_, z in zip(src, dst, size):
                    scalar.add_flow(s_, d_, z)
                continue
            k = 1 if kind == "dep" else data.draw(st.integers(0, 6))
            batch = []
            for _ in range(k):
                succ = data.draw(st.integers(1, n - 1))
                pred = data.draw(st.integers(0, succ - 1))  # forward: acyclic
                if (pred, succ) not in edges and (pred, succ) not in batch:
                    batch.append((pred, succ))
            if kind == "dep":
                for pred, succ in batch:
                    b.add_dependency(pred, succ)
            else:
                b.add_dependencies([p for p, _ in batch], [s_ for _, s_ in batch])
            for pred, succ in batch:
                scalar.add_dependency(pred, succ)
            edges.extend(batch)
        n = b.num_flows
        fs = b.build()
        assert fs.num_flows == n
        assert fs.num_dependencies == len(edges)
        rebuilt = {(p, s) for p in range(n) for s in fs.successors(p).tolist()}
        assert rebuilt == set(edges)
        indeg = np.zeros(n, dtype=int)
        for _, s in edges:
            indeg[s] += 1
        assert fs.indegree.tolist() == indeg.tolist()
        for p in range(n):  # successors in insertion order
            assert fs.successors(p).tolist() == [s for q, s in edges if q == p]
        fs.topological_order()  # must not raise
        assert_same_snapshot(snapshot(b), snapshot(scalar))


@pytest.mark.scale_smoke
class TestScaleSmoke:
    def test_32k_allreduce_build_under_rss_budget(self):
        """The 32,768-task allreduce (491,520 flows, 29.5 MB of arrays)
        builds with peak RSS at most 100 MB above its pre-build level.

        Runs in a subprocess so ``ru_maxrss`` reflects this build alone;
        the exact flow and dependency counts keep the test from passing on
        a build that made nothing.
        """
        script = (
            "import resource\n"
            "from repro.workloads import build as build_workload\n"
            "def peak_mb():\n"
            "    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss \\\n"
            "        / 1024.0\n"
            "workload = build_workload('allreduce', 32768, seed=0)\n"
            "before = peak_mb()\n"
            "flows = workload.build()\n"
            "rise = peak_mb() - before\n"
            "print(f'flows={flows.num_flows} '\n"
            "      f'deps={flows.num_dependencies} rise_mb={rise:.0f}')\n"
            "assert rise < 100.0, f'RSS rose {rise:.0f} MiB, budget 100'\n")
        env = dict(os.environ,
                   PYTHONPATH=REPO_SRC + os.pathsep
                   + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=env,
                              timeout=600)
        assert proc.returncode == 0, proc.stderr
        # 15 doubling steps of 32,768 sends (a power of two: no folding);
        # every send after the first step waits on two earlier sends
        assert "flows=491520 deps=917504 " in proc.stdout, proc.stdout
