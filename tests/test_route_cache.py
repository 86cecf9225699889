"""Tests for the sharded, disk-spillable route cache.

Covers the three behaviours the scaling work depends on:

* spill/reload round-trips are *byte-identical*, including across a
  process boundary (a sweep worker can inherit another worker's spill
  directory);
* a corrupt or truncated shard file degrades to recomputation with a
  :class:`~repro.routing.cache.RouteCacheWarning` — never a crash, never
  a wrong route;
* a paper-scale (32k-endpoint) cache stays under a hard RSS ceiling
  while a plain dict of the same routes would not be bounded
  (``-m scale_smoke``; CI runs it on every push).
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import warnings

import numpy as np
import pytest

from repro.engine import simulate
from repro.errors import ConfigError
from repro.routing.cache import (RouteCacheWarning, ShardedRouteCache,
                                 make_route_cache)
from repro.workloads import build as build_workload

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")


def _fill(cache, topo, pairs):
    for s, d in pairs:
        cache[(s, d)] = np.asarray(topo.route(s, d), dtype=np.int64)
        cache[("cands", s, d, None)] = [
            np.asarray(r, dtype=np.int64)
            for r in topo.route_candidates(s, d)]


class TestMappingSemantics:
    def test_mutablemapping_contract(self):
        c = ShardedRouteCache(shards=4, max_resident=2)
        assert len(c) == 0 and list(c) == []
        c[(0, 1)] = np.array([1, 2])
        c[(1, 2, "tok")] = np.array([3])
        c[("cands", 2, 3, "tok")] = [np.array([4])]
        assert len(c) == 3
        assert (0, 1) in c and (9, 9) not in c
        assert set(c) == {(0, 1), (1, 2, "tok"), ("cands", 2, 3, "tok")}
        del c[(1, 2, "tok")]
        assert len(c) == 2 and (1, 2, "tok") not in c
        c[(0, 1)] = np.array([7])  # overwrite must not double-count
        assert len(c) == 2 and c[(0, 1)].tolist() == [7]

    def test_get_default(self):
        c = ShardedRouteCache(shards=2, max_resident=1)
        assert c.get((5, 6)) is None

    def test_foreign_keys_accepted(self):
        c = ShardedRouteCache(shards=4, max_resident=2)
        c["odd-key"] = 1
        c[(("nested",), 2)] = 2
        assert c["odd-key"] == 1 and len(c) == 2

    def test_validation(self):
        with pytest.raises(ConfigError):
            ShardedRouteCache(shards=0)
        with pytest.raises(ConfigError):
            ShardedRouteCache(max_resident=0)


class TestSpillRoundTrip:
    def test_flush_reload_same_process(self, small_nesttree, tmp_path):
        n = small_nesttree.num_endpoints
        pairs = [(s, (s + 7) % n) for s in range(n) if s != (s + 7) % n]
        a = ShardedRouteCache(shards=8, max_resident=2,
                              spill_dir=str(tmp_path))
        _fill(a, small_nesttree, pairs)
        a.flush()
        b = ShardedRouteCache(shards=8, max_resident=2,
                              spill_dir=str(tmp_path))
        assert len(b) == len(a)
        for key in a:
            va, vb = a[key], b[key]
            if isinstance(va, list):
                assert len(va) == len(vb)
                for x, y in zip(va, vb):
                    assert x.tobytes() == y.tobytes()
            else:
                assert va.tobytes() == vb.tobytes()

    def test_reload_in_fresh_process_byte_identical(self, small_nesttree,
                                                    tmp_path):
        """A different OS process serves the spilled routes bit-for-bit."""
        n = small_nesttree.num_endpoints
        pairs = [(s, (s + 5) % n) for s in range(n) if s != (s + 5) % n]
        cache = ShardedRouteCache(shards=8, max_resident=2,
                                  spill_dir=str(tmp_path))
        _fill(cache, small_nesttree, pairs)
        cache.flush()
        want = {key: cache[key].tobytes() for key in cache
                if not isinstance(cache[key], list)}
        script = (
            "import pickle, sys\n"
            "from repro.routing.cache import ShardedRouteCache\n"
            "c = ShardedRouteCache(shards=8, max_resident=2,\n"
            "                      spill_dir=sys.argv[1])\n"
            "out = {k: c[k].tobytes() for k in c\n"
            "       if not isinstance(c[k], list)}\n"
            "sys.stdout.buffer.write(pickle.dumps(out))\n")
        env = dict(os.environ,
                   PYTHONPATH=REPO_SRC + os.pathsep
                   + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                              capture_output=True, env=env, check=True)
        got = pickle.loads(proc.stdout)
        assert got == want and len(got) == len(pairs)

    def test_spill_respects_resident_budget(self):
        c = ShardedRouteCache(shards=16, max_resident=3)
        for s in range(64):
            c[(s, s + 1)] = np.arange(s % 7 + 1, dtype=np.int64)
        assert c.resident_shards() <= 3
        assert c.stats["spills"] > 0
        assert len(c) == 64  # spilled entries still count and still serve
        assert c[(0, 1)].tolist() == [0]

    def test_unbounded_never_spills(self, tmp_path):
        c = ShardedRouteCache(shards=8, max_resident=None,
                              spill_dir=str(tmp_path))
        for s in range(64):
            c[(s, s + 1)] = np.arange(3, dtype=np.int64)
        assert c.stats["spills"] == 0
        assert not any(f.endswith(".bin") for f in os.listdir(tmp_path))


class TestCorruptShard:
    def _spilled(self, tmp_path):
        c = ShardedRouteCache(shards=4, max_resident=1,
                              spill_dir=str(tmp_path))
        for s in range(16):
            c[(s, s + 1)] = np.arange(s + 1, dtype=np.int64)
        c.flush()
        return c

    @pytest.mark.parametrize("damage", ("garbage", "truncate", "not_dict"))
    def test_degrades_to_recompute_with_warning(self, tmp_path, damage):
        self._spilled(tmp_path)
        victim = os.path.join(str(tmp_path), "shard_00000.bin")
        assert os.path.exists(victim)
        if damage == "garbage":
            with open(victim, "wb") as fh:
                fh.write(b"not a shard at all")
        elif damage == "truncate":
            blob = open(victim, "rb").read()
            with open(victim, "wb") as fh:
                fh.write(blob[:len(blob) // 2])
        else:
            import zlib
            with open(victim, "wb") as fh:
                fh.write(b"repro-route-shard-v1\n"
                         + zlib.compress(pickle.dumps(["not", "a", "dict"])))
        fresh = ShardedRouteCache(shards=4, max_resident=1,
                                  spill_dir=str(tmp_path))
        with pytest.warns(RouteCacheWarning):
            assert fresh.get((0, 1)) is None  # damaged shard -> recompute
        assert fresh.stats["corrupt"] == 1
        assert not os.path.exists(victim)  # bad file is cleared
        # untouched shards still serve
        assert fresh[(1, 2)].tolist() == [0, 1]
        # and the simulation just recomputes the lost routes
        fresh[(0, 1)] = np.array([42], dtype=np.int64)
        assert fresh[(0, 1)].tolist() == [42]

    def test_simulation_survives_corrupt_spill(self, small_nesttree,
                                               tmp_path):
        flows = build_workload("allreduce", small_nesttree.num_endpoints,
                               seed=0).build()
        clean = simulate(small_nesttree, flows)
        cache = ShardedRouteCache(shards=4, max_resident=1,
                                  spill_dir=str(tmp_path))
        simulate(small_nesttree, flows, route_cache=cache)
        cache.flush()
        for name in os.listdir(tmp_path):
            if name.endswith(".bin"):
                with open(os.path.join(str(tmp_path), name), "wb") as fh:
                    fh.write(b"zap")
                break
        reloaded = ShardedRouteCache(shards=4, max_resident=1,
                                     spill_dir=str(tmp_path))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RouteCacheWarning)
            again = simulate(small_nesttree, flows, route_cache=reloaded)
        assert again.makespan == clean.makespan
        np.testing.assert_array_equal(again.completion_times,
                                      clean.completion_times)


class TestFactory:
    def test_default_is_dict(self):
        assert type(make_route_cache(1024)) is dict
        assert type(make_route_cache(None)) is dict

    def test_auto_threshold(self):
        from repro.routing.cache import (DEFAULT_AUTO_ENDPOINTS,
                                         RouteCacheConfig)

        assert DEFAULT_AUTO_ENDPOINTS == 65536
        assert isinstance(make_route_cache(65536), ShardedRouteCache)
        assert type(make_route_cache(65535)) is dict
        auto = RouteCacheConfig(mode="auto")
        assert isinstance(make_route_cache(65536, config=auto),
                          ShardedRouteCache)
        assert type(make_route_cache(65535, config=auto)) is dict

    def test_explicit_modes(self):
        from repro.routing.cache import RouteCacheConfig

        c = make_route_cache(64, config=RouteCacheConfig(
            mode="sharded", shards=9, resident=0))
        assert isinstance(c, ShardedRouteCache)
        assert c.shards == 9 and c.max_resident is None
        assert type(make_route_cache(
            10 ** 9, config=RouteCacheConfig(mode="dict"))) is dict
        with pytest.raises(ConfigError):
            make_route_cache(64, config=RouteCacheConfig(mode="bogus"))


@pytest.mark.scale_smoke
class TestScaleSmoke:
    def test_32k_endpoint_cache_under_rss_ceiling(self, tmp_path):
        """Routes for a 32k-endpoint NestTree, spilled, under 1.5 GB RSS.

        Runs in a subprocess so ``ru_maxrss`` reflects this workload
        alone.  The cache holds one deterministic route per source
        endpoint (32k entries through a 64-shard cache with only 4
        resident) — the spill machinery, not the route count, bounds
        memory.
        """
        script = (
            "import resource, sys\n"
            "import numpy as np\n"
            "from repro.routing.cache import ShardedRouteCache\n"
            "from repro.topology import NestTree\n"
            "topo = NestTree(32768, 2, 4)\n"
            "cache = ShardedRouteCache(shards=64, max_resident=4,\n"
            "                          spill_dir=sys.argv[1])\n"
            "n = topo.num_endpoints\n"
            "for s in range(n):\n"
            "    d = (s + n // 2 + 1) % n\n"
            "    cache[(s, d)] = np.asarray(topo.route(s, d),\n"
            "                               dtype=np.int64)\n"
            "assert len(cache) == n, len(cache)\n"
            "assert cache.stats['spills'] > 0\n"
            "rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss \\\n"
            "    / 1024.0\n"
            "print(f'rss_mb={rss_mb:.0f} resident={cache.resident_shards()}'"
            ")\n"
            "assert rss_mb < 1536.0, f'RSS {rss_mb:.0f} MiB over budget'\n")
        env = dict(os.environ,
                   PYTHONPATH=REPO_SRC + os.pathsep
                   + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                              capture_output=True, text=True, env=env,
                              timeout=600)
        assert proc.returncode == 0, proc.stderr
        assert "rss_mb=" in proc.stdout


class TestRouteCacheConfig:
    """The explicit config object the sweep runner threads to workers."""

    def test_defaults_match_env_defaults(self):
        from repro.routing.cache import RouteCacheConfig

        cfg = RouteCacheConfig()
        assert isinstance(make_route_cache(64, config=cfg), dict)
        sharded = make_route_cache(
            64, config=RouteCacheConfig(mode="sharded"))
        assert isinstance(sharded, ShardedRouteCache)

    def test_explicit_fields_override_env(self):
        # no environment variable is read: explicit fields are the policy
        from repro.routing.cache import RouteCacheConfig

        cache = make_route_cache(
            64, config=RouteCacheConfig(mode="sharded", shards=8,
                                        resident=2))
        assert isinstance(cache, ShardedRouteCache)
        assert cache.shards == 8 and cache.max_resident == 2

    def test_none_fields_fall_back_to_env(self):
        # unset fields take the library defaults (64 shards, 16 resident)
        from repro.routing.cache import (DEFAULT_RESIDENT, DEFAULT_SHARDS,
                                         RouteCacheConfig)

        assert (DEFAULT_SHARDS, DEFAULT_RESIDENT) == (64, 16)
        cache = make_route_cache(
            64, config=RouteCacheConfig(mode="sharded"))
        assert cache.shards == DEFAULT_SHARDS
        assert cache.max_resident == DEFAULT_RESIDENT
        unbounded = make_route_cache(
            64, config=RouteCacheConfig(mode="sharded", shards=16,
                                        resident=0))
        assert unbounded.shards == 16 and unbounded.max_resident is None

    def test_validation(self):
        from repro.routing.cache import RouteCacheConfig

        with pytest.raises(ConfigError):
            RouteCacheConfig(mode="bogus")
        with pytest.raises(ConfigError):
            RouteCacheConfig(shards=0)
        with pytest.raises(ConfigError):
            RouteCacheConfig(resident=-1)

    def test_for_worker_divides_resident_budget(self, tmp_path):
        from repro.routing.cache import RouteCacheConfig

        cfg = RouteCacheConfig(mode="sharded", shards=64, resident=16,
                               spill_dir=str(tmp_path))
        w0 = cfg.for_worker(0, 4)
        w3 = cfg.for_worker(3, 4)
        assert w0.resident == w3.resident == 4
        assert w0.spill_dir == os.path.join(str(tmp_path), "worker0")
        assert w3.spill_dir == os.path.join(str(tmp_path), "worker3")
        # the floor: a worker always gets at least one resident shard
        assert cfg.for_worker(0, 64).resident == 1
        # unbounded budgets and serial runs pass through untouched
        assert RouteCacheConfig(resident=0).for_worker(0, 8).resident == 0
        assert cfg.for_worker(0, 1).resident == 16


class TestConfigThreadedThroughSweep:
    """run_sweep hands each pool worker its slice of the cache budget."""

    def test_parallel_sweep_honours_config(self, tmp_path):
        from repro.core import DesignSpaceExplorer
        from repro.routing.cache import RouteCacheConfig
        from repro.sweep import run_sweep

        explorer = DesignSpaceExplorer(64, quadratic_tasks=16, seed=0)
        plan = explorer.plan(["reduce"])
        spill = tmp_path / "spill"
        cfg = RouteCacheConfig(mode="sharded", shards=8, resident=2,
                               spill_dir=str(spill))
        records = run_sweep(plan, jobs=2, route_cache_config=cfg)
        serial = run_sweep(plan)
        assert [(r.topology, r.makespan) for r in records] \
            == [(r.topology, r.makespan) for r in serial]
        # each worker spilled into its own budgeted subdirectory, with a
        # per-(topology, faults) namespace below it so no two cache
        # instances ever share shard files
        worker_dirs = sorted(p.name for p in spill.iterdir())
        assert worker_dirs and all(d.startswith("worker")
                                   for d in worker_dirs)
        assert any(list(spill.glob("worker*/*/shard_*.bin")))

    def test_serial_sweep_honours_config(self, tmp_path):
        from repro.core import DesignSpaceExplorer
        from repro.routing.cache import RouteCacheConfig
        from repro.sweep import run_sweep

        explorer = DesignSpaceExplorer(64, quadratic_tasks=16, seed=0)
        plan = explorer.plan(["reduce"])
        spill = tmp_path / "spill-serial"
        cfg = RouteCacheConfig(mode="sharded", shards=8, resident=1,
                               spill_dir=str(spill))
        sharded = run_sweep(plan, route_cache_config=cfg)
        # one namespace directory per (topology, faults) cache partition;
        # without the namespacing a later topology warm-starts from an
        # earlier one's shard files and silently routes over them
        assert any(spill.glob("*/shard_*.bin"))
        plain = run_sweep(plan)
        assert [(r.topology, r.makespan) for r in sharded] \
            == [(r.topology, r.makespan) for r in plain]
