"""Sharded, disk-spillable route caches for paper-scale sweeps.

A healthy 131,072-endpoint design point routes up to ``O(endpoints²)``
distinct pairs; holding every route of every topology in one flat dict is
what bounds how many design points a sweep process can visit before
exhausting memory.  :class:`ShardedRouteCache` is a drop-in
``MutableMapping`` replacement for that dict which

* partitions entries into per-source-range *shards* (every key shape the
  engines emit — ``(src, dst)``, ``(src, dst, token)`` and
  ``("cands", src, dst, token)``, see
  :func:`repro.engine.simulator._make_route_fn` — carries the source
  endpoint, so a flow's lookups always land in one shard);
* keeps only the most recently touched shards resident (LRU) and spills
  the rest to zlib-compressed pickle files, one file per shard, keyed by
  shard index;
* reloads a spilled shard transparently on the next access, and degrades
  to recomputation (empty shard plus a ``RouteCacheWarning``) when a
  spill file is corrupt or unreadable — a damaged cache can cost time,
  never correctness.

Spill directories are reusable across processes: :meth:`flush` writes
every dirty resident shard, and a fresh :class:`ShardedRouteCache`
pointed at the same directory serves the same entries byte-for-byte.

:func:`make_route_cache` is the factory the sweep runner calls: a plain
dict by default (exact historical behaviour), the sharded cache when a
:class:`RouteCacheConfig` asks for ``mode="sharded"`` or when ``auto``
(the default) sees a design point at or above
:data:`DEFAULT_AUTO_ENDPOINTS` endpoints.
"""

from __future__ import annotations

import os
import pickle
import re
import tempfile
import warnings
import zlib
from collections import OrderedDict
from collections.abc import MutableMapping
from dataclasses import dataclass, replace
from typing import Any, Iterator

from repro.errors import ConfigError

__all__ = ["RouteCacheConfig", "RouteCacheWarning", "ShardedRouteCache",
           "make_route_cache"]

#: Default number of shards (source-endpoint ranges) per cache.
DEFAULT_SHARDS = 64
#: Default number of shards kept resident before spilling.
DEFAULT_RESIDENT = 16
#: ``auto`` switches to the sharded cache at this many endpoints.
DEFAULT_AUTO_ENDPOINTS = 65536

_MAGIC = b"repro-route-shard-v1\n"


class RouteCacheWarning(UserWarning):
    """A spilled route-cache shard could not be read back.

    The shard restarts empty — routes are recomputed, results are
    unaffected.
    """


def _shard_of(key: Any, shards: int) -> int:
    """Map a cache key to its shard by source endpoint.

    Knows the three key shapes ``_make_route_fn`` emits; anything else
    falls back to a stable digest of ``repr(key)`` so foreign keys are
    still accepted (and still land on the same shard every run).
    """
    if isinstance(key, tuple) and len(key) >= 2:
        src = key[1] if key[0] == "cands" else key[0]
        if isinstance(src, int):
            return src % shards
    return zlib.crc32(repr(key).encode()) % shards


class ShardedRouteCache(MutableMapping):
    """A route cache split into spillable per-source-range shards.

    Parameters
    ----------
    shards:
        Number of partitions.  More shards mean finer spill granularity
        (smaller files, less memory per resident shard) at the cost of
        more files.
    max_resident:
        Shards kept in memory at once; least-recently-used shards beyond
        this spill to disk.  ``None`` (or ``>= shards``) never spills —
        the cache is then just a sharded dict.
    spill_dir:
        Directory for shard files.  Created if missing; a directory with
        existing shard files warm-starts the cache from them.  ``None``
        creates a fresh temporary directory on first spill.
    """

    def __init__(self, shards: int = DEFAULT_SHARDS,
                 max_resident: int | None = DEFAULT_RESIDENT,
                 spill_dir: str | None = None) -> None:
        if shards < 1:
            raise ConfigError(f"shards must be >= 1, got {shards}")
        if max_resident is not None and max_resident < 1:
            raise ConfigError(
                f"max_resident must be >= 1 or None, got {max_resident}")
        self.shards = shards
        self.max_resident = max_resident
        self._spill_dir = spill_dir
        #: shard id -> entry dict, most recently used last
        self._resident: OrderedDict[int, dict] = OrderedDict()
        self._dirty: set[int] = set()
        #: shard id -> live entry count (covers spilled shards too)
        self._sizes: dict[int, int] = {}
        self.stats = {"spills": 0, "loads": 0, "corrupt": 0}
        if spill_dir is not None and os.path.isdir(spill_dir):
            # warm start: adopt whatever shards a previous process left
            for name in os.listdir(spill_dir):
                if name.startswith("shard_") and name.endswith(".bin"):
                    try:
                        sid = int(name[len("shard_"):-len(".bin")])
                    except ValueError:
                        continue
                    if 0 <= sid < shards and sid not in self._sizes:
                        self._sizes[sid] = -1  # unknown until loaded

    # -- shard plumbing -------------------------------------------------

    @property
    def spill_dir(self) -> str:
        if self._spill_dir is None:
            self._spill_dir = tempfile.mkdtemp(prefix="repro-route-cache-")
        os.makedirs(self._spill_dir, exist_ok=True)
        return self._spill_dir

    def _path(self, sid: int) -> str:
        return os.path.join(self.spill_dir, f"shard_{sid:05d}.bin")

    def _spill(self, sid: int, entries: dict) -> None:
        blob = _MAGIC + zlib.compress(
            pickle.dumps(entries, protocol=pickle.HIGHEST_PROTOCOL))
        path = self._path(sid)
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)  # readers never see a half-written shard
        self.stats["spills"] += 1

    def _load(self, sid: int) -> dict:
        path = self._path(sid) if self._spill_dir is not None else None
        if path is None or not os.path.exists(path):
            return {}
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
            if not blob.startswith(_MAGIC):
                raise ValueError("bad shard magic")
            entries = pickle.loads(zlib.decompress(blob[len(_MAGIC):]))
            if not isinstance(entries, dict):
                raise ValueError(
                    f"shard payload is {type(entries).__name__}, not dict")
        except Exception as exc:  # corrupt/truncated/foreign file
            warnings.warn(
                f"route-cache shard {os.path.basename(path)} is unreadable "
                f"({exc}); routes in this shard will be recomputed",
                RouteCacheWarning, stacklevel=4)
            self.stats["corrupt"] += 1
            try:
                os.remove(path)
            except OSError:
                pass
            return {}
        self.stats["loads"] += 1
        return entries

    def _shard(self, sid: int) -> dict:
        """Return shard ``sid`` resident, evicting LRU shards as needed."""
        entries = self._resident.get(sid)
        if entries is not None:
            self._resident.move_to_end(sid)
            return entries
        entries = self._load(sid)
        self._resident[sid] = entries
        self._sizes[sid] = len(entries)
        if self.max_resident is not None:
            while len(self._resident) > self.max_resident:
                old_sid, old = self._resident.popitem(last=False)
                if old_sid in self._dirty:
                    self._spill(old_sid, old)
                    self._dirty.discard(old_sid)
        return entries

    # -- MutableMapping -------------------------------------------------

    def __getitem__(self, key: Any) -> Any:
        return self._shard(_shard_of(key, self.shards))[key]

    def __setitem__(self, key: Any, value: Any) -> None:
        sid = _shard_of(key, self.shards)
        shard = self._shard(sid)
        if key not in shard:
            self._sizes[sid] = self._sizes.get(sid, 0) + 1
        shard[key] = value
        self._dirty.add(sid)

    def __delitem__(self, key: Any) -> None:
        sid = _shard_of(key, self.shards)
        shard = self._shard(sid)
        del shard[key]
        self._sizes[sid] -= 1
        self._dirty.add(sid)

    def __iter__(self) -> Iterator[Any]:
        for sid in range(self.shards):
            if sid in self._resident or sid in self._sizes:
                # iteration pins nothing: the shard becomes resident via
                # the normal LRU path and may spill again right after
                yield from list(self._shard(sid).keys())

    def __len__(self) -> int:
        total = 0
        for sid in list(self._sizes):
            if self._sizes[sid] < 0:  # adopted spill file, size unknown
                self._shard(sid)
            total += self._sizes[sid]
        return total

    # -- lifecycle ------------------------------------------------------

    def flush(self) -> None:
        """Write every dirty resident shard to the spill directory.

        After a flush the directory is self-contained: a fresh cache
        constructed over it serves the same entries byte-for-byte.
        """
        for sid in sorted(self._dirty):
            entries = self._resident.get(sid)
            if entries is None:  # dirty but already evicted-and-spilled
                continue
            self._spill(sid, entries)
        self._dirty.clear()

    def resident_shards(self) -> int:
        return len(self._resident)


@dataclass(frozen=True)
class RouteCacheConfig:
    """Explicit route-cache policy, picklable across worker processes.

    The single source of the route-cache policy: the sweep runner and
    the service broker pass one of these down to each worker so a
    *total* resident-set budget can be split across a pool.  The
    defaults are ``auto`` mode (sharded at :data:`DEFAULT_AUTO_ENDPOINTS`
    endpoints and above), :data:`DEFAULT_SHARDS` shards and
    :data:`DEFAULT_RESIDENT` resident shards.

    ``resident`` is the resident-shard budget (``0`` = unbounded, never
    spill) — for a parallel sweep it is the budget of the *whole pool*;
    :meth:`for_worker` carves out one worker's slice.
    """

    mode: str = "auto"              # auto | dict | sharded
    shards: int = DEFAULT_SHARDS
    resident: int = DEFAULT_RESIDENT  # total resident budget; 0 = unbounded
    spill_dir: str | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("auto", "dict", "sharded"):
            raise ConfigError(
                f"route-cache mode must be 'auto', 'dict' or 'sharded', "
                f"got {self.mode!r}")
        if self.shards < 1:
            raise ConfigError(f"shards must be >= 1, got {self.shards}")
        if self.resident < 0:
            raise ConfigError(
                f"resident must be >= 0 (0 = unbounded), "
                f"got {self.resident}")

    def for_worker(self, worker_id: int, jobs: int) -> RouteCacheConfig:
        """One pool worker's slice of this (pool-wide) budget.

        The resident budget is divided evenly across ``jobs`` workers
        (floor, minimum 1 shard each — a worker that cannot hold a single
        shard cannot run); an explicit spill directory gains a per-worker
        subdirectory so two workers never clobber each other's shard
        files.  Respawned workers get fresh ids and therefore fresh
        subdirectories, orphaning — never corrupting — a dead worker's
        spills.
        """
        if jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs}")
        resident = self.resident
        if jobs > 1 and resident != 0:
            resident = max(1, resident // jobs)
        spill = self.spill_dir
        if spill is not None:
            spill = os.path.join(spill, f"worker{worker_id}")
        return replace(self, resident=resident, spill_dir=spill)


def _namespace_slug(namespace: str) -> str:
    """A filesystem-safe, collision-resistant subdirectory name.

    Human-readable prefix for debugging, CRC suffix so two namespaces
    that sanitise or truncate to the same prefix still get distinct
    directories.
    """
    slug = re.sub(r"[^A-Za-z0-9._-]+", "_", namespace).strip("_.")[:40]
    tag = f"{zlib.crc32(namespace.encode()):08x}"
    return f"{slug}-{tag}" if slug else tag


def make_route_cache(endpoints: int | None = None,
                     config: RouteCacheConfig | None = None,
                     namespace: str | None = None) -> MutableMapping:
    """Build the route cache ``config`` (default
    :class:`RouteCacheConfig()`) asks for.

    * ``dict`` — a plain dict (the historical cache; everything
      resident);
    * ``sharded`` — :class:`ShardedRouteCache` for every design point;
    * ``auto`` (default) — plain dict below :data:`DEFAULT_AUTO_ENDPOINTS`
      endpoints, sharded at or above it; with ``endpoints`` unknown,
      plain dict.

    ``shards``, ``resident`` (``0`` means unbounded — never spill) and
    ``spill_dir`` tune the sharded flavour.

    ``namespace`` partitions the resolved spill directory: callers that
    build *several* caches over one directory (the sweep runner keeps one
    cache per ``(topology, faults)`` partition) must pass each cache's
    partition key here.  Engine lookups use bare ``(src, dst)`` keys and
    rely on instance separation for topology isolation, so without the
    namespace a warm-started cache would happily serve another topology's
    spilled routes — silently wrong paths, not an error.
    """
    if config is None:
        config = RouteCacheConfig()
    mode = config.mode
    if mode == "auto":
        mode = "sharded" if endpoints is not None \
            and endpoints >= DEFAULT_AUTO_ENDPOINTS else "dict"
    if mode == "dict":
        return {}
    spill_dir = config.spill_dir or None
    if spill_dir is not None and namespace is not None:
        spill_dir = os.path.join(spill_dir, _namespace_slug(namespace))
    return ShardedRouteCache(
        shards=config.shards,
        max_resident=None if config.resident == 0 else config.resident,
        spill_dir=spill_dir)
