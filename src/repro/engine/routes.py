"""Route storage: CSR arenas of routes and candidate routes per view.

A :class:`RouteCache` keeps, per fault token (a degraded view's
:meth:`~repro.topology.degraded.FaultSet.cache_token`, ``None`` when
healthy), two append-only arenas.  Row ``r`` of an arena's ``(indptr,
links)`` is one route, filed under the pair key ``src * num_endpoints +
dst``: the deterministic arena holds one row per pair, the candidate
arena a block of consecutive rows per pair (its minimal routes, the
deterministic one first) for the multi-path policies.  A sorted index
maps each key to its first row; the rows a call appends enter the index
at the next lookup of their arena.  A :class:`ViewRoutes` resolves a
call's routes with no per-pair Python loop, routing missing pairs in
order of first appearance, in chunks of :data:`ROUTE_CHUNK`, through
:meth:`~repro.topology.base.Topology.routes`; a :class:`ViewCandidates`
does the same for candidate blocks, in chunks of :data:`CANDIDATE_CHUNK`
pairs, through :meth:`~repro.topology.base.Topology.candidate_routes`.

A plain ``dict`` is accepted wherever a store is (:meth:`RouteCache.of`):
the call gets a store of its own, each view seeds its arena from the
dict's ``(src, dst)`` / ``(src, dst, token)`` entries (candidate lists
under ``("cands", src, dst, token)``), and every pair routed is written
back under such a key.  That costs a Python step per pair and call.
"""

from __future__ import annotations

import time

import numpy as np

from repro.engine.maxmin import _slices_concat
from repro.routing import walks
from repro.topology.base import Topology
from repro.topology.degraded import FaultSet

#: Most pairs one :meth:`~repro.topology.base.Topology.routes` call routes,
#: which bounds the batch's transient CSR however many pairs miss.
ROUTE_CHUNK = 65_536

#: Most pairs one :meth:`~repro.topology.base.Topology.candidate_routes`
#: call routes: a pair can have 64 candidates, so the chunk bounds the
#: batch's transient arrays to a few MB.
CANDIDATE_CHUNK = 512

_EMPTY = np.empty(0, dtype=np.int64)


def cache_token(topology: Topology):
    """The store partition of a view: its fault set's
    :meth:`~repro.topology.degraded.FaultSet.cache_token`, ``None`` when
    healthy."""
    faults = getattr(topology, "faults", None)
    return faults.cache_token() if isinstance(faults, FaultSet) else None


def flow_pairs(src: np.ndarray, dst: np.ndarray,
               num_endpoints: int) -> tuple[np.ndarray, np.ndarray]:
    """The sorted unique pair keys of the flows ``src[i] -> dst[i]`` with
    ``src != dst``, and each flow's index into them (``-1`` if zero-hop)."""
    network = src != dst
    pairs, inverse = np.unique(
        src[network].astype(np.int64) * np.int64(num_endpoints)
        + dst[network], return_inverse=True)
    pair_of_flow = np.full(src.shape[0], -1, dtype=np.int64)
    pair_of_flow[network] = inverse
    return pairs, pair_of_flow


def _fit(arr: np.ndarray, used: int, size: int) -> np.ndarray:
    """``arr``, or a geometrically grown copy of its first ``used``
    entries, with room for ``size``."""
    if size <= arr.shape[0]:
        return arr
    out = np.empty(max(size, 2 * arr.shape[0]), dtype=arr.dtype)
    out[:used] = arr[:used]
    return out


class _Arena:
    """The append-only routes of one fault token and their pair index.

    Rows come in blocks of consecutive rows under one pair key: one row
    per block in a deterministic arena, a pair's candidates in a
    candidate arena.
    """

    def __init__(self, blocks: bool = False) -> None:
        # a block's rows must sort in row order; single rows need not
        self._kind = "stable" if blocks else "quicksort"
        self.rows = self._indexed = 0
        self.indptr = np.zeros(1, dtype=np.int64)
        self.links = self.keys = _EMPTY
        self._index = (_EMPTY, _EMPTY)   # sorted keys, their rows

    def append(self, keys: np.ndarray, indptr: np.ndarray,
               links: np.ndarray) -> np.ndarray:
        """Append the CSR rows ``(indptr, links)`` under ``keys``, one key
        per row, taking over the arrays of a first append; returns their
        row ids."""
        r0, k, nnz = self.rows, keys.shape[0], int(self.indptr[self.rows])
        if r0 == 0:
            self.indptr, self.links, self.keys, self.rows = \
                indptr, links, keys, k
            return np.arange(k, dtype=np.int64)
        self.indptr = _fit(self.indptr, r0 + 1, r0 + k + 1)
        self.indptr[r0 + 1:r0 + k + 1] = indptr[1:] + nnz
        self.links = _fit(self.links, nnz, nnz + links.shape[0])
        self.links[nnz:nnz + links.shape[0]] = links
        self.keys = _fit(self.keys, r0, r0 + k)
        self.keys[r0:r0 + k] = keys
        self.rows = r0 + k
        return np.arange(r0, r0 + k, dtype=np.int64)

    def _sorted(self) -> tuple[np.ndarray, np.ndarray]:
        """The index, after merging the rows appended since the last
        lookup."""
        if self._indexed < self.rows:
            order = np.argsort(self.keys[:self.rows], kind=self._kind)
            self._index = (self.keys[order], order)
            self._indexed = self.rows
        return self._index

    def find(self, keys: np.ndarray) -> np.ndarray:
        """The first row of every pair key, ``-1`` where absent."""
        index_keys, index_rows = self._sorted()
        if index_keys.shape[0] == 0:
            return np.full(keys.shape[0], -1, dtype=np.int64)
        pos = np.minimum(np.searchsorted(index_keys, keys),
                         index_keys.shape[0] - 1)
        return np.where(index_keys[pos] == keys, index_rows[pos], -1)

    def find_blocks(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The first row and the row count of every pair key's block,
        ``(-1, 0)`` where absent."""
        index_keys, _ = self._sorted()
        return self.find(keys), np.searchsorted(
            index_keys, keys, side="right") - np.searchsorted(index_keys, keys)


class RouteCache:
    """The deterministic routes and candidate routes of one machine's
    views, one arena of each per fault token.  ``len()`` counts the
    stored deterministic routes."""

    def __init__(self) -> None:
        self._arenas: dict[object, _Arena] = {}
        self._candidate_arenas: dict[object, _Arena] = {}
        self._legacy: dict | None = None

    @classmethod
    def of(cls, route_cache: RouteCache | dict | None) -> RouteCache:
        """``route_cache`` itself, a fresh store for ``None``, or a
        per-call store over a plain dict."""
        if isinstance(route_cache, RouteCache):
            return route_cache
        cache = cls()
        cache._legacy = route_cache
        return cache

    def __len__(self) -> int:
        return sum(arena.rows for arena in self._arenas.values())


class ViewRoutes:
    """The routes of the sorted unique pair keys ``pairs`` over one
    topology view: ``pair_row[i]`` is the arena row of ``pairs[i]``,
    ``-1`` until routed.  ``collector`` times the routing under
    ``route_construction``."""

    def __init__(self, cache: RouteCache, topology: Topology,
                 pairs: np.ndarray, collector=None) -> None:
        self.topology = topology
        self.token = cache_token(topology)
        self._arena = self._arena_in(cache)
        self._legacy = cache._legacy
        self._collector = collector
        self.pairs = pairs
        self._locate()
        if self._legacy is not None:
            self._seed()

    def _arena_in(self, cache: RouteCache) -> _Arena:
        return cache._arenas.setdefault(self.token, _Arena())

    def _locate(self) -> None:
        self.pair_row = self._arena.find(self.pairs)

    def rows(self, ids: np.ndarray) -> np.ndarray:
        """Arena rows of the pairs ``ids``, routing the missing ones."""
        rows = self.pair_row[ids]
        missing = rows < 0
        if missing.any():
            self._fill(ids[missing])
            rows = self.pair_row[ids]
        return rows

    def gather(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(lens, links)``: the CSR of the routes in ``rows``, a view of
        the arena when the rows are consecutive (a fresh fill)."""
        lo = self._arena.indptr[rows]
        hi = self._arena.indptr[rows + 1]
        k = rows.shape[0]
        if k > 1 and rows[-1] - rows[0] == k - 1 \
                and (rows[1:] - rows[:-1] == 1).all():
            return hi - lo, self._arena.links[lo[0]:hi[-1]]
        return hi - lo, self._arena.links[_slices_concat(lo, hi)]

    def row(self, r: int) -> np.ndarray:
        """Arena row ``r``."""
        return self._arena.links[self._arena.indptr[r]:
                                 self._arena.indptr[r + 1]]

    def route(self, i: int) -> np.ndarray:
        """The route of pair ``i`` alone."""
        row = int(self.pair_row[i])
        if row < 0:
            row = int(self.rows(np.array([i]))[0])
        return self.row(row)

    def _key(self, s: int, d: int) -> tuple:
        return (s, d) if self.token is None else (s, d, self.token)

    def _append(self, ids, indptr, links) -> None:
        self.pair_row[ids] = self._arena.append(self.pairs[ids], indptr,
                                                links)

    def _seed(self) -> None:
        """Copy the plain dict's routes of the missing pairs."""
        ids = np.flatnonzero(self.pair_row < 0)
        src, dst = np.divmod(self.pairs[ids], self.topology.num_endpoints)
        found = list(map(self._legacy.get,
                         map(self._key, src.tolist(), dst.tolist())))
        hit = np.fromiter((r is not None for r in found), dtype=bool,
                          count=len(found))
        if hit.any():
            self._append_seeded(ids[hit], [r for r in found if r is not None])

    def _append_seeded(self, ids, routes: list[np.ndarray]) -> None:
        indptr = np.zeros(len(routes) + 1, dtype=np.int64)
        np.cumsum([r.shape[0] for r in routes], out=indptr[1:])
        self._append(ids, indptr, np.concatenate(routes))

    def _fill(self, ids: np.ndarray) -> None:
        """Route and store the missing pairs ``ids`` in order of first
        appearance, a chunk at a time."""
        if ids.shape[0] > 1:
            uniq, first = np.unique(ids, return_index=True)
            ids = uniq[np.argsort(first)]
        src, dst = np.divmod(self.pairs[ids], self.topology.num_endpoints)
        t0 = time.perf_counter()
        chunk = self._chunk()
        for lo in range(0, ids.shape[0], chunk):
            part = slice(lo, lo + chunk)
            self._route(ids[part], src[part], dst[part])
        if self._collector is not None:
            self._collector.add_time("route_construction",
                                     time.perf_counter() - t0)

    def _chunk(self) -> int:
        return ROUTE_CHUNK

    def _route(self, ids, src, dst) -> None:
        """Route and store one chunk; a plain dict gets each row as a
        view of the chunk."""
        indptr, links = self.topology.routes(src, dst)
        self._append(ids, indptr, links)
        if self._legacy is not None:
            bounds = indptr.tolist()
            for j, (s, d) in enumerate(zip(src.tolist(), dst.tolist())):
                self._legacy[self._key(s, d)] = \
                    links[bounds[j]:bounds[j + 1]]


class ViewCandidates(ViewRoutes):
    """The candidate routes of the sorted unique pair keys ``pairs`` over
    one topology view: ``pairs[i]`` owns the ``pair_count[i]`` arena rows
    from ``pair_row[i]``, the deterministic route first (``-1`` and 0
    until routed)."""

    def _arena_in(self, cache: RouteCache) -> _Arena:
        return cache._candidate_arenas.setdefault(self.token,
                                                  _Arena(blocks=True))

    def _locate(self) -> None:
        self.pair_row, self.pair_count = self._arena.find_blocks(self.pairs)

    def blocks(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The first rows and row counts of the pairs ``ids``, routing the
        missing ones."""
        return self.rows(ids), self.pair_count[ids]

    def block(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Pair ``i``'s candidates as ``(indptr, links)``, ``indptr``
        counted from the block's first link."""
        first = int(self.pair_row[i])
        if first < 0:
            first = int(self.rows(np.array([i]))[0])
        indptr = self._arena.indptr[first:first + int(self.pair_count[i])
                                    + 1]
        return indptr - indptr[0], self._arena.links[indptr[0]:indptr[-1]]

    def _key(self, s: int, d: int) -> tuple:
        return ("cands", s, d, self.token)

    def _append_blocks(self, ids, counts, indptr, links) -> None:
        rows = self._arena.append(np.repeat(self.pairs[ids], counts),
                                  indptr, links)
        self.pair_row[ids] = rows[walks.from_lengths(counts)[:-1]]
        self.pair_count[ids] = counts

    def _append_seeded(self, ids, lists: list[list[np.ndarray]]) -> None:
        counts = np.fromiter(map(len, lists), dtype=np.int64,
                             count=len(lists))
        routes = [r for routes in lists for r in routes]
        self._append_blocks(ids, counts, walks.from_lengths(np.fromiter(
            (r.shape[0] for r in routes), dtype=np.int64,
            count=len(routes))), np.concatenate(routes))

    def _chunk(self) -> int:
        return CANDIDATE_CHUNK

    def _route(self, ids, src, dst) -> None:
        """Route and store one chunk's candidates; a plain dict gets each
        pair's list of rows as views of the chunk."""
        pair_ptr, indptr, links = self.topology.candidate_routes(src, dst)
        self._append_blocks(ids, np.diff(pair_ptr), indptr, links)
        if self._legacy is not None:
            bounds, blocks = indptr.tolist(), pair_ptr.tolist()
            for j, (s, d) in enumerate(zip(src.tolist(), dst.tolist())):
                self._legacy[self._key(s, d)] = [
                    links[bounds[r]:bounds[r + 1]]
                    for r in range(blocks[j], blocks[j + 1])]
