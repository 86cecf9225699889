"""Dimension-order routing (DOR) for tori and meshes.

DOR corrects one dimension at a time, in ascending dimension order, which is
the deterministic, deadlock-avoidable routing the paper uses inside every
(sub)torus ("Routing within a subtorus is performed using dimensional order
routing", Section 4.2).

The scalar functions are pure: they operate on coordinate tuples and
per-dimension radices and return coordinate sequences.  The batched
:func:`path_links` returns link ordinals instead: positions in the
:class:`Layout` order in which :func:`neighbor_links` lists the links, so
a topology that registers those links as one run turns them into link ids
by adding the run's first id.  It also yields the other minimal walks of
a pair, the wrap-tie direction choices :func:`wrap_ties` finds.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Sequence
from functools import partial

import numpy as np

from repro.errors import RoutingError

Coord = tuple[int, ...]


def wrap_delta(src: int, dst: int, radix: int, *, torus: bool = True) -> int:
    """Return the signed number of hops from ``src`` to ``dst`` along one
    dimension of radix ``radix``.

    For a torus the shorter wrap-aware direction is chosen; exact ties are
    broken towards the positive direction.  For a mesh the delta is simply
    ``dst - src``.
    """
    if not (0 <= src < radix and 0 <= dst < radix):
        raise RoutingError(f"coordinate out of range: {src}, {dst} for radix {radix}")
    if not torus:
        return dst - src
    forward = (dst - src) % radix
    # the backward delta is forward - radix; ties -> positive direction
    return forward if 2 * forward <= radix else forward - radix


#: :func:`wrap_delta` on a mesh, for ``map`` (``torus`` is keyword-only)
_mesh_delta = partial(wrap_delta, torus=False)


def distance(src: Coord, dst: Coord, radices: Sequence[int], *, torus: bool = True) -> int:
    """Wrap-aware Manhattan distance between two coordinates."""
    if len(src) != len(radices) or len(dst) != len(radices):
        raise RoutingError("coordinate arity does not match radices")
    return sum(
        abs(wrap_delta(s, d, k, torus=torus)) for s, d, k in zip(src, dst, radices)
    )


def path(src: Coord, dst: Coord, radices: Sequence[int], *, torus: bool = True) -> list[Coord]:
    """Return the full coordinate sequence of the DOR path ``src -> dst``.

    The returned list starts with ``src`` and ends with ``dst``
    (``[src]`` when the endpoints coincide).  Dimensions are corrected in
    ascending order; within a dimension the wrap-aware shorter direction is
    used (ties positive).
    """
    if len(src) != len(dst) or len(src) != len(radices):
        raise RoutingError("coordinate arity does not match radices")
    return _walk(src, dst, radices, map(wrap_delta if torus else _mesh_delta,
                                        src, dst, radices))


def wrap_ties(src: np.ndarray, dst: np.ndarray, radices: Sequence[int], *,
              torus: bool = True) -> np.ndarray:
    """``(dimensions, pairs)``: where a DOR leg has two minimal walks.

    A torus dimension of even radix ``k > 2`` ties when the coordinates
    lie ``k / 2`` apart: both wrap directions are minimal and cross
    different links.  A radix-2 dimension reaches its one neighbour
    either way, over the same link, so it never ties; a mesh never does.
    ``src`` and ``dst`` hold :func:`coord_to_index` indices.
    """
    lay = layout(tuple(radices), torus=torus)
    ties = np.zeros((len(lay.radices), src.shape[0]), dtype=bool)
    if torus:
        for dim, (k, stride) in enumerate(zip(lay.radices, lay.strides)):
            if k > 2 and k % 2 == 0:
                ties[dim] = 2 * ((dst // stride - src // stride) % k) == k
    return ties


def path_links(src: np.ndarray, dst: np.ndarray, radices: Sequence[int], *,
               torus: bool = True, variant: np.ndarray | None = None
               ) -> tuple[np.ndarray, np.ndarray]:
    """The hops of :func:`path` for many pairs, as link ordinals.

    ``src`` and ``dst`` hold :func:`coord_to_index` indices.  Returns a
    ``(grid, keep)`` pair of ``(width, pairs)`` arrays: column ``i``'s
    kept cells, top to bottom, are the :func:`neighbor_links` positions
    of the links ``path(src[i], dst[i])`` crosses (its :class:`Layout`
    ordinals) -- the same ascending dimension order and wrap-aware
    deltas, exact ties broken towards the positive direction.  Each
    dimension has one row per hop of the batch's longest leg along it.
    Indices are not range-checked; callers validate their endpoints.

    ``variant`` picks, per pair, another minimal walk: the
    ``variant[i]``-th of the ``2 ** t`` direction choices over the
    pair's ``t`` tied dimensions (:func:`wrap_ties`), in product order
    (the last tied dimension varies fastest, positive before negative).
    Variant 0 is :func:`path`'s walk.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    lay = layout(tuple(radices), torus=torus)
    flip = None
    if variant is not None:
        ties = wrap_ties(src, dst, radices, torus=torus)
        # the bit of a tied dimension: the number of tied dimensions after it
        bit = np.cumsum(ties[::-1], axis=0)[::-1] - ties
        flip = ties & ((variant >> bit) & 1).astype(bool)
    legs = []
    for dim, (k, stride) in enumerate(zip(lay.radices, lay.strides)):
        sc = (src // stride) % k
        dc = (dst // stride) % k
        if torus:
            forward = (dc - sc) % k
            delta = np.where(forward <= k - forward, forward, forward - k)
            if flip is not None:
                delta[flip[dim]] -= k
        else:
            delta = dc - sc
        legs.append((sc, dc, delta, int(np.abs(delta).max(initial=0))))
    # one row per hop the batch's longest leg takes in each dimension
    grid = np.empty((sum(leg[3] for leg in legs), src.shape[0]),
                    dtype=np.int64)
    keep = np.empty(grid.shape, dtype=bool)
    # the index with the lower dimensions already at the destination
    fixed = src.copy()
    at = 0
    for (sc, dc, delta, hops), (offsets, held), stride, column in zip(
            legs, lay.hop_tables, lay.strides, lay.columns):
        if hops:
            back = delta < 0
            base = (fixed - sc * stride) * lay.width \
                + column[back.astype(np.int64)]
            np.add(base, np.take(offsets[:hops], 2 * sc + back, axis=1),
                   out=grid[at:at + hops])
            np.take(held[:hops], np.abs(delta), axis=1,
                    out=keep[at:at + hops])
            fixed += (dc - sc) * stride
            at += hops
    return lay.ordinals(grid), keep


def _walk(src: Coord, dst: Coord, radices: Sequence[int],
          deltas: Iterable[int]) -> list[Coord]:
    """The DOR coordinate walk applying one signed delta per dimension."""
    cur = list(src)
    out: list[Coord] = [tuple(src)]
    for dim, delta in enumerate(deltas):
        if delta:
            radix, c = radices[dim], cur[dim]
            step = 1 if delta > 0 else -1
            for _ in range(abs(delta)):
                c = (c + step) % radix
                cur[dim] = c
                out.append(tuple(cur))
    if out[-1] != tuple(dst):  # pragma: no cover - deltas reach dst
        raise RoutingError(f"DOR walk from {src} ends at {out[-1]}, "
                           f"not {dst}")
    return out


def coord_to_index(coord: Coord, radices: Sequence[int]) -> int:
    """Linearise a coordinate: dimension 0 is the fastest-varying digit."""
    idx = 0
    for c, k in zip(reversed(coord), reversed(list(radices))):
        if not 0 <= c < k:
            raise RoutingError(f"coordinate {coord} out of range for radices {radices}")
        idx = idx * k + c
    return idx


def index_to_coord(index: int, radices: Sequence[int]) -> Coord:
    """Inverse of :func:`coord_to_index`."""
    if index < 0:
        raise RoutingError(f"negative index {index}")
    coord = []
    for k in radices:
        coord.append(index % k)
        index //= k
    if index:
        raise RoutingError("index out of range for radices")
    return tuple(coord)


def neighbors(coord: Coord, radices: Sequence[int], *, torus: bool = True) -> list[Coord]:
    """Distinct neighbouring coordinates of ``coord`` (wrap-aware).

    A radix-2 torus dimension contributes a single neighbour (the +1 and -1
    wraps coincide); a radix-1 dimension contributes none.
    """
    out: list[Coord] = []
    seen = set()
    for dim, k in enumerate(radices):
        if k <= 1:
            continue
        for step in (1, -1):
            n = list(coord)
            if torus:
                n[dim] = (n[dim] + step) % k
            else:
                n[dim] = n[dim] + step
                if not 0 <= n[dim] < k:
                    continue
            t = tuple(n)
            if t not in seen and t != coord:
                seen.add(t)
                out.append(t)
    return out


class Layout:
    """The order in which :func:`neighbor_links` lists a torus's or
    mesh's links.

    Every index has one *column* per ``(dimension, step)``: dimension by
    dimension, the +1 step before the -1 one, where a radix-2 torus
    dimension has only the +1 step (both wraps reach the same
    neighbour) and a radix-1 dimension none.  A cell ``(index, column)``
    holds a link unless the step leaves a mesh.  The links are the held
    cells in row-major order, so a link's ordinal is the rank of its
    cell among them: the cell's flat position on a torus, where every
    cell holds a link.
    """

    def __init__(self, radices: Sequence[int], *, torus: bool = True) -> None:
        self.radices = tuple(int(k) for k in radices)
        self.torus = torus
        self.strides = tuple(int(s) for s in np.cumprod((1, *self.radices))[:-1])
        self.size = int(np.prod(self.radices, dtype=np.int64))
        dims, steps = [], []
        #: per dimension: the column of its +1 step and of its -1 step
        #: (the same column twice on a radix-2 torus; unused at radix 1)
        self.columns: list[np.ndarray] = []
        for dim, k in enumerate(self.radices):
            first = len(dims)
            for step in () if k == 1 else (1,) if torus and k == 2 else (1, -1):
                dims.append(dim)
                steps.append(step)
            self.columns.append(np.asarray(
                (first, len(dims) - 1), dtype=np.int64))
        self.width = len(dims)
        self._dims = np.asarray(dims, dtype=np.int64)
        self._steps = np.asarray(steps, dtype=np.int64)

    def neighbours(self, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(grid, held)``: each index's neighbour per column, and
        whether the cell holds a link."""
        radix = np.asarray(self.radices, dtype=np.int64)[self._dims]
        stride = np.asarray(self.strides, dtype=np.int64)[self._dims]
        coord = (index[:, None] // stride) % radix
        moved = coord + self._steps
        held = np.ones(moved.shape, dtype=bool) if self.torus \
            else (moved >= 0) & (moved < radix)
        return index[:, None] + (moved % radix - coord) * stride, held

    def ordinals(self, flat: np.ndarray) -> np.ndarray:
        """The ordinals of the links in cells ``flat = index * width +
        column`` (cells that hold no link give an arbitrary value)."""
        return flat if self.torus else self._rank[flat]

    @functools.cached_property
    def _rank(self) -> np.ndarray:
        """Per cell, flattened: the number of held cells before it."""
        held = self.neighbours(np.arange(self.size, dtype=np.int64))[1]
        return np.cumsum(held.ravel()) - 1

    @functools.cached_property
    def hop_tables(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per dimension of radix ``k``, the walk a DOR leg takes along it
        as cell offsets: ``(offsets, held)``.  Column ``2c + back`` of
        ``offsets`` holds, per hop ``j`` of a leg leaving coordinate
        ``c`` (in the -1 direction when ``back``), the coordinate the hop
        leaves times ``stride * width``; column ``h`` of ``held`` marks
        the first ``h`` hops.  There is one row per hop a leg can take:
        ``k // 2`` on a torus, ``k - 1`` on a mesh.
        """
        out = []
        for k, stride in zip(self.radices, self.strides):
            hops = np.arange(0 if k == 1 else k // 2 if self.torus else k - 1)
            coord = hops[:, None, None] * np.array((1, -1)) + np.arange(k)[:, None]
            out.append(((coord % k).reshape(hops.shape[0], 2 * k)
                        * (stride * self.width),
                        hops[:, None] < np.arange(hops.shape[0] + 1)))
        return out


@functools.lru_cache(maxsize=64)
def layout(radices: tuple[int, ...], *, torus: bool = True) -> Layout:
    """The shared :class:`Layout` of a torus or mesh."""
    return Layout(radices, torus=torus)


def neighbor_links(radices: Sequence[int], *, torus: bool = True
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Every directed neighbour pair ``(src, dst)`` of a torus or mesh,
    over :func:`coord_to_index` indices, in :class:`Layout` order.

    Index-major, and per index in :func:`neighbors` order: dimension by
    dimension, the +1 neighbour before the -1 one.  A radix-2 torus
    dimension gives one neighbour (both wraps reach it), a radix-1
    dimension none, and a mesh skips the steps that leave the grid.
    """
    lay = layout(tuple(radices), torus=torus)
    index = np.arange(lay.size, dtype=np.int64)
    grid, held = lay.neighbours(index)
    return np.broadcast_to(index[:, None], grid.shape)[held], grid[held]
