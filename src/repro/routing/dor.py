"""Dimension-order routing (DOR) for tori and meshes.

DOR corrects one dimension at a time, in ascending dimension order, which is
the deterministic, deadlock-avoidable routing the paper uses inside every
(sub)torus ("Routing within a subtorus is performed using dimensional order
routing", Section 4.2).

All functions are pure: they operate on coordinate tuples and per-dimension
radices and return coordinate sequences.  Mapping coordinates to link ids is
the topology's job.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence
from functools import partial

import numpy as np

from repro.errors import RoutingError
from repro.routing import walks

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


def wrap_deltas(src: int, dst: int, radix: int, *, torus: bool = True) -> tuple[int, ...]:
    """All minimal signed deltas from ``src`` to ``dst`` along one dimension.

    Usually a single delta — the one :func:`wrap_delta` returns.  On a
    torus of even radix an exact tie (``|dst - src| == radix / 2``) has two
    minimal directions; both are returned, the positive one first so index 0
    always matches the deterministic tie-break.
    """
    if not 0 <= src < radix or not 0 <= dst < radix:
        raise RoutingError(f"coordinate out of range: {src}, {dst} for radix {radix}")
    if not torus:
        return (dst - src,)
    forward = (dst - src) % radix
    backward = forward - radix  # negative
    if forward < -backward:
        return (forward,)
    if forward > -backward:
        return (backward,)
    return (forward, backward)  # exact tie: both directions are minimal


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


def path_batch(src: np.ndarray, dst: np.ndarray, radices: Sequence[int], *,
               torus: bool = True) -> walks.CSR:
    """:func:`path` for many pairs at once, over linear indices.

    ``src`` and ``dst`` hold :func:`coord_to_index` indices.  Returns the
    walks as a CSR batch ``(indptr, indices)`` whose row ``i`` is
    ``[coord_to_index(c) for c in path(src[i], dst[i])]``: the same
    ascending dimension order and the same wrap-aware deltas, with exact
    ties broken towards the positive direction as :func:`wrap_delta` does.
    Indices are not range-checked; callers validate their endpoints.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    n, d = src.shape[0], len(radices)
    radix = np.asarray(radices, dtype=np.int64)
    stride = np.cumprod(np.concatenate(([1], radix)))[:-1]
    sc = (src[:, None] // stride) % radix                  # (n, d) coords
    dc = (dst[:, None] // stride) % radix
    if torus:
        forward = (dc - sc) % radix
        delta = np.where(forward <= radix - forward, forward, forward - radix)
    else:
        delta = dc - sc
    steps = np.abs(delta).ravel()                          # hops per (pair, dim)
    # index with dimension i zeroed: lower dimensions already corrected to
    # the destination, higher ones still at the source
    dpart, spart = dc * stride, sc * stride
    fixed = (np.cumsum(dpart, axis=1) - dpart
             + spart.sum(axis=1, keepdims=True) - np.cumsum(spart, axis=1))
    seg = np.repeat(np.arange(n * d), steps)               # (pair, dim) per hop
    seg_start = np.cumsum(steps) - steps
    j = np.arange(1, seg.shape[0] + 1) - np.repeat(seg_start, steps)
    dim = seg % d
    coord = (sc.ravel()[seg] + np.sign(delta).ravel()[seg] * j) % radix[dim]
    hop_vertex = fixed.ravel()[seg] + coord * stride[dim]
    indptr = walks.from_lengths(steps.reshape(n, d).sum(axis=1) + 1)
    out = np.empty(int(indptr[-1]), dtype=np.int64)
    out[indptr[:-1]] = src
    # hop h of pair r sits just after the r + 1 row starts before it
    out[np.arange(seg.shape[0]) + seg // d + 1] = hop_vertex
    return indptr, out


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


def paths(src: Coord, dst: Coord, radices: Sequence[int], *, torus: bool = True) -> list[list[Coord]]:
    """Every minimal DOR coordinate walk ``src -> dst``.

    The cross product of each dimension's minimal wrap directions
    (:func:`wrap_deltas`); dimensions without an exact wrap tie contribute a
    single choice, so the common case is one path.  The first entry is
    always the deterministic :func:`path` (positive tie-break everywhere).
    Radix-2 ties wrap to the same neighbour in either direction, so their
    duplicate walks are removed.
    """
    if len(src) != len(dst) or len(src) != len(radices):
        raise RoutingError("coordinate arity does not match radices")
    per_dim = [wrap_deltas(s, d, k, torus=torus)
               for s, d, k in zip(src, dst, radices)]
    out: list[list[Coord]] = []
    seen: set[tuple[Coord, ...]] = set()
    for combo in itertools.product(*per_dim):
        walk = _walk(src, dst, radices, combo)
        key = tuple(walk)
        if key not in seen:
            seen.add(key)
            out.append(walk)
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


def neighbor_links(radices: Sequence[int], *, torus: bool = True
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Every directed neighbour pair ``(src, dst)`` of a torus or mesh,
    over :func:`coord_to_index` indices.

    Index-major, and per index in :func:`neighbors` order: dimension by
    dimension, the +1 neighbour before the -1 one.  A radix-2 torus
    dimension gives one neighbour (both wraps reach it), a radix-1
    dimension none, and a mesh skips the steps that leave the grid.
    """
    radix = np.asarray(radices, dtype=np.int64)
    stride = np.cumprod(np.concatenate(([1], radix)))[:-1]
    index = np.arange(int(np.prod(radix)), dtype=np.int64)
    cols, keep = [], []
    for k, s in zip(radix.tolist(), stride.tolist()):
        if k == 1:
            continue
        coord = (index // s) % k
        for step in (1,) if torus and k == 2 else (1, -1):
            moved = coord + step
            keep.append(np.ones_like(index, dtype=bool) if torus
                        else (moved >= 0) & (moved < k))
            cols.append(index + (moved % k - coord) * s)
    if not cols:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    grid = np.stack(cols, axis=1)
    mask = np.stack(keep, axis=1)
    return np.broadcast_to(index[:, None], grid.shape)[mask], grid[mask]
