"""E-cube routing for generalised hypercubes.

A generalised hypercube (GHC) with radices ``(k_1, ..., k_d)`` places one
vertex at every mixed-radix coordinate and connects two vertices whenever
their coordinates differ in exactly one position (Bhuyan & Agrawal, 1984).
A single hop can therefore correct a whole coordinate, unlike a torus.

E-cube routing corrects coordinates in ascending dimension order, which is
minimal (path length equals the mixed-radix Hamming distance) and
deadlock-free with dimension-ordered virtual channels.  This is the routing
the paper uses in the GHC upper tier ("routing in a generalized hypercube
uses e-cube routing which traverses the generalized hypercube dimensions in
order", Section 4.2).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import RoutingError

Coord = tuple[int, ...]


def hamming(src: Coord, dst: Coord, radices: Sequence[int]) -> int:
    """Number of coordinates in which ``src`` and ``dst`` differ."""
    _check(src, dst, radices)
    return sum(1 for s, d in zip(src, dst) if s != d)


def path(src: Coord, dst: Coord, radices: Sequence[int]) -> list[Coord]:
    """Coordinate sequence of the e-cube path ``src -> dst``.

    Starts with ``src``, ends with ``dst``; each hop replaces exactly one
    coordinate with the destination's value, in ascending dimension order.
    """
    _check(src, dst, radices)
    cur = list(src)
    out: list[Coord] = [tuple(cur)]
    for dim in range(len(radices)):
        if cur[dim] != dst[dim]:
            cur[dim] = dst[dim]
            out.append(tuple(cur))
    return out


def neighbors(coord: Coord, radices: Sequence[int]) -> list[Coord]:
    """All GHC neighbours of ``coord``: every other value in every dimension."""
    if len(coord) != len(radices):
        raise RoutingError("coordinate arity does not match radices")
    out: list[Coord] = []
    for dim, k in enumerate(radices):
        for v in range(k):
            if v != coord[dim]:
                n = list(coord)
                n[dim] = v
                out.append(tuple(n))
    return out


def degree(radices: Sequence[int]) -> int:
    """Vertex degree of the GHC: ``sum(k_i - 1)``."""
    return sum(k - 1 for k in radices)


def average_distance(radices: Sequence[int]) -> float:
    """Exact average e-cube distance over ordered distinct vertex pairs.

    Each dimension independently contributes one hop with probability
    ``(k_i - 1) / k_i`` for a uniformly random pair; conditioning on the pair
    being distinct rescales by ``N / (N - 1)``.
    """
    n = 1
    for k in radices:
        n *= k
    if n <= 1:
        return 0.0
    expected = sum((k - 1) / k for k in radices)
    return expected * n / (n - 1)


def _check(src: Coord, dst: Coord, radices: Sequence[int]) -> None:
    if len(src) != len(radices) or len(dst) != len(radices):
        raise RoutingError("coordinate arity does not match radices")
    for c in (src, dst):
        for v, k in zip(c, radices):
            if not 0 <= v < k:
                raise RoutingError(f"coordinate {c} out of range for radices {radices}")
