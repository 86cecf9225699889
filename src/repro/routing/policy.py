"""Routing-policy layer: how a flow picks among its candidate routes.

The topologies expose *candidate sets* —
:meth:`repro.topology.base.Topology.route_candidates` returns every minimal
route of a pair, deterministic route first.  A policy reduces that set to
the one route a flow actually takes:

* ``"deterministic"`` — always candidate 0, bitwise-identical to the
  single-path routing the repository shipped with (and the paper's
  Section 4.2 rules).
* ``"ecmp"`` — a per-flow deterministic hash spreads flows uniformly over
  the candidates.  Stateless and oblivious: the same flow always takes the
  same route, so results stay reproducible.
* ``"adaptive"`` — congestion-aware minimal-adaptive selection: the
  candidate whose most-occupied link (by live flow count, maintained by the
  engine's :class:`~repro.engine.active.ActiveSet`) is least occupied wins.
  Ties — including the all-idle network — fall back to candidate 0, the
  deterministic route, which doubles as the deadlock-safe escape path:
  every selected route is minimal and the deterministic rule is always
  among the options (cf. the escape-channel argument of Duato-style
  adaptive routing).

All selection functions are pure and deterministic given their inputs, so
simulations remain exactly reproducible under every policy.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError

#: Selection policies, in documentation order; ``deterministic`` is the
#: default everywhere and index 0 of every candidate set is its route.
ROUTING_POLICIES = ("deterministic", "ecmp", "adaptive")

_MASK64 = (1 << 64) - 1


def validate_policy(policy: str) -> str:
    """Return ``policy`` or raise a typed error naming the valid set."""
    if policy not in ROUTING_POLICIES:
        raise ConfigError(
            f"unknown routing policy {policy!r}; "
            f"choose from: {', '.join(ROUTING_POLICIES)}")
    return policy


def _mix64(x: int) -> int:
    """SplitMix64 finaliser: a cheap, well-distributed 64-bit mix."""
    x &= _MASK64
    x ^= x >> 33
    x = (x * 0xFF51AFD7ED558CCD) & _MASK64
    x ^= x >> 33
    x = (x * 0xC4CEB9FE1A85EC53) & _MASK64
    x ^= x >> 33
    return x


def ecmp_index(flow_id: int, src: int, dst: int, num_candidates: int) -> int:
    """Deterministic per-flow candidate index (ECMP-style hash spread).

    Mixes the flow id with the endpoint pair so parallel flows of one pair
    spread over the candidates while any single flow is stable.
    """
    if num_candidates <= 1:
        return 0
    h = _mix64(flow_id * 0x9E3779B97F4A7C15 + (src << 21) + dst + 1)
    return h % num_candidates


def ecmp_indices(flow_ids: np.ndarray, src: np.ndarray, dst: np.ndarray,
                 num_candidates: np.ndarray) -> np.ndarray:
    """:func:`ecmp_index` of many flows at once.

    The same SplitMix64 mix in uint64 arithmetic, which wraps exactly
    where the scalar's arbitrary-precision products are masked to 64
    bits, so every index equals the scalar's.
    """
    u64 = np.uint64
    with np.errstate(over="ignore"):
        x = (np.asarray(flow_ids).astype(u64) * u64(0x9E3779B97F4A7C15)
             + (np.asarray(src).astype(u64) << u64(21))
             + np.asarray(dst).astype(u64) + u64(1))
        x ^= x >> u64(33)
        x *= u64(0xFF51AFD7ED558CCD)
        x ^= x >> u64(33)
        x *= u64(0xC4CEB9FE1A85EC53)
        x ^= x >> u64(33)
    n = np.asarray(num_candidates).astype(u64)
    return np.where(n > 1, x % np.maximum(n, u64(1)), u64(0)).astype(np.int64)


def adaptive_block_index(indptr: np.ndarray, links: np.ndarray,
                         occupancy: np.ndarray) -> int:
    """Least-congested candidate index under the current link occupancy.

    The pair's candidates are held as a block: candidate ``i`` is
    ``links[indptr[i]:indptr[i + 1]]``, ``indptr[0]`` being 0.
    ``occupancy`` is the per-link live-flow-count vector; a candidate's
    congestion score is the occupancy of its worst *network* link.  The
    NIC entries bracketing every route (its first and last) are shared
    by all candidates of a pair, so they are excluded — otherwise
    parallel flows of one pair would tie on their common injection link
    and never spread — except from a route of two links or fewer, which
    scores whole.  One ``maximum.reduceat`` over the block's occupancies,
    the NIC entries masked, scores every candidate.  The first minimum
    wins, so an idle (or uniformly loaded) network always takes
    candidate 0 — the deterministic escape route.
    """
    occ = np.asarray(occupancy)[links].astype(np.int64)
    starts = indptr[:-1]
    long = np.diff(indptr) > 2
    occ[starts[long]] = -1
    occ[indptr[1:][long] - 1] = -1
    return int(np.argmin(np.maximum.reduceat(occ, starts)))
