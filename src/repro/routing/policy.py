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

from collections.abc import Sequence

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


def adaptive_index(candidates: Sequence, occupancy) -> int:
    """Least-congested candidate index under the current link occupancy.

    ``occupancy`` is the per-link live-flow-count vector; a candidate's
    congestion score is the occupancy of its worst *network* link.  The
    NIC entries bracketing every route (``route[0]``/``route[-1]``) are
    shared by all candidates of a pair, so they are excluded — otherwise
    parallel flows of one pair would tie on their common injection link
    and never spread.  The first minimum wins, so an idle (or uniformly
    loaded) network always takes candidate 0 — the deterministic escape
    route.
    """
    best = 0
    best_score = None
    for i, route in enumerate(candidates):
        body = route[1:-1] if len(route) > 2 else route
        score = int(occupancy[body].max())
        if best_score is None or score < best_score:
            best, best_score = i, score
    return best
