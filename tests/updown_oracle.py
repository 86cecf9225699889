"""Reference minimal UP*/DOWN* routing on generalised k-ary n-trees.

The fattree fabric (:class:`repro.topology.fattree.FatTreeFabric`, the
thin-tree fabric with full up-arities) computes its switch ids and walks
with array arithmetic; this module states the same rule switch by switch,
as pure functions, and the tests check the fabric against it.

A generalised fattree with down-arities ``(k_1, ..., k_n)`` (level 1 is the
leaf level) connects ``K = k_1 * ... * k_n`` leaf ports through ``n`` switch
stages; level ``l`` has ``K / k_l`` switches.  Level-``l`` switches have
``k_l`` down ports and, below the top stage, ``k_l`` up ports, so the tree
is non-blocking (no over-subscription, matching the paper's fattrees).

Switch identity
---------------
A level-``l`` switch is identified by ``(l, subtree, digits)`` where

* ``subtree = leaf_group // (k_1 * ... * k_l)`` selects which level-``l``
  subtree the switch belongs to, and
* ``digits = (e_1, ..., e_{l-1})`` with ``e_i in [0, k_i)`` selects the
  switch within the subtree (there are ``k_1 * ... * k_{l-1}`` of them).

Connectivity: level-``l`` switch ``(a, (e_1..e_{l-1}))`` connects *up*
through port ``x in [0, k_l)`` to the level-``l+1`` switch
``(a // k_{l+1}, (e_1..e_{l-1}, x))``.

Routing
-------
Minimal UP*/DOWN*: climb to the lowest common ancestor level ``m`` (the
smallest level at which the two leaves share a subtree), then descend.  The
up-port at level ``l`` is chosen as digit ``l`` of the *destination* leaf
("d-mod-k" selection), which spreads deterministic paths evenly across the
redundant ancestors.  The descent is uniquely determined.  Total switch
path length is ``2m - 1`` switches, i.e. ``2m`` link hops leaf-to-leaf.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass

from repro.errors import RoutingError


@dataclass(frozen=True)
class Switch:
    """A fattree switch: level (1-based), subtree index, intra-subtree digits."""

    level: int
    subtree: int
    digits: tuple[int, ...]


def leaf_count(arities: Sequence[int]) -> int:
    """Total leaf ports ``K`` of the fattree."""
    n = 1
    for k in arities:
        n *= k
    return n


def switch_count(arities: Sequence[int]) -> int:
    """Total number of switches over all stages: ``sum_l K / k_l``."""
    total_leaves = leaf_count(arities)
    return sum(total_leaves // k for k in arities)


def switches_at_level(arities: Sequence[int], level: int) -> int:
    """Number of switches at 1-based ``level``."""
    _check_level(arities, level)
    return leaf_count(arities) // arities[level - 1]


def leaf_digits(leaf: int, arities: Sequence[int]) -> tuple[int, ...]:
    """Mixed-radix digits of a leaf id, ``digit i`` having radix ``k_{i+1}``."""
    digits = []
    for k in arities:
        digits.append(leaf % k)
        leaf //= k
    if leaf:
        raise RoutingError("leaf id out of range")
    return tuple(digits)


def nca_level(src: int, dst: int, arities: Sequence[int]) -> int:
    """Level of the nearest common ancestor of two distinct leaves.

    This is the smallest ``m`` such that ``src`` and ``dst`` fall in the same
    level-``m`` subtree.  Equal leaves raise: they share a port, not a path.
    """
    total = leaf_count(arities)
    if not 0 <= src < total or not 0 <= dst < total:
        raise RoutingError("leaf id out of range")
    if src == dst:
        raise RoutingError("no common-ancestor level for identical leaves")
    group = 1
    for m, k in enumerate(arities, start=1):
        group *= k
        if src // group == dst // group:
            return m
    raise RoutingError("leaves do not share the top stage")  # pragma: no cover


def switch_path(src: int, dst: int, arities: Sequence[int]) -> list[Switch]:
    """The switch sequence of the minimal UP*/DOWN* path between two leaves.

    Returns ``2m - 1`` switches for an NCA at level ``m``; the caller adds
    the leaf-to-switch access hops.
    """
    return _assemble(src, dst, arities, nca_level(src, dst, arities),
                     leaf_digits(dst, arities))


def _assemble(src: int, dst: int, arities: Sequence[int], m: int,
              digits_choice: tuple[int, ...]) -> list[Switch]:
    """The UP*/DOWN* switch walk climbing through the given up-digits
    (:func:`switch_path` gives the destination's: d-mod-k).  The descent
    follows the destination, truncating the digits."""
    subtree = src // arities[0]
    digits: tuple[int, ...] = ()
    walk = [Switch(1, subtree, digits)]
    for level in range(1, m):
        digits = digits + (digits_choice[level - 1],)
        subtree //= arities[level]
        walk.append(Switch(level + 1, subtree, digits))
    group = 1  # leaves per level-(m - 1) subtree, then per lower level
    for k in arities[:m - 1]:
        group *= k
    for level in range(m - 1, 0, -1):
        walk.append(Switch(level, dst // group, digits[: level - 1]))
        group //= arities[level - 1]
    return walk


def switch_paths(src: int, dst: int, arities: Sequence[int]) -> list[list[Switch]]:
    """Every minimal UP*/DOWN* switch walk between two distinct leaves.

    The climb to the NCA may take any up-port at each level (all ``2m - 1``
    switch walks are minimal); the descent is then uniquely determined.
    The first entry is the deterministic d-mod-k :func:`switch_path`: each
    level's choice tuple leads with the destination digit.
    """
    m = nca_level(src, dst, arities)
    dst_digits = leaf_digits(dst, arities)
    choices = []
    for level in range(1, m):
        det = dst_digits[level - 1]
        choices.append((det, *(x for x in range(arities[level - 1])
                               if x != det)))
    return [_assemble(src, dst, arities, m, combo)
            for combo in itertools.product(*choices)]


def path_lengths(src: int, dst: int, arities: Sequence[int]) -> int:
    """Leaf-to-leaf hop count of the minimal path (``2 * nca_level``)."""
    return 2 * nca_level(src, dst, arities)


def validate_adjacent(a: Switch, b: Switch, arities: Sequence[int]) -> bool:
    """True when two switches are directly linked in the fattree."""
    lo, hi = (a, b) if a.level < b.level else (b, a)
    if hi.level != lo.level + 1:
        return False
    if hi.subtree != lo.subtree // arities[hi.level - 1]:
        return False
    if len(hi.digits) != hi.level - 1 or hi.digits[: hi.level - 2] != lo.digits:
        return False
    # the appended digit is the up-port index of the lower switch
    return 0 <= hi.digits[-1] < arities[lo.level - 1]


def _check_level(arities: Sequence[int], level: int) -> None:
    if not 1 <= level <= len(arities):
        raise RoutingError(f"invalid fattree level {level} for {len(arities)} stages")
