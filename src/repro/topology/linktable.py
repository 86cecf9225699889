"""Directed-link registry shared by all topologies.

The flow engine never manipulates graph structure: it only sees *link ids*
and a capacity vector.  :class:`LinkTable` is the bridge — topologies
register every directed link (network links, plus one injection and one
consumption link per endpoint) and translate vertex paths into link-id
arrays.

Links are directed: a full-duplex cable between vertices ``u`` and ``v`` is
two independent links, matching the paper's transceiver model where each
direction carries 10 Gbps.

A topology registers its links in batches (:meth:`LinkTable.add_links`,
:meth:`LinkTable.add_cables`): the table is three arrays indexed by link
id plus a sorted ``u * 2**32 + v`` key index, and holds no per-link
Python object.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TopologyError

#: Vertex ids lie in ``[0, _SPAN)``; ``u * _SPAN + v`` keys the pair.
_SPAN = 1 << 32


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


class LinkTable:
    """Registry mapping directed vertex pairs to dense link ids."""

    def __init__(self) -> None:
        self._src = _readonly(np.empty(0, dtype=np.int64))
        self._dst = _readonly(np.empty(0, dtype=np.int64))
        self._cap = _readonly(np.empty(0, dtype=np.float64))
        # lookup index: sorted ``u * _SPAN + v`` keys and the link id of each
        self._keys = np.empty(0, dtype=np.int64)
        self._key_link = np.empty(0, dtype=np.int64)
        self._frozen = False

    # ------------------------------------------------------------------ build
    def add_links(self, src, dst, capacity) -> np.ndarray:
        """Register the directed links ``src[i] -> dst[i]``; returns their ids.

        Ids are dense and follow the batch order, after every link already
        registered.  ``capacity`` is one value for the whole batch or one
        per link.  The batch is validated as a whole before anything is
        registered: capacities must be positive, and no pair may repeat,
        within the batch or against the table (one sort of the batch's
        keys, then a merge into the table's sorted key index).  Topologies
        enumerate their links exactly once.
        """
        if self._frozen:
            raise TopologyError("LinkTable is frozen; no more links may be added")
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.ndim != 1 or src.shape != dst.shape:
            raise TopologyError(
                f"link endpoints must be equal-length 1-D arrays, got "
                f"shapes {src.shape} and {dst.shape}")
        cap = np.broadcast_to(np.asarray(capacity, dtype=np.float64),
                              src.shape)
        if not (cap > 0).all():
            bad = float(cap[np.argmin(cap > 0)])
            raise TopologyError(f"link capacity must be positive, got {bad}")
        outside = (src | dst) >> 32  # nonzero for ids outside [0, 2**32)
        if outside.any():
            i = int(np.argmax(outside != 0))
            raise TopologyError(f"link {int(src[i])} -> {int(dst[i])} has a "
                                f"vertex id outside [0, 2**32)")
        keys = src * _SPAN + dst
        order = np.argsort(keys, kind="stable")
        ordered = keys[order]
        # a key already in the table, or repeated within the batch
        clash = self._slots(ordered)[1]
        clash[1:] |= ordered[1:] == ordered[:-1]
        if clash.any():
            u, v = divmod(int(ordered[np.argmax(clash)]), _SPAN)
            raise TopologyError(f"duplicate link {u} -> {v}")
        first = self.num_links
        ids = np.arange(first, first + src.shape[0], dtype=np.int64)
        merged = np.concatenate((self._keys, ordered))
        merge = np.argsort(merged, kind="stable")  # two sorted runs
        self._keys = merged[merge]
        self._key_link = np.concatenate((self._key_link, ids[order]))[merge]
        self._src = _readonly(np.concatenate((self._src, src)))
        self._dst = _readonly(np.concatenate((self._dst, dst)))
        self._cap = _readonly(np.concatenate((self._cap, cap)))
        return ids

    def add_cables(self, a, b, capacity) -> np.ndarray:
        """Register both directions of every full-duplex cable
        ``a[i] <-> b[i]``, interleaved: ``a[0] -> b[0]``, ``b[0] -> a[0]``,
        ``a[1] -> b[1]``, ...  Returns the link ids in that order."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if a.shape != b.shape:
            raise TopologyError(
                f"cable ends must have equal shapes, got {a.shape} and "
                f"{b.shape}")
        return self.add_links(np.stack((a, b), axis=-1).ravel(),
                              np.stack((b, a), axis=-1).ravel(), capacity)

    def freeze(self) -> None:
        """Finalise the table: no link may be added afterwards."""
        self._frozen = True

    # ----------------------------------------------------------------- lookup
    def _slots(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(pos, found)``: each key's slot in the sorted key index and
        whether the table holds it there."""
        if not self._keys.size:
            return (np.zeros(keys.shape, dtype=np.int64),
                    np.zeros(keys.shape, dtype=bool))
        pos = np.minimum(np.searchsorted(self._keys, keys),
                         self._keys.shape[0] - 1)
        return pos, self._keys[pos] == keys

    @staticmethod
    def _pair_keys(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """``u * 2**32 + v``, or -1 (held by no link) out of range."""
        keys = u * _SPAN + v
        outside = (u | v) >> 32    # nonzero for ids outside [0, 2**32)
        if outside.any():
            keys = np.where(outside == 0, keys, -1)
        return keys

    def ids_of(self, u, v) -> np.ndarray:
        """The link id of every directed pair ``u[i] -> v[i]``.

        Looks the pairs up in the sorted key index, so many pairs cost one
        ``searchsorted``.  Raises :class:`TopologyError` naming the first
        absent link.
        """
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        pos, found = self._slots(self._pair_keys(u, v))
        if not found.all():
            i = int(np.flatnonzero(~found)[0])
            raise TopologyError(f"no link {int(u[i])} -> {int(v[i])}")
        return self._key_link[pos]

    def id_of(self, u: int, v: int) -> int:
        """Link id of the directed pair ``u -> v``; raises if absent."""
        return int(self.ids_of([u], [v])[0])

    def has(self, u: int, v: int) -> bool:
        """True when the directed link ``u -> v`` exists."""
        return bool(self._slots(self._pair_keys(np.int64(u), np.int64(v)))[1])

    def endpoints_of(self, link_id: int) -> tuple[int, int]:
        """The ``(src, dst)`` vertex pair of a link id."""
        if not 0 <= link_id < self.num_links:
            raise TopologyError(f"unknown link id {link_id}")
        return int(self._src[link_id]), int(self._dst[link_id])

    def path_to_links(self, vertices: list[int]) -> list[int]:
        """Translate a vertex walk into the list of traversed link ids."""
        walk = np.asarray(vertices, dtype=np.int64)
        return self.ids_of(walk[:-1], walk[1:]).tolist()

    # ------------------------------------------------------------- properties
    @property
    def num_links(self) -> int:
        """Total number of directed links registered."""
        return self._src.shape[0]

    @property
    def capacities(self) -> np.ndarray:
        """Immutable per-link capacity vector (bits/s); freezes the table."""
        self.freeze()
        return self._cap

    @property
    def sources(self) -> np.ndarray:
        """Source vertex per link id (read-only array indexable by link id).

        Like :meth:`pairs`, this never exposes mutable state: every batch
        replaces the arrays rather than growing them in place, so a view
        taken while the table is being built is a snapshot.
        """
        return self._src

    @property
    def destinations(self) -> np.ndarray:
        """Destination vertex per link id (read-only array, see
        :attr:`sources`)."""
        return self._dst

    def pairs(self) -> dict[tuple[int, int], int]:
        """A copy of the ``(u, v) -> id`` mapping (for tests/analysis)."""
        return dict(zip(zip(self._src.tolist(), self._dst.tolist()),
                        range(self.num_links)))
