"""Batches of walks held as CSR arrays.

:meth:`repro.topology.base.Topology.routes` describes many routes at
once as one ``(indptr, values)`` pair: row ``i`` is
``values[indptr[i]:indptr[i + 1]]``, and ``indptr`` has one entry more
than there are rows.  These helpers assemble such batches without a
Python loop over the rows.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence

import numpy as np

CSR = tuple[np.ndarray, np.ndarray]


def from_lengths(lengths: np.ndarray) -> np.ndarray:
    """The ``indptr`` of rows with the given lengths."""
    indptr = np.zeros(lengths.shape[0] + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    return indptr


def from_rows(rows: Sequence[Sequence[int]]) -> CSR:
    """A batch holding the given rows of ints."""
    indptr = from_lengths(np.fromiter(map(len, rows), dtype=np.int64,
                                      count=len(rows)))
    return indptr, np.fromiter(itertools.chain.from_iterable(rows),
                               dtype=np.int64, count=int(indptr[-1]))


def spread(mask: np.ndarray, part: CSR) -> CSR:
    """Widen a batch over the rows selected by ``mask`` to every row.

    ``part`` has one row per ``True`` in ``mask``, in order; the other
    rows come out empty.
    """
    indptr, values = part
    lengths = np.zeros(mask.shape[0], dtype=np.int64)
    lengths[mask] = np.diff(indptr)
    return from_lengths(lengths), values


def expand(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row ``i`` widened to ``counts[i]`` items: ``(indptr, row, index)``,
    where item ``j`` belongs to row ``row[j]`` and is that row's
    ``index[j]``-th, counting from 0."""
    indptr = from_lengths(counts)
    row = np.repeat(np.arange(counts.shape[0], dtype=np.int64), counts)
    return indptr, row, np.arange(row.shape[0], dtype=np.int64) \
        - indptr[:-1][row]


def take(part: CSR, rows: np.ndarray) -> CSR:
    """The batch of ``part``'s rows ``rows``, in that order."""
    indptr, values = part
    lo = indptr[rows]
    lengths = indptr[rows + 1] - lo
    out_ptr = from_lengths(lengths)
    # entry k of taken row r sits at lo[r] + (k - out_ptr[r])
    return out_ptr, values[np.repeat(lo - out_ptr[:-1], lengths)
                           + np.arange(int(out_ptr[-1]), dtype=np.int64)]


def concat_rows(*parts: CSR) -> CSR:
    """Row-wise concatenation: row ``i`` of the result is row ``i`` of
    every part in turn.  All parts have the same number of rows."""
    lengths = [np.diff(indptr) for indptr, _ in parts]
    indptr = from_lengths(sum(lengths))
    out = np.empty(int(indptr[-1]), dtype=np.int64)
    offset = indptr[:-1].copy()
    for (part_ptr, values), part_len in zip(parts, lengths):
        # element k of part row r lands at offset[r] + (k - part_ptr[r])
        out[np.repeat(offset - part_ptr[:-1], part_len)
            + np.arange(values.shape[0])] = values
        offset += part_len
    return indptr, out
