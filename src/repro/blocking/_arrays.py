"""Array primitives of the batched token blocker.

Candidate generation reduces to two steps: join left occurrences against
right occurrences on an integer token id, then deduplicate the resulting
``(left, right)`` index pairs.  Pairs are packed into single ``uint64``
values (``left_index << 32 | right_index``) so deduplication is one sort
over a flat array instead of a Python ``set`` of tuples.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

_PAIR_SHIFT = np.uint64(32)
_PAIR_MASK = np.uint64((1 << 32) - 1)

_EMPTY_PAIRS = np.empty(0, dtype=np.uint64)


def pack_pairs(left_rows: np.ndarray, right_rows: np.ndarray) -> np.ndarray:
    """Pack parallel index arrays into ``left << 32 | right`` uint64 values.

    Exact (collision-free) for tables below 2^32 records, which also bounds
    every other index in the package.
    """
    return ((left_rows.astype(np.uint64) << _PAIR_SHIFT)
            | right_rows.astype(np.uint64))


def unpack_pairs(packed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`pack_pairs`: ``(left_rows, right_rows)`` as int64."""
    return ((packed >> _PAIR_SHIFT).astype(np.int64),
            (packed & _PAIR_MASK).astype(np.int64))


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """Sorted distinct elements of ``values`` via an explicit sort.

    Equivalent to ``np.unique(values)`` but markedly faster on the packed
    uint64 pair arrays blocking produces: recent numpy routes plain integer
    ``unique`` calls through a hash table, which loses badly to a plain
    ``sort`` plus neighbor-comparison dedup on data of this shape.
    """
    if values.size == 0:
        return values
    ordered = np.sort(values)
    keep = np.empty(ordered.size, dtype=bool)
    keep[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def build_occurrences(
    left_features: Sequence[set[str]],
    right_features: Sequence[set[str]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Integer-keyed ``(key, row)`` occurrence arrays of two feature lists.

    Dense key ids are assigned over the left table's features; right
    occurrences keep only keys also present on the left (a key exclusive to
    one side cannot produce a pair, and dropping it early keeps the arrays —
    and the per-key frequency ``np.bincount`` — small).  Returns
    ``(left_keys, left_rows, right_keys, right_rows, num_keys)``.
    """
    key_ids: dict[str, int] = {}
    left_keys: list[int] = []
    left_rows: list[int] = []
    for row, features in enumerate(left_features):
        for feature in features:
            left_keys.append(key_ids.setdefault(feature, len(key_ids)))
            left_rows.append(row)
    right_keys: list[int] = []
    right_rows: list[int] = []
    for row, features in enumerate(right_features):
        for feature in features:
            key = key_ids.get(feature)
            if key is not None:
                right_keys.append(key)
                right_rows.append(row)
    return (np.array(left_keys, dtype=np.int64),
            np.array(left_rows, dtype=np.int64),
            np.array(right_keys, dtype=np.int64),
            np.array(right_rows, dtype=np.int64),
            len(key_ids))


class SortedPostings:
    """Right-side occurrences ``(key, row)`` sorted by key, joinable in bulk.

    Built once per table pair; :meth:`join` then answers "which right rows
    share a key with each left occurrence" with two :func:`numpy.searchsorted`
    passes and pure index arithmetic — no per-bucket Python loop, no
    ``dict[key, list]``.
    """

    def __init__(self, keys: np.ndarray, rows: np.ndarray) -> None:
        order = np.argsort(keys, kind="stable")
        self.keys = keys[order]
        self.rows = rows[order]

    def join(self, left_keys: np.ndarray, left_rows: np.ndarray) -> np.ndarray:
        """Packed pairs for every (left occurrence × matching right row).

        A pair appears once per key its two rows share; dedup with
        :func:`sorted_unique`.
        """
        if left_keys.size == 0 or self.keys.size == 0:
            return _EMPTY_PAIRS
        lo = np.searchsorted(self.keys, left_keys, side="left")
        hi = np.searchsorted(self.keys, left_keys, side="right")
        counts = hi - lo
        total = int(counts.sum())
        if total == 0:
            return _EMPTY_PAIRS
        left_out = np.repeat(left_rows, counts)
        # Position of each output pair inside its left occurrence's range.
        starts = np.cumsum(counts) - counts
        within = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
        right_out = self.rows[np.repeat(lo, counts) + within]
        return pack_pairs(left_out, right_out)
