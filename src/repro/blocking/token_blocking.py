"""Token blocking: records sharing a (rare enough) token become candidates."""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable

import numpy as np

from repro.blocking._arrays import (
    SortedPostings,
    build_occurrences,
    sorted_unique,
    unpack_pairs,
)
from repro.data.record import Table
from repro.text.tokenization import token_set, token_sets

#: Left rows per internal candidate group of :meth:`TokenBlocker.block`;
#: bounds the per-group join multiset without changing the result.
_BLOCK_GROUP_ROWS = 2048


class TokenBlocker:
    """Standard token blocking with a stop-token frequency cut-off.

    Candidate generation is batched: one token → dense-id pass over both
    tables, per-table frequencies via ``np.bincount``, and a sorted-postings
    join of the surviving occurrences — no per-token nested Python loops.
    The seed per-token path remains as :meth:`block_reference`.

    Parameters
    ----------
    attributes:
        Attributes whose values feed the blocking keys (``None`` = all).
    max_block_size:
        Tokens appearing in more than this many records *per table* are
        treated as stop tokens and ignored; this bounds the quadratic blow-up
        caused by ubiquitous tokens such as ``"black"`` or ``"camera"``.
    min_token_length:
        Tokens shorter than this are ignored.
    """

    def __init__(
        self,
        attributes: Iterable[str] | None = None,
        max_block_size: int = 200,
        min_token_length: int = 2,
    ) -> None:
        if max_block_size < 1:
            raise ValueError("max_block_size must be >= 1")
        if min_token_length < 1:
            raise ValueError("min_token_length must be >= 1")
        self.attributes = tuple(attributes) if attributes is not None else None
        self.max_block_size = max_block_size
        self.min_token_length = min_token_length

    def _features(self, table: Table) -> list[set[str]]:
        """Length-filtered token sets of ``table``'s records (bulk, memoized)."""
        minimum = self.min_token_length
        texts = [record.text(self.attributes) for record in table]
        return [{token for token in features if len(token) >= minimum}
                for features in token_sets(texts)]

    def block(self, left: Table, right: Table) -> set[tuple[str, str]]:
        """Return candidate ``(left_id, right_id)`` keys."""
        left_keys, left_rows, right_keys, right_rows, num_keys = \
            build_occurrences(self._features(left), self._features(right))
        # Feature sets contribute each token once per record, so occurrence
        # counts equal the seed's per-table |records containing token|.
        left_counts = np.bincount(left_keys, minlength=num_keys)
        right_counts = np.bincount(right_keys, minlength=num_keys)
        stop = ((left_counts > self.max_block_size)
                | (right_counts > self.max_block_size))
        keep_left = ~stop[left_keys]
        keep_right = ~stop[right_keys]
        left_keys = left_keys[keep_left]
        left_rows = left_rows[keep_left]
        order = np.argsort(left_rows, kind="stable")
        left_keys = left_keys[order]
        left_rows = left_rows[order]
        postings = SortedPostings(right_keys[keep_right], right_rows[keep_right])

        left_ids = left.record_ids
        right_ids = right.record_ids
        candidates: set[tuple[str, str]] = set()
        for start in range(0, len(left), _BLOCK_GROUP_ROWS):
            lo = np.searchsorted(left_rows, start, side="left")
            hi = np.searchsorted(left_rows, start + _BLOCK_GROUP_ROWS, side="left")
            packed = sorted_unique(postings.join(left_keys[lo:hi], left_rows[lo:hi]))
            rows_l, rows_r = unpack_pairs(packed)
            candidates.update(zip(map(left_ids.__getitem__, rows_l.tolist()),
                                  map(right_ids.__getitem__, rows_r.tolist())))
        return candidates

    # -- reference path ------------------------------------------------------ #
    def _index(self, table: Table) -> dict[str, set[str]]:
        """Token → record-id inverted index of ``table``."""
        index: dict[str, set[str]] = defaultdict(set)
        for record in table:
            for token in token_set(record.text(self.attributes)):
                if len(token) >= self.min_token_length:
                    index[token].add(record.record_id)
        return index

    def block_reference(self, left: Table, right: Table) -> set[tuple[str, str]]:
        """The seed per-token path: executable specification for :meth:`block`."""
        left_index = self._index(left)
        right_index = self._index(right)
        candidates: set[tuple[str, str]] = set()
        for token, left_ids in left_index.items():
            right_ids = right_index.get(token)
            if not right_ids:
                continue
            if len(left_ids) > self.max_block_size or len(right_ids) > self.max_block_size:
                continue
            for left_id in left_ids:
                for right_id in right_ids:
                    candidates.add((left_id, right_id))
        return candidates
