"""Token blocking: records sharing a (rare enough) token become candidates."""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable

from repro.data.record import Table
from repro.text.tokenization import token_set


class TokenBlocker:
    """Standard token blocking with a stop-token frequency cut-off.

    One inverted index per table (token → record ids), then every token
    shared by both tables pairs its left records with its right records.

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

    def _index(self, table: Table) -> dict[str, set[str]]:
        """Token → record-id inverted index of ``table``."""
        index: dict[str, set[str]] = defaultdict(set)
        for record in table:
            for token in token_set(record.text(self.attributes)):
                if len(token) >= self.min_token_length:
                    index[token].add(record.record_id)
        return index

    def block(self, left: Table, right: Table) -> set[tuple[str, str]]:
        """Return candidate ``(left_id, right_id)`` keys."""
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
