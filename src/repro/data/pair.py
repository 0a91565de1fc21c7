"""Candidate pairs and labeled pair collections.

After blocking, entity matching classifies a set of *candidate pairs*
``(r1, r2) ∈ D1 × D2``.  :class:`CandidatePair` ties two record identifiers
together with an optional gold label; :class:`PairSet` is the ordered,
index-addressable collection the active-learning machinery operates on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.exceptions import DatasetError

#: Integer label of a matching pair.
MATCH = 1
#: Integer label of a non-matching pair.
NON_MATCH = 0


@dataclass(frozen=True)
class CandidatePair:
    """A candidate tuple pair produced by blocking.

    Attributes
    ----------
    pair_id:
        Unique identifier of the pair within its :class:`PairSet`.
    left_id / right_id:
        Record identifiers in the left / right table.
    label:
        Gold label (``1`` match, ``0`` non-match) or ``None`` when unknown.
    """

    pair_id: str
    left_id: str
    right_id: str
    label: int | None = None

    def __post_init__(self) -> None:
        if not self.pair_id:
            raise DatasetError("pair_id must be non-empty")
        if self.label is not None and self.label not in (MATCH, NON_MATCH):
            raise DatasetError(f"label must be 0, 1 or None; got {self.label!r}")

    @property
    def key(self) -> tuple[str, str]:
        """The ``(left_id, right_id)`` key of the pair."""
        return (self.left_id, self.right_id)


class PairSet:
    """An ordered collection of :class:`CandidatePair` objects.

    Pairs are addressed by integer position: the representation matrices
    produced by the matcher are aligned with positions.  Pair ids and
    ``(left_id, right_id)`` keys are unique within the collection.
    """

    def __init__(self, pairs: Iterable[CandidatePair] = ()) -> None:
        self._pairs: list[CandidatePair] = []
        self._ids: set[str] = set()
        self._keys: set[tuple[str, str]] = set()
        for pair in pairs:
            self.add(pair)

    def add(self, pair: CandidatePair) -> None:
        """Append ``pair`` to the collection."""
        if pair.pair_id in self._ids:
            raise DatasetError(f"Duplicate pair_id {pair.pair_id!r}")
        if pair.key in self._keys:
            raise DatasetError(f"Duplicate candidate pair for key {pair.key!r}")
        self._pairs.append(pair)
        self._ids.add(pair.pair_id)
        self._keys.add(pair.key)

    def __len__(self) -> int:
        return len(self._pairs)

    def __iter__(self) -> Iterator[CandidatePair]:
        return iter(self._pairs)

    def __getitem__(self, index: int) -> CandidatePair:
        return self._pairs[index]

    def __contains__(self, pair_id: object) -> bool:
        return pair_id in self._ids

    def labels(self, missing: int = -1) -> np.ndarray:
        """Gold labels as an integer array (``missing`` for unlabeled pairs)."""
        return np.array(
            [missing if pair.label is None else pair.label for pair in self._pairs],
            dtype=np.int64,
        )

    def positive_rate(self) -> float:
        """Fraction of labeled pairs that are matches."""
        labeled = [pair.label for pair in self._pairs if pair.label is not None]
        if not labeled:
            return 0.0
        return float(np.mean(labeled))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"PairSet(pairs={len(self)}, positive_rate={self.positive_rate():.3f})"
