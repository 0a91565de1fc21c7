"""The :class:`EMDataset` container.

An entity-matching benchmark bundles two clean tables, the candidate pair set
produced by blocking, the gold labels, and a train/validation/test split.  The
active-learning experiments treat the *train* part as the initially unlabeled
dataset ``D`` (labels are hidden behind the oracle), use the validation part
for model selection, and report F1 on the held-out test part — mirroring
Section 4 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.data.pair import CandidatePair, PairSet
from repro.data.record import Record, Table
from repro.data.splits import DatasetSplit, SplitRatios, stratified_split
from repro.exceptions import DatasetError
from repro._rng import RandomState


@dataclass
class DatasetStatistics:
    """Summary statistics of a benchmark (the rows of Table 3)."""

    name: str
    num_pairs: int
    num_train_pairs: int
    positive_rate: float
    num_attributes: int
    num_left_records: int
    num_right_records: int

    def as_row(self) -> dict[str, object]:
        """Return the statistics as a flat dictionary for report tables."""
        return {
            "dataset": self.name,
            "size": self.num_train_pairs,
            "pos_rate": round(self.positive_rate, 4),
            "num_attributes": self.num_attributes,
            "pairs_total": self.num_pairs,
            "left_records": self.num_left_records,
            "right_records": self.num_right_records,
        }


class EMDataset:
    """A complete entity-matching benchmark.

    Parameters
    ----------
    name:
        Benchmark name, e.g. ``"walmart_amazon"``.
    left / right:
        The two clean entity tables.
    pairs:
        Candidate pairs, each carrying a gold label.
    split:
        Optional pre-computed train/validation/test split; when omitted a
        stratified 3:1:1 split is drawn.
    attributes:
        The attributes the matcher reads, in order; ``None`` means every
        attribute of the left schema.  The WDC benchmarks use only
        ``title``, as in the paper.
    """

    def __init__(
        self,
        name: str,
        left: Table,
        right: Table,
        pairs: PairSet,
        split: DatasetSplit | None = None,
        attributes: Sequence[str] | None = None,
        split_ratios: SplitRatios | None = None,
        random_state: RandomState = None,
    ) -> None:
        if not name:
            raise DatasetError("Dataset name must be non-empty")
        if len(pairs) == 0:
            raise DatasetError(f"Dataset {name!r} has no candidate pairs")
        self.name = name
        self.left = left
        self.right = right
        self.pairs = pairs
        self.attributes = (tuple(attributes) if attributes is not None
                           else left.schema.attribute_names)
        self._validate_pairs()
        if split is None:
            split = stratified_split(pairs, split_ratios, random_state)
        self.split = split

    def _validate_pairs(self) -> None:
        for pair in self.pairs:
            if pair.left_id not in self.left:
                raise DatasetError(
                    f"Pair {pair.pair_id!r} references missing left record {pair.left_id!r}"
                )
            if pair.right_id not in self.right:
                raise DatasetError(
                    f"Pair {pair.pair_id!r} references missing right record {pair.right_id!r}"
                )

    # ------------------------------------------------------------------ #
    # Record / pair access
    # ------------------------------------------------------------------ #
    def records_for(self, pair: CandidatePair) -> tuple[Record, Record]:
        """Return the (left, right) records of ``pair``."""
        return self.left[pair.left_id], self.right[pair.right_id]

    def labels(self, indices: Sequence[int] | None = None) -> np.ndarray:
        """Gold labels of the pairs at ``indices`` (all pairs by default)."""
        labels = self.pairs.labels()
        if np.any(labels < 0):
            raise DatasetError(f"Dataset {self.name!r} contains unlabeled pairs")
        if indices is None:
            return labels
        return labels[np.asarray(indices, dtype=np.int64)]

    # ------------------------------------------------------------------ #
    # Split views
    # ------------------------------------------------------------------ #
    @property
    def train_indices(self) -> np.ndarray:
        """Indices of the pool the active learner draws labels from."""
        return self.split.train

    @property
    def validation_indices(self) -> np.ndarray:
        """Indices used for matcher model selection (early stopping)."""
        return self.split.validation

    @property
    def test_indices(self) -> np.ndarray:
        """Held-out indices used only for reporting F1."""
        return self.split.test

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #
    def statistics(self) -> DatasetStatistics:
        """Summary statistics in the shape of Table 3."""
        train_labels = self.labels(self.train_indices)
        return DatasetStatistics(
            name=self.name,
            num_pairs=len(self.pairs),
            num_train_pairs=len(self.train_indices),
            positive_rate=float(np.mean(train_labels)) if len(train_labels) else 0.0,
            num_attributes=len(self.attributes),
            num_left_records=len(self.left),
            num_right_records=len(self.right),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        stats = self.statistics()
        return (f"EMDataset(name={self.name!r}, pairs={stats.num_pairs}, "
                f"train={stats.num_train_pairs}, pos_rate={stats.positive_rate:.3f})")

