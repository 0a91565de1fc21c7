"""Train / validation / test splits of candidate pair sets.

The paper evaluates on the benchmark-provided splits (ratios of 3:1:1 for the
Magellan datasets, 4:1 train/validation for WDC after holding out ~1,100 test
pairs).  The synthetic benchmarks reproduce those ratios with stratified
splitting so the positive rate is preserved in every part.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._rng import RandomState, ensure_rng
from repro.data.pair import PairSet
from repro.exceptions import DatasetError


@dataclass(frozen=True)
class SplitRatios:
    """Relative sizes of the train / validation / test parts."""

    train: float = 3.0
    validation: float = 1.0
    test: float = 1.0

    def __post_init__(self) -> None:
        if min(self.train, self.validation, self.test) < 0:
            raise DatasetError("Split ratios must be non-negative")
        if self.train <= 0:
            raise DatasetError("Train ratio must be positive")
        if self.total <= 0:
            raise DatasetError("At least one split ratio must be positive")

    @property
    def total(self) -> float:
        return self.train + self.validation + self.test

    def fractions(self) -> tuple[float, float, float]:
        """Normalized (train, validation, test) fractions summing to 1."""
        return (
            self.train / self.total,
            self.validation / self.total,
            self.test / self.total,
        )


@dataclass(frozen=True)
class DatasetSplit:
    """Positional indices of the three parts of a pair set."""

    train: np.ndarray
    validation: np.ndarray
    test: np.ndarray

    def __post_init__(self) -> None:
        all_indices = np.concatenate([self.train, self.validation, self.test])
        if len(np.unique(all_indices)) != len(all_indices):
            raise DatasetError("Split parts overlap")


def stratified_split(
    pairs: PairSet,
    ratios: SplitRatios | None = None,
    random_state: RandomState = None,
) -> DatasetSplit:
    """Split ``pairs`` into train/validation/test parts stratified by label.

    Unlabeled pairs are not allowed: the benchmarks carry gold labels for all
    candidate pairs and the oracle needs them.
    """
    ratios = ratios or SplitRatios()
    rng = ensure_rng(random_state)
    labels = pairs.labels()
    if np.any(labels < 0):
        raise DatasetError("stratified_split requires every pair to carry a gold label")

    train_fraction, validation_fraction, _ = ratios.fractions()
    train_parts: list[np.ndarray] = []
    validation_parts: list[np.ndarray] = []
    test_parts: list[np.ndarray] = []
    for label_value in (0, 1):
        class_indices = np.flatnonzero(labels == label_value)
        rng.shuffle(class_indices)
        n = len(class_indices)
        n_train = int(round(n * train_fraction))
        n_validation = int(round(n * validation_fraction))
        n_train = min(n_train, n)
        n_validation = min(n_validation, n - n_train)
        train_parts.append(class_indices[:n_train])
        validation_parts.append(class_indices[n_train:n_train + n_validation])
        test_parts.append(class_indices[n_train + n_validation:])

    train = np.sort(np.concatenate(train_parts))
    validation = np.sort(np.concatenate(validation_parts))
    test = np.sort(np.concatenate(test_parts))
    return DatasetSplit(train=train, validation=validation, test=test)
