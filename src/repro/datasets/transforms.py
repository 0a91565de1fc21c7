"""Pool-skew transforms: reshape the active-learning pool of a benchmark.

The benchmarks draw their train pool i.i.d. from the generated pair set, but
real labeling campaigns rarely see such a balanced pool: a crawled source may
be dominated by a handful of popular product families, and a high-precision
blocker can leave a pool with almost no matches in it.  A *pool transform*
rewrites only the train split of an :class:`~repro.data.dataset.EMDataset`
(validation and test stay untouched, so reported F1 remains comparable
across transforms) and is the pool-skew axis of the scenario matrix
(:mod:`repro.scenarios`).

Transforms are pure: they return a new dataset sharing the tables and pair
set of the input, never mutating it.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from repro._suggest import unknown_name_message
from repro.data.dataset import EMDataset
from repro.data.splits import DatasetSplit
from repro.exceptions import DatasetError

#: Signature of a pool transform: ``(dataset, rng) -> dataset``.
PoolTransform = Callable[[EMDataset, np.random.Generator], EMDataset]

#: Train pools are never shrunk below this size (seed + one selection round
#: must remain possible at the tiny scale).
_MIN_POOL_SIZE = 12


def _with_train_pool(dataset: EMDataset, train_indices: np.ndarray) -> EMDataset:
    """Rebuild ``dataset`` with ``train_indices`` as its train split."""
    train_indices = np.sort(np.asarray(train_indices, dtype=np.int64))
    if len(train_indices) == 0:
        raise DatasetError(
            f"Pool transform left {dataset.name!r} with an empty train pool")
    labels = dataset.labels(train_indices)
    if not (labels == 1).any() or not (labels == 0).any():
        raise DatasetError(
            f"Pool transform left {dataset.name!r} without both classes in "
            "the train pool; the labeled seed needs matches and non-matches")
    split = DatasetSplit(train=train_indices,
                         validation=dataset.validation_indices,
                         test=dataset.test_indices)
    return EMDataset(
        name=dataset.name,
        left=dataset.left,
        right=dataset.right,
        pairs=dataset.pairs,
        split=split,
        attributes=dataset.attributes,
    )


def _guarantee_both_classes(
    dataset: EMDataset,
    keep: np.ndarray,
    rng: np.random.Generator,
    minimum_per_class: int = 2,
) -> np.ndarray:
    """Top ``keep`` up with random train pairs until both classes are present."""
    keep_set = set(int(index) for index in keep)
    train = np.asarray(dataset.train_indices, dtype=np.int64)
    train_labels = dataset.labels(train)
    for label_value in (0, 1):
        class_indices = train[train_labels == label_value]
        missing = minimum_per_class - sum(1 for index in class_indices
                                          if int(index) in keep_set)
        if missing <= 0:
            continue
        candidates = np.array([index for index in class_indices
                               if int(index) not in keep_set], dtype=np.int64)
        chosen = rng.choice(candidates, size=min(missing, len(candidates)),
                            replace=False)
        keep_set.update(int(index) for index in chosen)
    return np.array(sorted(keep_set), dtype=np.int64)


def skewed_cluster_pool(
    dataset: EMDataset,
    rng: np.random.Generator,
    dominant_fraction: float = 0.3,
    minority_keep_rate: float = 0.15,
) -> EMDataset:
    """Skew the pool toward a minority of entity clusters.

    Train pairs are grouped by the entity of their left record; a random
    ``dominant_fraction`` of those entity groups keeps every pair, while the
    remaining groups keep each pair only with ``minority_keep_rate``.  The
    resulting pool mimics a crawl dominated by a few popular families —
    exactly the regime where the battleship selector's per-component budget
    distribution should outperform pool-global criteria.
    """
    if not 0.0 < dominant_fraction <= 1.0:
        raise DatasetError("dominant_fraction must be in (0, 1]")
    if not 0.0 <= minority_keep_rate <= 1.0:
        raise DatasetError("minority_keep_rate must be in [0, 1]")
    train = np.asarray(dataset.train_indices, dtype=np.int64)
    groups: dict[str, list[int]] = {}
    for index in train:
        pair = dataset.pairs[int(index)]
        entity = dataset.left[pair.left_id].entity_id
        groups.setdefault(entity, []).append(int(index))

    entity_keys = sorted(groups)
    num_dominant = max(int(round(len(entity_keys) * dominant_fraction)), 1)
    dominant = set(rng.choice(entity_keys, size=min(num_dominant, len(entity_keys)),
                              replace=False).tolist())
    keep: list[int] = []
    for entity in entity_keys:
        if entity in dominant:
            keep.extend(groups[entity])
        else:
            keep.extend(index for index in groups[entity]
                        if rng.random() < minority_keep_rate)

    if len(keep) < _MIN_POOL_SIZE:
        remainder = np.array([int(i) for i in train if int(i) not in set(keep)],
                             dtype=np.int64)
        top_up = rng.choice(remainder,
                            size=min(_MIN_POOL_SIZE - len(keep), len(remainder)),
                            replace=False)
        keep.extend(int(index) for index in top_up)
    keep_array = _guarantee_both_classes(dataset, np.array(keep, dtype=np.int64), rng)
    return _with_train_pool(dataset, keep_array)


def positive_starved_pool(
    dataset: EMDataset,
    rng: np.random.Generator,
    keep_positive_fraction: float = 0.25,
) -> EMDataset:
    """Starve the pool of matches.

    Only ``keep_positive_fraction`` of the train matches survive (at least
    two, so the labeled seed can still contain a match); non-matches are kept
    in full.  This models an over-aggressive blocker or an inherently sparse
    matching task, where selectors that rely on finding match clusters have
    little signal to work with.
    """
    if not 0.0 <= keep_positive_fraction <= 1.0:
        raise DatasetError("keep_positive_fraction must be in [0, 1]")
    train = np.asarray(dataset.train_indices, dtype=np.int64)
    labels = dataset.labels(train)
    positives = train[labels == 1]
    negatives = train[labels == 0]
    num_keep = max(int(round(len(positives) * keep_positive_fraction)), 2)
    num_keep = min(num_keep, len(positives))
    kept_positives = rng.choice(positives, size=num_keep, replace=False)
    keep = np.concatenate([kept_positives, negatives])
    return _with_train_pool(dataset, keep)


POOL_TRANSFORMS: Dict[str, PoolTransform] = {
    "skewed-cluster": skewed_cluster_pool,
    "positive-starved": positive_starved_pool,
}


def available_pool_transforms() -> tuple[str, ...]:
    """Names of the registered pool transforms."""
    return tuple(POOL_TRANSFORMS)


def apply_pool_transform(
    name: str,
    dataset: EMDataset,
    rng: np.random.Generator,
) -> EMDataset:
    """Apply the registered pool transform called ``name`` to ``dataset``."""
    try:
        transform = POOL_TRANSFORMS[name]
    except KeyError:
        raise DatasetError(
            unknown_name_message("pool transform", name, POOL_TRANSFORMS)
        ) from None
    return transform(dataset, rng)
