"""The one-attempt-at-a-time negative sampler: the oracle for
``repro.datasets.base._sample_negative_keys``.

:func:`sample_negative_keys` is the sampler as ``build_benchmark`` first used
it: each within-family attempt makes its own ``rng.integers`` and
``rng.choice`` calls.  The shipped sampler draws thousands of attempts per
call and must return the same list, in the same order, and leave the
generator in the same state.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.datasets.base import EntityProfile


def sample_negative_keys(
    entities: Sequence[EntityProfile],
    num_negatives: int,
    hard_fraction: float,
    rng: np.random.Generator,
) -> list[tuple[int, int]]:
    """Sample index pairs of *distinct* entities to serve as non-match pairs."""
    families: dict[str, list[int]] = {}
    for index, entity in enumerate(entities):
        families.setdefault(entity.family, []).append(index)

    chosen: set[tuple[int, int]] = set()
    hard_target = int(round(num_negatives * hard_fraction))

    # Hard negatives: pairs within a family.
    family_groups = [members for members in families.values() if len(members) >= 2]
    attempts = 0
    max_attempts = max(20 * num_negatives, 1000)
    while family_groups and len(chosen) < hard_target and attempts < max_attempts:
        attempts += 1
        group = family_groups[int(rng.integers(0, len(family_groups)))]
        i, j = rng.choice(len(group), size=2, replace=False)
        key = (group[int(i)], group[int(j)])
        if key[0] == key[1]:
            continue
        chosen.add(key)

    # Random negatives fill the remainder.
    attempts = 0
    n = len(entities)
    while len(chosen) < num_negatives and attempts < max_attempts:
        attempts += 1
        i = int(rng.integers(0, n))
        j = int(rng.integers(0, n))
        if i == j:
            continue
        chosen.add((i, j))

    return list(chosen)[:num_negatives]
