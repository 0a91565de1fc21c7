"""Benchmark construction machinery for the synthetic datasets.

The pipeline is:

1.  A *catalog generator* produces clean :class:`EntityProfile` objects, each
    describing one real-world entity (a product, a paper) and a *family key*
    grouping entities that are lexically similar (same brand and model family,
    same topic and venue).  Family keys are what make non-match pairs hard:
    blocking would place entities of the same family in the same block.
2.  :func:`build_benchmark` materializes two tables by corrupting each
    entity's values with source-specific :class:`CorruptionConfig` profiles,
    then creates candidate pairs: every entity present in both tables yields a
    match pair, and non-match pairs are drawn preferentially *within* families
    (hard negatives) and topped up with random pairs of any two distinct
    entities, whatever their families, until the target positive rate of the
    paper's Table 3 is met.
3.  The pair set is split 3:1:1 (train/validation/test), stratified by label.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro._rng import RandomState, ensure_rng, spawn_rng
from repro.config import ScaleProfile, get_scale, scaled_size
from repro.data.dataset import EMDataset
from repro.data.pair import CandidatePair, PairSet
from repro.data.record import Record, Table
from repro.data.schema import AttributeType, Schema
from repro.data.splits import SplitRatios
from repro.datasets.corruptions import CorruptionConfig, corrupt_values
from repro.exceptions import DatasetError


@dataclass(frozen=True)
class EntityProfile:
    """A clean real-world entity produced by a catalog generator.

    Attributes
    ----------
    entity_id:
        Unique identifier of the entity.
    values:
        Clean attribute values.
    family:
        Grouping key for hard-negative generation; entities in the same
        family describe *different* real-world objects that are nevertheless
        lexically close (e.g. two camera models of the same product line).
    """

    entity_id: str
    values: dict[str, str]
    family: str


#: Signature of a catalog generator: ``(num_entities, rng) -> list[EntityProfile]``.
CatalogGenerator = Callable[[int, np.random.Generator], list[EntityProfile]]


@dataclass(frozen=True)
class BenchmarkSpec:
    """Everything needed to synthesize one benchmark.

    Attributes
    ----------
    name:
        Benchmark name, e.g. ``"walmart_amazon"``.
    schema:
        Schema shared by both tables.
    catalog:
        Catalog generator producing clean entities.
    paper_train_size:
        Number of training pairs reported in Table 3 of the paper.
    positive_rate:
        Fraction of match pairs reported in Table 3.
    left_corruption / right_corruption:
        Noise profiles of the two sources.
    serialized_attributes:
        Attributes exposed to the matcher, passed on as
        :attr:`EMDataset.attributes` (``None`` means all; the WDC benchmarks
        expose only ``title``).  The field keeps its name because
        :func:`~repro.datasets.registry.benchmark_fingerprint` hashes it
        under that key.
    hard_negative_fraction:
        Share of non-match pairs drawn within entity families.
    split_ratios:
        Train/validation/test ratios (3:1:1 for Magellan-style benchmarks,
        4:1:1.25 for the WDC ones, matching Section 4.1).
    """

    name: str
    schema: Schema
    catalog: CatalogGenerator
    paper_train_size: int
    positive_rate: float
    left_corruption: CorruptionConfig
    right_corruption: CorruptionConfig
    serialized_attributes: tuple[str, ...] | None = None
    hard_negative_fraction: float = 0.7
    split_ratios: SplitRatios = field(default_factory=SplitRatios)

    def __post_init__(self) -> None:
        if not 0.0 < self.positive_rate < 1.0:
            raise DatasetError(
                f"positive_rate must be in (0, 1), got {self.positive_rate}"
            )
        if not 0.0 <= self.hard_negative_fraction <= 1.0:
            raise DatasetError("hard_negative_fraction must be in [0, 1]")
        if self.paper_train_size <= 0:
            raise DatasetError("paper_train_size must be positive")

    @property
    def numeric_attributes(self) -> tuple[str, ...]:
        """Names of numeric attributes (perturbed multiplicatively)."""
        return tuple(
            attribute.name
            for attribute in self.schema
            if attribute.kind is AttributeType.NUMERIC
        )


def _materialize_record(
    entity: EntityProfile,
    record_id: str,
    corruption: CorruptionConfig,
    rng: np.random.Generator,
    numeric_attributes: tuple[str, ...],
) -> Record:
    """Create one corrupted record describing ``entity``."""
    values = corrupt_values(entity.values, corruption, rng, numeric_attributes)
    return Record(record_id=record_id, values=values, entity_id=entity.entity_id)


#: Within-family attempts drawn per bulk call.  An attempt takes four draws,
#: so the buffers stay a few hundred KB at any scale.
_ATTEMPT_CHUNK = 4096


def _guess_families(
    family_sizes: np.ndarray,
    count: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Guess the family each of the next ``count`` attempts draws.

    The guess assumes that no draw is rejected, so that every draw with a
    bound above 1 takes the next value of the stream.  It walks one bulk draw
    of family indices, in which an attempt on a family of ``m`` members takes
    ``[F > 1] + [m > 2] + 2`` values.  ``rng`` is left as it was.
    """
    state = rng.bit_generator.state
    draws = rng.integers(0, len(family_sizes), size=4 * count).tolist()
    rng.bit_generator.state = state
    steps = (int(len(family_sizes) > 1) + (family_sizes > 2) + 2).tolist()
    guess = []
    position = 0
    for _ in range(count):
        family = draws[position]
        guess.append(family)
        position += steps[family]
    return np.array(guess, dtype=np.int64)


def _add_within_family_keys(
    chosen: set[tuple[int, int]],
    family_groups: list[list[int]],
    hard_target: int,
    max_attempts: int,
    rng: np.random.Generator,
) -> None:
    """Add the keys of the within-family attempts to ``chosen``, in order."""
    sizes = np.array([len(group) for group in family_groups])
    members = np.concatenate(family_groups)
    starts = np.cumsum(sizes) - sizes
    attempts = 0
    while len(chosen) < hard_target and attempts < max_attempts:
        count = min(_ATTEMPT_CHUNK, max_attempts - attempts)
        guess = _guess_families(sizes, count, rng)
        guessed_sizes = sizes[guess]
        bounds = np.stack([np.full(count, len(sizes)), guessed_sizes - 1,
                           guessed_sizes, np.full(count, 2)], axis=1).ravel()
        state = rng.bit_generator.state
        draws = rng.integers(0, bounds).reshape(count, 4)
        disagreements = np.flatnonzero(draws[:, 0] != guess)
        kept = int(disagreements[0]) if len(disagreements) else count

        family, first, second, swap = draws[:kept].T
        second = np.where(second == first, sizes[family] - 1, second)
        left = starts[family] + np.where(swap == 0, second, first)
        right = starts[family] + np.where(swap == 0, first, second)
        # One key at a time, in attempt order: the returned list follows the
        # set's iteration order, which depends on the order of insertion.
        keys = zip(members[left].tolist(), members[right].tolist())
        for attempt, key in enumerate(keys):
            chosen.add(key)
            if len(chosen) == hard_target:
                kept = attempt + 1
                break

        if kept < count:
            # Redraw the kept attempts alone, so the stream ends where the
            # loop's does.
            rng.bit_generator.state = state
            rng.integers(0, bounds[:4 * kept])
        attempts += kept


def _sample_negative_keys(
    entities: Sequence[EntityProfile],
    num_negatives: int,
    hard_fraction: float,
    rng: np.random.Generator,
) -> list[tuple[int, int]]:
    """Sample index pairs of *distinct* entities to serve as non-match pairs.

    Hard negatives come first.  Each attempt draws one of the ``F`` families
    with at least two members (``rng.integers(0, F)``) and two of its ``m``
    members (``rng.choice(m, 2, replace=False)``), and adds the ordered pair
    to a set.  Attempts go on until the set holds
    ``round(num_negatives * hard_fraction)`` pairs or
    ``max(20 * num_negatives, 1000)`` attempts are spent.  Most catalogs hold
    fewer within-family pairs than that, so they spend the whole budget.
    Random pairs of any two distinct entities then fill the remainder.

    The attempts are drawn thousands per call, and the result is the list,
    order included, and the generator state that one call per draw gives
    (the oracle ``tests/reference/datasets.py``).  This rests on two facts
    about numpy's ``Generator``:

    (a) ``rng.integers(0, bounds)`` over an integer array draws element by
        element, exactly as scalar calls would (Lemire's bounded method); a
        bound of 1 consumes no random number.
    (b) ``rng.choice(m, 2, replace=False)`` is Floyd's algorithm and a
        shuffle: a draw with bound ``m - 1``, a draw with bound ``m`` that
        becomes ``m - 1`` if it repeats the first, and a draw with bound 2
        that swaps the pair when it is 0.

    So an attempt is the draws ``[F, m - 1, m, 2]``, but ``m`` is known only
    once the family is drawn.  Each pass guesses the families
    (:func:`_guess_families`), draws with the bounds the guess implies, and
    keeps the attempts before the first one whose family draw disagrees with
    the guess.  By induction their bounds, and so their draws, are the
    loop's.  The first attempt always agrees, so every pass makes progress.
    A pass that keeps fewer attempts than it drew, because of a disagreement
    or because it met the target, redraws the kept ones from its start state.
    """
    families: dict[str, list[int]] = {}
    for index, entity in enumerate(entities):
        families.setdefault(entity.family, []).append(index)

    chosen: set[tuple[int, int]] = set()
    hard_target = int(round(num_negatives * hard_fraction))

    # Hard negatives: pairs within a family.
    family_groups = [members for members in families.values() if len(members) >= 2]
    max_attempts = max(20 * num_negatives, 1000)
    if family_groups:
        _add_within_family_keys(chosen, family_groups, hard_target, max_attempts, rng)

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


def build_benchmark(
    spec: BenchmarkSpec,
    scale: ScaleProfile | str | None = None,
    random_state: RandomState = None,
) -> EMDataset:
    """Synthesize an :class:`EMDataset` according to ``spec``.

    Parameters
    ----------
    spec:
        Benchmark specification.
    scale:
        Scale profile (or its name); ``None`` resolves ``REPRO_SCALE``.
    random_state:
        Seed or generator controlling every random choice, so the same seed
        always produces the identical benchmark.
    """
    if isinstance(scale, str) or scale is None:
        scale = get_scale(scale)
    rng = ensure_rng(random_state)
    catalog_rng, left_rng, right_rng, pair_rng, split_rng = spawn_rng(rng, 5)

    # Table 3 sizes refer to the training split; scale the full pair set so the
    # train part of a 3:1:1 (or spec-specific) split has roughly that size.
    train_fraction = spec.split_ratios.fractions()[0]
    target_train_pairs = scaled_size(spec.paper_train_size, scale)
    total_pairs = max(int(round(target_train_pairs / train_fraction)), 50)
    num_positive = max(int(round(total_pairs * spec.positive_rate)), 10)
    num_negative = max(total_pairs - num_positive, 10)

    # Shared entities yield the match pairs; extra entities enrich the pool of
    # potential hard negatives (entities that exist on only one side).
    num_shared = num_positive
    num_extra = max(int(round(num_shared * 0.3)), 10)
    entities = spec.catalog(num_shared + num_extra, catalog_rng)
    if len(entities) < num_shared:
        raise DatasetError(
            f"Catalog generator produced {len(entities)} entities; "
            f"{num_shared} are required"
        )
    shared_entities = entities[:num_shared]

    # Materialize both tables.  Every entity appears in both tables so that
    # within-family negatives can cross tables; only the shared prefix
    # contributes match pairs.
    left_table = Table(f"{spec.name}_left", spec.schema)
    right_table = Table(f"{spec.name}_right", spec.schema)
    numeric_attributes = spec.numeric_attributes
    for index, entity in enumerate(entities):
        left_table.add(_materialize_record(entity, f"l{index}", spec.left_corruption,
                                           left_rng, numeric_attributes))
        right_table.add(_materialize_record(entity, f"r{index}", spec.right_corruption,
                                            right_rng, numeric_attributes))

    # Candidate pairs.
    pairs = PairSet()
    pair_counter = 0
    for index in range(len(shared_entities)):
        pairs.add(CandidatePair(f"{spec.name}_p{pair_counter}", f"l{index}", f"r{index}", 1))
        pair_counter += 1

    negative_keys = _sample_negative_keys(entities, num_negative,
                                          spec.hard_negative_fraction, pair_rng)
    for left_index, right_index in negative_keys:
        pairs.add(CandidatePair(f"{spec.name}_p{pair_counter}",
                                f"l{left_index}", f"r{right_index}", 0))
        pair_counter += 1

    return EMDataset(
        name=spec.name,
        left=left_table,
        right=right_table,
        pairs=pairs,
        attributes=spec.serialized_attributes,
        split_ratios=spec.split_ratios,
        random_state=split_rng,
    )
