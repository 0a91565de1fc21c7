"""Batch featurization must be bit-identical to the per-pair reference path.

The batched :meth:`PairFeaturizer.transform` deduplicates records, hashes
each unique feature string once, and caches similarity features per unique
value pair — none of which may change a single bit of the output relative to
the per-pair loop ``reference.featurizer.transform_reference``.  The
hypothesis suite drives the comparison across the edge cases that exercise
every cache level: empty values, missing attributes, numeric attributes
(including non-numeric strings hitting the levenshtein fallback), duplicated
records, and values longer than the edit-distance cutoff.  A ``tracemalloc``
bound checks that the output is the only matrix-sized array it allocates.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference.featurizer import transform_reference
from repro.config import get_scale
from repro.data.dataset import EMDataset
from repro.data.pair import CandidatePair, PairSet
from repro.data.record import Record, Table
from repro.data.schema import Attribute, AttributeType, Schema
from repro.datasets.registry import load_benchmark
from repro.neural.featurizer import FeaturizerConfig, PairFeaturizer

_SCHEMA = Schema(
    attributes=(
        Attribute("title", AttributeType.TEXT),
        Attribute("brand", AttributeType.CATEGORICAL),
        Attribute("price", AttributeType.NUMERIC),
    ),
    name="batch_test",
)

# A small pool of deliberately nasty values: empty, whitespace-only,
# punctuation-only (tokenizes to nothing), numeric with separators,
# non-numeric in a numeric slot, and a value past the 48-char edit cutoff.
_VALUES = (
    "", "   ", "##!!", "canon eos rebel", "canon  eos\trebel", "CANON eos",
    "12,399.50", "12399.5", "0", "-3.5", "n/a", "unknown",
    "a very long product title that certainly exceeds the "
    "forty-eight character edit distance cutoff by a lot",
)

_value = st.sampled_from(_VALUES)
_maybe_missing_record = st.fixed_dictionaries(
    {},
    optional={"title": _value, "brand": _value, "price": _value},
)


def _build_dataset(left_values: list[dict], right_values: list[dict],
                   pair_indices: list[tuple[int, int]]) -> EMDataset:
    left = Table("left", _SCHEMA, (
        Record(f"l{i}", values) for i, values in enumerate(left_values)))
    right = Table("right", _SCHEMA, (
        Record(f"r{i}", values) for i, values in enumerate(right_values)))
    pairs = PairSet()
    for serial, (li, ri) in enumerate(pair_indices):
        pairs.add(CandidatePair(f"p{serial}", f"l{li}", f"r{ri}",
                                label=serial % 2))
    return EMDataset("batch_test", left, right, pairs, random_state=0)


@st.composite
def _datasets(draw):
    # Few records + more pairs than records ⇒ heavy record reuse; drawing
    # records from a small value pool ⇒ duplicated records across ids.
    left_values = draw(st.lists(_maybe_missing_record, min_size=2, max_size=5))
    right_values = draw(st.lists(_maybe_missing_record, min_size=2, max_size=5))
    max_pairs = len(left_values) * len(right_values)
    keys = draw(st.lists(
        st.tuples(st.integers(0, len(left_values) - 1),
                  st.integers(0, len(right_values) - 1)),
        min_size=2, max_size=min(8, max_pairs), unique=True))
    return _build_dataset(left_values, right_values, keys)


@settings(max_examples=40, deadline=None)
@given(dataset=_datasets())
def test_property_batch_equals_reference(dataset):
    featurizer = PairFeaturizer(FeaturizerConfig(hash_dim=32))
    reference = transform_reference(featurizer, dataset)
    batch = featurizer.transform(dataset)
    assert reference.dtype == batch.dtype
    assert np.array_equal(reference, batch)


@settings(max_examples=15, deadline=None)
@given(dataset=_datasets(), data=st.data())
def test_property_batch_equals_reference_on_subsets(dataset, data):
    indices = data.draw(st.lists(
        st.integers(0, len(dataset.pairs) - 1), min_size=0, max_size=10))
    featurizer = PairFeaturizer(FeaturizerConfig(hash_dim=16))
    assert np.array_equal(transform_reference(featurizer, dataset, indices),
                          featurizer.transform(dataset, indices))


@pytest.mark.parametrize("config", [
    FeaturizerConfig(hash_dim=24),
    FeaturizerConfig(hash_dim=24, include_raw=False),
    FeaturizerConfig(hash_dim=24, include_interactions=False),
    FeaturizerConfig(hash_dim=24, include_similarities=False),
    FeaturizerConfig(hash_dim=24, include_raw=False, include_interactions=False),
    FeaturizerConfig(hash_dim=24, include_raw=False, include_similarities=False),
    FeaturizerConfig(hash_dim=24, qgram_size=2),
])
def test_every_feature_family_combination_is_identical(config):
    dataset = _build_dataset(
        [{"title": "canon eos", "brand": "canon", "price": "100"},
         {"title": "", "price": "not a number"},
         {"title": "canon eos", "brand": "canon", "price": "100"}],
        [{"title": "canon eos rebel", "brand": "canon", "price": "99.9"},
         {"brand": "  ", "price": ""}],
        [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)])
    featurizer = PairFeaturizer(config)
    reference = transform_reference(featurizer, dataset)
    batch = featurizer.transform(dataset)
    assert np.array_equal(reference, batch)
    assert batch.shape == (6, featurizer.feature_dim(dataset))


def test_duplicated_records_collapse_to_one_hashing_row(tiny_dataset):
    """Batch output is identical no matter how indices repeat or reorder."""
    featurizer = PairFeaturizer(FeaturizerConfig(hash_dim=48))
    indices = [3, 1, 1, 3, 0]
    assert np.array_equal(featurizer.transform(tiny_dataset, indices),
                          transform_reference(featurizer, tiny_dataset, indices))


def test_empty_index_list_keeps_feature_dim(tiny_dataset):
    featurizer = PairFeaturizer(FeaturizerConfig(hash_dim=48))
    batch = featurizer.transform(tiny_dataset, [])
    assert batch.shape == (0, featurizer.feature_dim(tiny_dataset))


def test_serialization_attribute_subset_respected(tiny_dataset):
    """The batch path honours dataset.attributes like the reference."""
    featurizer = PairFeaturizer(FeaturizerConfig(hash_dim=32))
    title_only = EMDataset(tiny_dataset.name, tiny_dataset.left, tiny_dataset.right,
                           tiny_dataset.pairs, split=tiny_dataset.split,
                           attributes=("title",))
    for dataset in (tiny_dataset, title_only):
        assert np.array_equal(transform_reference(featurizer, dataset),
                              featurizer.transform(dataset))
    dropped = len(tiny_dataset.attributes) - 1
    assert dropped > 0
    assert (featurizer.feature_dim(tiny_dataset) - featurizer.feature_dim(title_only)
            == PairFeaturizer.SIMILARITIES_PER_ATTRIBUTE * dropped)


def test_transform_allocates_one_output_matrix():
    """The feature families are written into one preallocated matrix.

    Building each family as its own block and concatenating them peaked at
    2.12x the output's bytes on this dataset; the bound leaves room for the
    per-record hashing matrix, ``np.take``'s block-sized buffer and the
    similarity caches, but not for a second matrix-sized array.
    """
    dataset = load_benchmark("amazon_google", scale=get_scale("small"),
                             random_state=7)
    featurizer = PairFeaturizer()
    tracemalloc.start()
    try:
        matrix = featurizer.transform(dataset)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.75 * matrix.nbytes
