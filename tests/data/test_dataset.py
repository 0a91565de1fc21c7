"""Tests for repro.data.dataset (EMDataset)."""

import numpy as np
import pytest

from repro.data.dataset import EMDataset
from repro.data.pair import CandidatePair, PairSet
from repro.data.record import Record, Table
from repro.data.schema import Schema
from repro.exceptions import DatasetError


@pytest.fixture()
def small_dataset() -> EMDataset:
    schema = Schema.from_names(["title"])
    left = Table("left", schema)
    right = Table("right", schema)
    pairs = PairSet()
    for i in range(30):
        left.add(Record(f"l{i}", {"title": f"product {i}"}, entity_id=f"e{i}"))
        right.add(Record(f"r{i}", {"title": f"product {i} deluxe"}, entity_id=f"e{i}"))
        label = 1 if i < 10 else 0
        pairs.add(CandidatePair(f"p{i}", f"l{i}", f"r{i}", label))
    return EMDataset("toy", left, right, pairs, random_state=0)


class TestEMDatasetConstruction:
    def test_requires_pairs(self):
        schema = Schema.from_names(["title"])
        left, right = Table("left", schema), Table("right", schema)
        with pytest.raises(DatasetError):
            EMDataset("empty", left, right, PairSet())

    def test_rejects_dangling_left_reference(self):
        schema = Schema.from_names(["title"])
        left, right = Table("left", schema), Table("right", schema)
        right.add(Record("r0", {"title": "x"}))
        pairs = PairSet([CandidatePair("p0", "missing", "r0", 1)])
        with pytest.raises(DatasetError):
            EMDataset("bad", left, right, pairs)

    def test_rejects_dangling_right_reference(self):
        schema = Schema.from_names(["title"])
        left, right = Table("left", schema), Table("right", schema)
        left.add(Record("l0", {"title": "x"}))
        pairs = PairSet([CandidatePair("p0", "l0", "missing", 1)])
        with pytest.raises(DatasetError):
            EMDataset("bad", left, right, pairs)

    def test_rejects_empty_name(self, small_dataset):
        with pytest.raises(DatasetError):
            EMDataset("", small_dataset.left, small_dataset.right, small_dataset.pairs)


class TestEMDatasetAccess:
    def test_records_for(self, small_dataset):
        pair = small_dataset.pairs[0]
        left, right = small_dataset.records_for(pair)
        assert left.record_id == pair.left_id
        assert right.record_id == pair.right_id

    def test_labels_full_and_subset(self, small_dataset):
        labels = small_dataset.labels()
        assert labels.sum() == 10
        subset = small_dataset.labels([0, 1, 29])
        assert list(subset) == [1, 1, 0]

    def test_split_covers_everything(self, small_dataset):
        split = small_dataset.split
        combined = np.concatenate([split.train, split.validation, split.test])
        assert sorted(combined.tolist()) == list(range(30))

    def test_statistics(self, small_dataset):
        stats = small_dataset.statistics()
        assert stats.name == "toy"
        assert stats.num_pairs == 30
        assert stats.num_attributes == 1
        assert 0.0 < stats.positive_rate < 1.0

    def test_statistics_respects_serialization_attributes(self):
        """``attributes`` defaults to the left schema and can restrict it."""
        schema = Schema.from_names(["title", "brand"])
        left = Table("left", schema, [Record("l0", {"title": "tv", "brand": "lg"})])
        right = Table("right", schema, [Record("r0", {"title": "tv", "brand": "lg"})])
        pairs = PairSet([CandidatePair("p0", "l0", "r0", 1)])
        every = EMDataset("every", left, right, pairs, random_state=0)
        title_only = EMDataset("title_only", left, right, pairs,
                               attributes=["title"], random_state=0)
        assert every.attributes == ("title", "brand")
        assert every.statistics().num_attributes == 2
        assert title_only.attributes == ("title",)
        assert title_only.statistics().num_attributes == 1
