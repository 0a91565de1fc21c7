"""Tests for repro.data.splits."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.pair import CandidatePair, PairSet
from repro.data.splits import DatasetSplit, SplitRatios, stratified_split
from repro.exceptions import DatasetError


def _make_pairs(num_positive: int, num_negative: int) -> PairSet:
    labels = [1] * num_positive + [0] * num_negative
    return PairSet(CandidatePair(f"p{i}", f"l{i}", f"r{i}", label)
                   for i, label in enumerate(labels))


class TestSplitRatios:
    def test_fractions_sum_to_one(self):
        ratios = SplitRatios(3, 1, 1)
        assert sum(ratios.fractions()) == pytest.approx(1.0)

    def test_default_is_three_one_one(self):
        ratios = SplitRatios()
        assert ratios.fractions() == pytest.approx((0.6, 0.2, 0.2))

    def test_negative_ratio_rejected(self):
        with pytest.raises(DatasetError):
            SplitRatios(train=-1.0)

    def test_zero_train_rejected(self):
        with pytest.raises(DatasetError):
            SplitRatios(train=0.0)


class TestDatasetSplit:
    def test_overlapping_parts_rejected(self):
        with pytest.raises(DatasetError):
            DatasetSplit(train=np.array([0, 1]), validation=np.array([1]),
                         test=np.array([2]))


class TestStratifiedSplit:
    def test_partition_is_disjoint_and_complete(self):
        pairs = _make_pairs(20, 80)
        split = stratified_split(pairs, random_state=0)
        everything = np.concatenate([split.train, split.validation, split.test])
        assert sorted(everything.tolist()) == list(range(100))

    def test_ratios_respected(self):
        pairs = _make_pairs(50, 200)
        split = stratified_split(pairs, SplitRatios(3, 1, 1), random_state=0)
        assert len(split.train) == pytest.approx(150, abs=3)
        assert len(split.validation) == pytest.approx(50, abs=3)
        assert len(split.test) == pytest.approx(50, abs=3)

    def test_stratification_preserves_positive_rate(self):
        pairs = _make_pairs(30, 270)
        split = stratified_split(pairs, random_state=1)
        labels = pairs.labels()
        overall = labels.mean()
        for part in (split.train, split.validation, split.test):
            assert labels[part].mean() == pytest.approx(overall, abs=0.05)

    def test_unlabeled_pairs_rejected(self):
        pairs = PairSet([CandidatePair("p0", "l0", "r0", 1),
                         CandidatePair("pX", "lx", "rx", None)])
        with pytest.raises(DatasetError):
            stratified_split(pairs)

    def test_deterministic_given_seed(self):
        pairs = _make_pairs(10, 40)
        split_a = stratified_split(pairs, random_state=42)
        split_b = stratified_split(pairs, random_state=42)
        assert np.array_equal(split_a.train, split_b.train)
        assert np.array_equal(split_a.test, split_b.test)

    def test_different_seeds_differ(self):
        pairs = _make_pairs(10, 90)
        split_a = stratified_split(pairs, random_state=1)
        split_b = stratified_split(pairs, random_state=2)
        assert not np.array_equal(split_a.train, split_b.train)

    @settings(max_examples=25, deadline=None)
    @given(num_positive=st.integers(min_value=5, max_value=40),
           num_negative=st.integers(min_value=5, max_value=120))
    def test_property_partition_always_complete(self, num_positive, num_negative):
        pairs = _make_pairs(num_positive, num_negative)
        split = stratified_split(pairs, random_state=3)
        total = num_positive + num_negative
        everything = np.concatenate([split.train, split.validation, split.test])
        assert len(everything) == total
        assert len(np.unique(everything)) == total
