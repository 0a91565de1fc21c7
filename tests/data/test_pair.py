"""Tests for repro.data.pair."""

import numpy as np
import pytest

from repro.data.pair import MATCH, NON_MATCH, CandidatePair, PairSet
from repro.exceptions import DatasetError


class TestCandidatePair:
    def test_key(self):
        pair = CandidatePair("p1", "l1", "r1", MATCH)
        assert pair.key == ("l1", "r1")

    def test_rejects_invalid_label(self):
        with pytest.raises(DatasetError):
            CandidatePair("p1", "l1", "r1", label=2)

    def test_rejects_empty_pair_id(self):
        with pytest.raises(DatasetError):
            CandidatePair("", "l1", "r1")


@pytest.fixture()
def pairs() -> PairSet:
    return PairSet([
        CandidatePair("p0", "l0", "r0", MATCH),
        CandidatePair("p1", "l1", "r1", NON_MATCH),
        CandidatePair("p2", "l2", "r2", NON_MATCH),
        CandidatePair("p3", "l3", "r3"),
    ])


class TestPairSet:
    def test_len_and_iteration(self, pairs):
        assert len(pairs) == 4
        assert [p.pair_id for p in pairs] == ["p0", "p1", "p2", "p3"]

    def test_positional_and_id_access(self, pairs):
        assert pairs[1].pair_id == "p1"
        assert pairs[2].key == ("l2", "r2")
        assert "p3" in pairs
        assert "missing" not in pairs

    def test_duplicate_id_rejected(self, pairs):
        with pytest.raises(DatasetError):
            pairs.add(CandidatePair("p0", "x", "y"))

    def test_duplicate_key_rejected(self, pairs):
        with pytest.raises(DatasetError):
            pairs.add(CandidatePair("p9", "l0", "r0"))

    def test_labels_array(self, pairs):
        labels = pairs.labels()
        assert labels.dtype == np.int64
        assert list(labels) == [1, 0, 0, -1]

    def test_labels_custom_missing(self, pairs):
        assert list(pairs.labels(missing=9)) == [1, 0, 0, 9]

    def test_positive_rate(self, pairs):
        assert pairs.positive_rate() == pytest.approx(1.0 / 3.0)

    def test_positive_rate_no_labels(self):
        unlabeled = PairSet([CandidatePair("p0", "a", "b")])
        assert unlabeled.positive_rate() == 0.0
