"""Tests for token blocking and its quality report."""

import pytest

from repro.blocking.evaluation import evaluate_blocking
from repro.blocking.token_blocking import TokenBlocker
from repro.data.pair import CandidatePair, PairSet
from repro.data.record import Record, Table
from repro.data.schema import Schema


@pytest.fixture()
def tables():
    schema = Schema.from_names(["title"])
    left = Table("left", schema)
    right = Table("right", schema)
    titles = [
        ("l0", "canon eos rebel t7i camera"),
        ("l1", "nikon coolpix p900 camera"),
        ("l2", "nike air max running shoe"),
    ]
    for record_id, title in titles:
        left.add(Record(record_id, {"title": title}, entity_id=record_id))
    matches = [
        ("r0", "canon eos rebel t7i dslr"),
        ("r1", "nikon coolpix p900 zoom"),
        ("r2", "nike air max 270 shoe"),
    ]
    for record_id, title in matches:
        right.add(Record(record_id, {"title": title}, entity_id=record_id))
    gold = PairSet([
        CandidatePair("p0", "l0", "r0", 1),
        CandidatePair("p1", "l1", "r1", 1),
        CandidatePair("p2", "l2", "r2", 1),
        CandidatePair("p3", "l0", "r1", 0),
    ])
    return left, right, gold


class TestTokenBlocker:
    def test_recalls_all_matches(self, tables):
        left, right, gold = tables
        candidates = TokenBlocker().block(left, right)
        report = evaluate_blocking(candidates, gold, left, right)
        assert report.pair_completeness == 1.0

    def test_does_not_pair_unrelated_records(self, tables):
        left, right, _ = tables
        candidates = TokenBlocker().block(left, right)
        assert ("l2", "r0") not in candidates

    def test_stop_tokens_pruned(self, tables):
        left, right, _ = tables
        # With max_block_size=1, the shared token "camera" (2 left records)
        # no longer produces candidates.
        small = TokenBlocker(max_block_size=1).block(left, right)
        large = TokenBlocker(max_block_size=100).block(left, right)
        assert len(small) <= len(large)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TokenBlocker(max_block_size=0)
        with pytest.raises(ValueError):
            TokenBlocker(min_token_length=0)


class TestBatchedEquivalence:
    def test_token_blocker_matches_reference(self, tables):
        left, right, _ = tables
        for max_block_size in (1, 2, 100):
            blocker = TokenBlocker(max_block_size=max_block_size)
            assert blocker.block(left, right) == \
                blocker.block_reference(left, right)


class TestBlockingReport:
    def test_reduction_ratio(self, tables):
        left, right, gold = tables
        report = evaluate_blocking({("l0", "r0")}, gold, left, right)
        assert report.reduction_ratio == pytest.approx(1.0 - 1.0 / 9.0)
        assert report.num_candidates == 1
        assert report.num_true_matches == 3
        assert report.num_recalled_matches == 1
