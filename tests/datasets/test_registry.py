"""Tests for the benchmark registry and the benchmark builder."""

from collections import Counter

import numpy as np
import pytest

from repro.config import get_scale
from repro.data.pair import MATCH
from repro.datasets import base
from repro.datasets.base import BenchmarkSpec, build_benchmark
from repro.datasets.registry import (
    PAPER_STATISTICS,
    available_benchmarks,
    benchmark_spec,
    load_benchmark,
)
from repro.exceptions import DatasetError


def _pair_values(dataset, indices):
    """Both sides' raw record values for the pairs at ``indices``."""
    return [tuple(record.values for record in dataset.records_for(dataset.pairs[i]))
            for i in indices]


class TestRegistry:
    def test_all_six_paper_benchmarks_available(self):
        assert set(available_benchmarks()) == set(PAPER_STATISTICS)
        assert len(available_benchmarks()) == 6

    def test_spec_lookup_normalizes_names(self):
        assert benchmark_spec("Amazon-Google").name == "amazon_google"

    def test_unknown_benchmark_raises(self):
        with pytest.raises(DatasetError):
            benchmark_spec("imaginary")
        with pytest.raises(DatasetError):
            load_benchmark("imaginary")

    def test_paper_statistics_match_table3(self):
        assert PAPER_STATISTICS["walmart_amazon"].train_size == 6144
        assert PAPER_STATISTICS["amazon_google"].positive_rate == pytest.approx(0.102)
        assert PAPER_STATISTICS["dblp_scholar"].num_attributes == 4
        assert PAPER_STATISTICS["wdc_cameras"].train_size == 4081


class TestBuildBenchmark:
    def test_positive_rate_close_to_paper(self, tiny_dataset):
        stats = tiny_dataset.statistics()
        paper = PAPER_STATISTICS["amazon_google"]
        assert stats.positive_rate == pytest.approx(paper.positive_rate, abs=0.03)

    def test_train_size_scales_with_profile(self):
        scale = get_scale("tiny")
        dataset = load_benchmark("wdc_shoes", scale=scale, random_state=3)
        expected = PAPER_STATISTICS["wdc_shoes"].train_size * scale.size_factor
        assert dataset.statistics().num_train_pairs == pytest.approx(expected, rel=0.4)

    def test_match_pairs_share_entity_ids(self, tiny_dataset):
        for pair in tiny_dataset.pairs:
            left, right = tiny_dataset.records_for(pair)
            if pair.label == MATCH:
                assert left.entity_id == right.entity_id
            else:
                assert left.entity_id != right.entity_id

    def test_deterministic_given_seed(self):
        first = load_benchmark("wdc_cameras", scale="tiny", random_state=21)
        second = load_benchmark("wdc_cameras", scale="tiny", random_state=21)
        assert list(first.pairs) == list(second.pairs)
        assert list(first.labels()) == list(second.labels())
        assert _pair_values(first, [0]) == _pair_values(second, [0])

    def test_different_seeds_produce_different_data(self):
        first = load_benchmark("wdc_cameras", scale="tiny", random_state=1)
        second = load_benchmark("wdc_cameras", scale="tiny", random_state=2)
        assert _pair_values(first, [0]) != _pair_values(second, [0])

    def test_wdc_serialization_restricted_to_title(self):
        dataset = load_benchmark("wdc_cameras", scale="tiny", random_state=5)
        assert dataset.attributes == ("title",)
        assert dataset.statistics().num_attributes == 1

    def test_invalid_positive_rate_rejected(self):
        spec = benchmark_spec("amazon_google")
        with pytest.raises(DatasetError):
            BenchmarkSpec(
                name=spec.name, schema=spec.schema, catalog=spec.catalog,
                paper_train_size=spec.paper_train_size, positive_rate=1.5,
                left_corruption=spec.left_corruption,
                right_corruption=spec.right_corruption,
            )

    def test_build_benchmark_accepts_scale_name(self):
        spec = benchmark_spec("wdc_shoes")
        dataset = build_benchmark(spec, scale="tiny", random_state=0)
        assert len(dataset.pairs) > 0

    def test_dblp_scholar_has_four_attributes(self):
        dataset = load_benchmark("dblp_scholar", scale="tiny", random_state=1)
        assert dataset.statistics().num_attributes == 4

    def test_hard_negatives_share_vocabulary(self):
        """Non-match pairs drawn within families should overlap lexically."""
        dataset = load_benchmark("wdc_cameras", scale="tiny", random_state=13)
        overlaps = []
        for pair in dataset.pairs:
            if pair.label == MATCH:
                continue
            left, right = dataset.records_for(pair)
            left_tokens = set(left.value("title").split())
            right_tokens = set(right.value("title").split())
            if left_tokens and right_tokens:
                overlaps.append(len(left_tokens & right_tokens) > 0)
        assert np.mean(overlaps) > 0.3

    # A known generator defect, kept visible: this fails loudly (XPASS) once
    # the catalogs can supply their hard negatives.
    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "the catalogs' families hold fewer distinct within-family pairs than "
        "round(hard_negative_fraction * negatives); calibrating the generator "
        "is ROADMAP item 2"))
    @pytest.mark.parametrize("name", available_benchmarks())
    def test_catalog_supplies_the_hard_negative_target(self, name, monkeypatch):
        calls = []
        sample = base._sample_negative_keys

        def recording_sample(entities, num_negatives, hard_fraction, rng):
            calls.append((entities, num_negatives, hard_fraction))
            return sample(entities, num_negatives, hard_fraction, rng)

        monkeypatch.setattr(base, "_sample_negative_keys", recording_sample)
        load_benchmark(name, scale="tiny", random_state=0)
        [(entities, num_negatives, hard_fraction)] = calls
        # The sampler draws ordered pairs of distinct members of one family.
        family_sizes = Counter(entity.family for entity in entities).values()
        supply = sum(size * (size - 1) for size in family_sizes)
        assert supply >= int(round(num_negatives * hard_fraction))
