"""Micro-benchmarks of the batched featurization pipeline.

``PairFeaturizer.transform`` (batched: record dedup + bulk hashing +
similarity features once per unique value pair, the edit measures through
batched kernels) is timed against
``transform_reference`` (the seed-era per-pair loop, the oracle in
``tests/reference/featurizer.py``) on a 2k-pair candidate pool and must
produce a bit-identical matrix.  The measured speedup is reported, not
gated: featurization is most of a run's set-up (``setup_s``) but a small
share of its wall-clock, and ``perfbench/`` tracks both end to end.  The
result is published to ``BENCH_featurizer.json`` at the repository root so
the featurization layer's trajectory stays visible.

The pool mimics what blocking hands the active learner: each record
participates in a handful of candidate pairs (k-NN-style neighborhoods), the
categorical and numeric attributes repeat across records, and roughly one
pair in ten is a match whose two sides describe the same entity.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from reference.featurizer import transform_reference
from repro.data.dataset import EMDataset
from repro.data.pair import CandidatePair, PairSet
from repro.data.record import Record, Table
from repro.data.schema import product_schema
from repro.neural.featurizer import PairFeaturizer

_REPO_ROOT = Path(__file__).resolve().parent.parent
_BENCH_RESULT_PATH = _REPO_ROOT / "BENCH_featurizer.json"
_NUM_PAIRS = 2000
_RECORDS_PER_SIDE = 400

_NOUNS = ("camera", "lens", "printer", "laptop", "monitor", "router",
          "keyboard", "speaker", "tablet", "drive")
_BRANDS = ("canon", "nikon", "sony", "hp", "dell", "asus", "logitech",
           "epson", "lenovo", "apple", "samsung", "lg")
_MODIFIERS = ("pro", "max", "ultra", "mini", "plus", "series", "edition",
              "mk2", "wireless", "compact")


def _title(entity: int, side: int, rng: np.random.Generator) -> str:
    parts = [_BRANDS[entity % len(_BRANDS)], _NOUNS[entity % len(_NOUNS)],
             _MODIFIERS[(entity * 7) % len(_MODIFIERS)], f"model {entity}"]
    if side and rng.random() < 0.5:
        # The right catalog describes the same entity with extra noise words.
        parts.append(_MODIFIERS[int(rng.integers(len(_MODIFIERS)))])
    return " ".join(parts)


def _catalog(name: str, side: int, rng: np.random.Generator) -> Table:
    schema = product_schema()
    table = Table(name, schema)
    for i in range(_RECORDS_PER_SIDE):
        values = {
            "title": _title(i, side, rng),
            "manufacturer": _BRANDS[i % len(_BRANDS)],
            "price": f"{(i % 97) * 3 + 10}.{i % 100:02d}",
        }
        if rng.random() < 0.05:
            del values["manufacturer"]  # occasional missing attribute
        table.add(Record(f"{name}{i}", values, entity_id=f"e{i}"))
    return table


def build_benchmark_pool(num_pairs: int = _NUM_PAIRS, seed: int = 0) -> EMDataset:
    """A 2k-pair candidate pool with blocking-style record reuse."""
    rng = np.random.default_rng(seed)
    left = _catalog("l", 0, rng)
    right = _catalog("r", 1, rng)
    pairs = PairSet()
    seen: set[tuple[int, int]] = set()
    serial = 0
    while len(pairs) < num_pairs:
        left_index = int(rng.integers(_RECORDS_PER_SIDE))
        right_index = (left_index + int(rng.integers(-5, 6))) % _RECORDS_PER_SIDE
        if (left_index, right_index) in seen:
            continue
        seen.add((left_index, right_index))
        pairs.add(CandidatePair(f"p{serial}", f"l{left_index}",
                                f"r{right_index}",
                                int(left_index == right_index)))
        serial += 1
    return EMDataset("featurizer_pool", left, right, pairs, random_state=0)


@pytest.fixture(scope="session")
def featurizer_scaling_2k(bench_settings) -> dict:
    """One timed featurization pass over the 2k-pair pool, both paths.

    Session-scoped: the wall-clock comparison gets exactly one chance to run
    per session (mirrors the substrate scaling fixture).  A fresh featurizer
    is used for every timed call so no instance-level cache leaks between
    measurements; best-of-three on BOTH sides keeps scheduler hiccups on
    shared CI runners from asymmetrically skewing the published speedup.
    """
    config = bench_settings.featurizer_config
    dataset = build_benchmark_pool()
    warmup = build_benchmark_pool(num_pairs=150, seed=1)
    transform_reference(PairFeaturizer(config), warmup)
    PairFeaturizer(config).transform(warmup)

    def time_reference() -> tuple[float, np.ndarray]:
        featurizer = PairFeaturizer(config)
        start = time.perf_counter()
        matrix = transform_reference(featurizer, dataset)
        return time.perf_counter() - start, matrix

    def time_batch() -> tuple[float, np.ndarray]:
        featurizer = PairFeaturizer(config)
        start = time.perf_counter()
        matrix = featurizer.transform(dataset)
        return time.perf_counter() - start, matrix

    reference_seconds, reference_matrix = min(
        (time_reference() for _ in range(3)), key=lambda timed: timed[0])
    batch_seconds, batch_matrix = min(
        (time_batch() for _ in range(3)), key=lambda timed: timed[0])
    return {
        "num_pairs": len(dataset.pairs),
        "num_left_records": len(dataset.left),
        "num_right_records": len(dataset.right),
        "hash_dim": config.hash_dim,
        "reference_seconds": reference_seconds,
        "batch_seconds": batch_seconds,
        "speedup": reference_seconds / batch_seconds,
        "identical": bool(np.array_equal(reference_matrix, batch_matrix)),
        "feature_dim": int(batch_matrix.shape[1]),
    }


def test_bench_batch_featurization_bit_identical(featurizer_scaling_2k):
    """The batched pipeline must reproduce the reference matrix bit for bit."""
    assert featurizer_scaling_2k["identical"]


def test_bench_batch_featurization_speedup_2k(featurizer_scaling_2k, bench_settings):
    """Report the batched-over-reference speedup (not gated).

    Emits ``BENCH_featurizer.json`` at the repo root — the machine-readable
    record of the measured speedup (see the README's Performance section for
    the field semantics).
    """
    measured = featurizer_scaling_2k
    payload = {
        "benchmark": "featurizer_batch_vs_reference",
        "scale": bench_settings.scale.name,
        **{key: measured[key] for key in (
            "num_pairs", "num_left_records", "num_right_records", "hash_dim",
            "feature_dim", "reference_seconds", "batch_seconds", "speedup",
            "identical")},
    }
    _BENCH_RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n",
                                  encoding="utf-8")
    print(f"\nfeaturizer 2k pairs: reference {measured['reference_seconds']:.3f}s, "
          f"batch {measured['batch_seconds']:.3f}s, "
          f"speedup {measured['speedup']:.1f}x "
          f"[result written to {_BENCH_RESULT_PATH}]")


def test_bench_batch_transform(benchmark, bench_settings):
    """Absolute timing of the batched path on the 2k-pair pool."""
    dataset = build_benchmark_pool()
    featurizer = PairFeaturizer(bench_settings.featurizer_config)
    matrix = benchmark.pedantic(featurizer.transform, args=(dataset,),
                                rounds=2, iterations=1)
    assert matrix.shape[0] == len(dataset.pairs)
