"""Micro-benchmarks of the batched blocking pipeline.

``MinHashLSHBlocker.block`` (batched: bulk tokenization + one
signature-matrix pass + array banding + sort-based candidate dedup) is timed
against ``block_reference`` (the seed-era per-record signature loop over
dict-of-tuples band buckets) on a blocking-scale pool and must produce the
exact same candidate set.  The measured speedup is reported, not gated:
blocking is on no active-learning run path.  The result is published to
``BENCH_blocking.json`` at the repository root so the blocking layer's
trajectory stays visible.

The pool is a duplicate-heavy templated catalog: 6k records per side in
groups of 15 sharing one title template (brands, nouns, and modifiers are
combinatorially distinct across groups, so candidates are exactly the
within-group cross products).  That is the regime blocking at scale must
survive — heavy value repetition rewards the batched path's memoized
extraction and record dedup, while the per-record reference path pays the
full tokenize/hash/permute cost for every copy.
"""

from __future__ import annotations

import gc
import json
import time
from pathlib import Path

import pytest

from repro.blocking.minhash_lsh import MinHashLSHBlocker
from repro.data.record import Record, Table
from repro.data.schema import Attribute, AttributeType, Schema

_REPO_ROOT = Path(__file__).resolve().parent.parent
_BENCH_RESULT_PATH = _REPO_ROOT / "BENCH_blocking.json"
_RECORDS_PER_SIDE = 6000
_NUM_GROUPS = 400
_NUM_PERMUTATIONS = 128
_NUM_BANDS = 16

_BRANDS = ("canon", "nikon", "sony", "hp", "dell", "asus", "logitech",
           "epson", "lenovo", "apple", "samsung", "lg")
_NOUNS = ("camera", "lens", "printer", "laptop", "monitor", "router",
          "keyboard", "speaker", "tablet", "drive")
_MODIFIERS = ("pro", "max", "ultra", "mini", "plus", "series", "edition",
              "mk2", "wireless", "compact")


def _title(group: int) -> str:
    # Each group's (brand, noun, modifier) triple is distinct, and the
    # model/sku/gen tokens are group-unique, so records from different
    # groups never share enough tokens to collide in a band.
    return " ".join((
        _BRANDS[group % len(_BRANDS)],
        _NOUNS[(group // 12) % len(_NOUNS)],
        _MODIFIERS[(group // 120) % len(_MODIFIERS)],
        f"model{group}",
        f"sku{group * 37 % 99991}",
        f"gen{group * 13 % 9973}",
    ))


def _catalog(name: str, num_records: int = _RECORDS_PER_SIDE,
             num_groups: int = _NUM_GROUPS) -> Table:
    schema = Schema(attributes=(Attribute("title", AttributeType.TEXT),),
                    name=name)
    table = Table(name, schema)
    for i in range(num_records):
        table.add(Record(record_id=f"{name}{i}",
                         values={"title": _title(i % num_groups)}))
    return table


def _make_blocker() -> MinHashLSHBlocker:
    return MinHashLSHBlocker(num_permutations=_NUM_PERMUTATIONS,
                             num_bands=_NUM_BANDS, random_state=0)


def _timed(method: str, left: Table, right: Table) -> tuple[float, set]:
    """One gc-quiesced timed call on a fresh blocker (no state leaks)."""
    blocker = _make_blocker()
    bound = getattr(blocker, method)
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        pairs = bound(left, right)
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    return elapsed, pairs


@pytest.fixture(scope="session")
def blocking_scaling_6k() -> dict:
    """One timed blocking pass over the 6k-per-side pool, both paths.

    Session-scoped: the wall-clock comparison gets exactly one chance to run
    per session (mirrors the featurizer scaling fixture).  Best-of-three on
    BOTH sides keeps scheduler hiccups on shared CI runners from
    asymmetrically skewing the published speedup.
    """
    left = _catalog("l")
    right = _catalog("r")
    warmup_left = _catalog("wl", num_records=200, num_groups=20)
    warmup_right = _catalog("wr", num_records=200, num_groups=20)
    _make_blocker().block_reference(warmup_left, warmup_right)
    _make_blocker().block(warmup_left, warmup_right)

    reference_seconds, reference_pairs = min(
        (_timed("block_reference", left, right) for _ in range(3)),
        key=lambda timed: timed[0])
    batch_seconds, batch_pairs = min(
        (_timed("block", left, right) for _ in range(3)),
        key=lambda timed: timed[0])
    return {
        "num_left_records": len(left),
        "num_right_records": len(right),
        "num_permutations": _NUM_PERMUTATIONS,
        "num_bands": _NUM_BANDS,
        "reference_seconds": reference_seconds,
        "batch_seconds": batch_seconds,
        "speedup": reference_seconds / batch_seconds,
        "identical": reference_pairs == batch_pairs,
        "num_candidates": len(batch_pairs),
    }


def test_bench_batched_blocking_identical_candidates(blocking_scaling_6k):
    """The batched path must emit exactly the reference candidate set."""
    assert blocking_scaling_6k["identical"]
    assert blocking_scaling_6k["num_candidates"] > 0


def test_bench_batched_blocking_speedup_6k(blocking_scaling_6k):
    """Report the batched-over-reference speedup (not gated).

    Emits ``BENCH_blocking.json`` at the repo root — the machine-readable
    record of the measured speedup (see the README's "Blocking at scale"
    section for the field semantics).
    """
    measured = blocking_scaling_6k
    payload = {
        "benchmark": "blocking_batch_vs_reference",
        **{key: measured[key] for key in (
            "num_left_records", "num_right_records", "num_permutations",
            "num_bands", "reference_seconds", "batch_seconds", "speedup",
            "identical", "num_candidates")},
    }
    _BENCH_RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n",
                                  encoding="utf-8")
    print(f"\nblocking 6k/side: reference {measured['reference_seconds']:.3f}s, "
          f"batch {measured['batch_seconds']:.3f}s, "
          f"speedup {measured['speedup']:.1f}x "
          f"[result written to {_BENCH_RESULT_PATH}]")


def test_bench_batched_block(benchmark):
    """Absolute timing of the batched path on the 6k-per-side pool."""
    left = _catalog("l")
    right = _catalog("r")
    blocker = _make_blocker()
    pairs = benchmark.pedantic(blocker.block, args=(left, right),
                               rounds=2, iterations=1)
    assert len(pairs) > 0


def test_bench_streamed_block_iter(benchmark):
    """Absolute timing of the streaming path (chunked candidate emission)."""
    left = _catalog("l")
    right = _catalog("r")
    blocker = _make_blocker()

    def stream() -> int:
        return sum(len(chunk)
                   for chunk in blocker.block_iter(left, right,
                                                   chunk_size=10_000))

    total = benchmark.pedantic(stream, rounds=2, iterations=1)
    assert total > 0
