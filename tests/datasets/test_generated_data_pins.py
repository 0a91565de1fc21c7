"""Pin the generated benchmarks themselves, not just their spec fingerprints.

``benchmark_fingerprint`` hashes what *shapes* a benchmark; these digests
hash what comes out: every pair's id, key and label, every record's id,
values and entity id, and the split indices, for each of the six benchmarks
at ``tiny`` scale, seed 7.  A change to the data model or the generators
that alters a single generated string or index fails here.  Only strings and
integers are digested (no floats, no feature matrices), so the values do not
depend on the platform's floating-point behaviour.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.datasets.registry import available_benchmarks, load_benchmark

#: ``(pairs, records, split)`` digests.  Every run and result depends on this
#: data, so regenerate them only for an intended change to the generators.
PINNED = {
    "abt_buy": ("44134a366f7f9302", "428503f53b91c468", "0c1220112a51b6fd"),
    "amazon_google": ("471dc34ff9e0a3e3", "9bb53929d66d1f03", "17a6eef27d3ebe88"),
    "dblp_scholar": ("674437bf2507371e", "db452fe110b134c4", "661d4b10f0cf3e0d"),
    "walmart_amazon": ("60677720ccff6bdf", "f11253144306ca6e", "526daea8d62c5fad"),
    "wdc_cameras": ("8d02b6b7c6505792", "410e40fe7b4e5fc7", "2957c7d3c64f9012"),
    "wdc_shoes": ("7ec885f1d53cdc2d", "9889b90d541c9ba3", "257ba4638c64de5b"),
}


def _digest(payload: object) -> str:
    text = json.dumps(payload, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def generated_digests(name: str) -> tuple[str, str, str]:
    dataset = load_benchmark(name, scale="tiny", random_state=7)
    pairs = [[pair.pair_id, pair.left_id, pair.right_id, pair.label]
             for pair in dataset.pairs]
    records = [[[record.record_id, sorted(record.values.items()), record.entity_id]
                for record in table]
               for table in (dataset.left, dataset.right)]
    split = [part.tolist() for part in
             (dataset.split.train, dataset.split.validation, dataset.split.test)]
    return _digest(pairs), _digest(records), _digest(split)


def test_every_benchmark_is_pinned():
    assert sorted(PINNED) == sorted(available_benchmarks())


@pytest.mark.parametrize("name", sorted(PINNED))
def test_generated_data_is_pinned(name):
    assert generated_digests(name) == PINNED[name]
