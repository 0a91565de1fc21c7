"""Pin the feature matrices of the six benchmarks, not just their oracle.

The featurizer oracle (``tests/reference/featurizer.py``) hashes with the
same ``_stable_hash``, ``tokenize`` and ``qgrams`` as the code it checks, so
a change to one of them moves both sides of every oracle comparison.  These
digests do not move with them: each is the sha256 of
``PairFeaturizer().transform`` over every pair of a benchmark at ``tiny``
scale, seed 7.  The featurizer keys its dicts and sets by token and q-gram
strings, so CI also runs this file under two ``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.datasets.registry import available_benchmarks, load_benchmark
from repro.neural.featurizer import PairFeaturizer

#: ``(rows, columns, sha256 of the float64 bytes)`` of each benchmark's matrix.
#: Every run and result is computed from these features, so regenerate them
#: only for an intended change to the featurizer.
PINNED = {
    "abt_buy": (383, 786, "ff7c97a97580afdf99026daf8a453993582c855bf8f4bcadac6a77fdc87a5d01"),
    "amazon_google": (458, 786, "0466d115cdcb378cf752e09fcb79b7a5714bed31ee8fc37ba7fa7f3a68760c4b"),
    "dblp_scholar": (1148, 792, "8a1dcc7323cce8c1a37fbc1880d702c053cb69adc7c969076b8065cd76f3df22"),
    "walmart_amazon": (410, 798, "33a7811b05544f6aff55c67ef2bd22a3ef85024a90216ccbcfef56d0290aa762"),
    "wdc_cameras": (312, 774, "67cd69b7da423f3899ce6f227bdf7183c664f91745b91d5e0532ecf451bc9743"),
    "wdc_shoes": (312, 774, "b67200609650974dee17b90b7b24df477d7bee1b18d45226259344e571c3e881"),
}


def test_every_benchmark_is_pinned():
    assert set(PINNED) == set(available_benchmarks())


@pytest.mark.parametrize("name", sorted(PINNED))
def test_feature_matrix_is_pinned(name):
    matrix = PairFeaturizer().transform(load_benchmark(name, scale="tiny", random_state=7))
    digest = hashlib.sha256(matrix.tobytes()).hexdigest()
    assert (*matrix.shape, digest) == PINNED[name]
