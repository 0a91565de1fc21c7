"""Micro-benchmarks of the substrates (runtime discussion of Section 5.2).

These are the components whose cost dominates a battleship iteration:
featurization, matcher training, K-Means, and graph construction + PageRank
(whose exact cosine top-k search stands in for the paper's FAISS index).
pytest-benchmark reports their individual timings, which backs the Figure 6
runtime discussion.
"""

import numpy as np
import pytest

from repro.clustering.constrained import ConstrainedKMeans, SizeConstraints
from repro.experiments.engine import get_dataset
from repro.graphs.sparse import build_sparse_adjacency, pagerank_components
from repro.neural.featurizer import PairFeaturizer
from repro.neural.matcher import NeuralMatcher


@pytest.fixture(scope="module")
def representation_cloud():
    rng = np.random.default_rng(0)
    return rng.normal(size=(600, 128))


def test_bench_featurization(benchmark, bench_settings):
    dataset = get_dataset("amazon_google", bench_settings)
    featurizer = PairFeaturizer(bench_settings.featurizer_config)
    indices = list(range(min(200, len(dataset.pairs))))
    features = benchmark(featurizer.transform, dataset, indices)
    assert features.shape[0] == len(indices)


def test_bench_matcher_training(benchmark, bench_settings):
    dataset = get_dataset("amazon_google", bench_settings)
    featurizer = PairFeaturizer(bench_settings.featurizer_config)
    train = dataset.train_indices[:200]
    features = featurizer.transform(dataset, train)
    labels = dataset.labels(train)

    def train_once():
        matcher = NeuralMatcher(features.shape[1], bench_settings.matcher_config)
        matcher.fit(features, labels)
        return matcher

    matcher = benchmark.pedantic(train_once, rounds=1, iterations=1)
    assert matcher.is_fitted


def test_bench_constrained_kmeans(benchmark, representation_cloud):
    constraints = SizeConstraints.from_fractions(len(representation_cloud))
    model = ConstrainedKMeans(8, constraints, random_state=0)
    result = benchmark.pedantic(model.fit, args=(representation_cloud,),
                                rounds=1, iterations=1)
    assert result.num_clusters == 8


def test_bench_graph_and_pagerank(benchmark, representation_cloud):
    n = len(representation_cloud)
    rng = np.random.default_rng(1)
    cluster_labels = rng.integers(0, 8, size=n)

    def build_and_rank():
        graph = build_sparse_adjacency(
            representations=representation_cloud,
            node_ids=list(range(n)),
            predictions=rng.integers(0, 2, size=n),
            confidences=rng.uniform(0.5, 1.0, size=n),
            match_probabilities=rng.uniform(0.0, 1.0, size=n),
            labeled_mask=np.zeros(n, dtype=bool),
            cluster_labels=cluster_labels,
            num_neighbors=10,
        )
        return pagerank_components(graph)

    scores = benchmark.pedantic(build_and_rank, rounds=1, iterations=1)
    assert len(scores) == n


def test_bench_sparse_substrate_speedup_5k(substrate_scaling_5k):
    """The CSR substrate's speedup over the seed dict path (the oracle in
    ``tests/reference/graphs.py``) on a 5k-node pool.

    The session-scoped fixture times one full selection-substrate pass (graph
    build + certainty + per-component PageRank) on both stacks; this is the
    scalability claim behind Figure 6.  The speedup is reported, not gated
    (graphs are under 1% of an active-learning run); both stacks must agree
    on the edge set size.
    """
    measured = substrate_scaling_5k
    assert measured["vectorized_edges"] == measured["reference_edges"]
    print(f"\nsubstrate 5k: reference {measured['reference_seconds']:.3f}s, "
          f"vectorized {measured['vectorized_seconds']:.3f}s, "
          f"speedup {measured['speedup']:.1f}x")

