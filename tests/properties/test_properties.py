"""Property-based tests (hypothesis) for the invariants the harness rests on.

Three families of properties:

* the vectorized CSR graph builder is equivalent to the node-at-a-time
  reference on arbitrary random pools;
* the corruption operators stay inside the vocabulary of their input (plus
  the declared abbreviation/noise vocabularies) and are seed-deterministic;
* the scenario oracles are deterministic under ``spawn_rng``-derived seeding:
  the same seed yields the same annotator, no matter the query order.

Examples are capped well below hypothesis' default (the subjects build
graphs and datasets, not pure functions) and ``deadline`` is disabled so a
slow CI machine cannot flake a healthy property.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro._rng import spawn_rng
from repro.analysis import determinism_guard, permuted, shuffled_dict
from repro.active.oracle import (
    ABSTAIN,
    AbstainingOracle,
    ClassConditionalNoisyOracle,
)
from repro.datasets.corruptions import (
    _NOISE_TOKENS,
    CorruptionConfig,
    corrupt_text,
    corrupt_values,
)
from repro.datasets.vocabularies import ABBREVIATIONS
from repro.graphs.pair_graph import build_pair_graph, build_pair_graph_reference

# --------------------------------------------------------------------------- #
# SparseAdjacency vs. reference builder
# --------------------------------------------------------------------------- #


def _edge_set(graph):
    return sorted((u, v, round(w, 10)) for u, v, w in graph.edges())


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 24),
    dims=st.integers(2, 8),
    num_clusters=st.integers(1, 4),
    num_neighbors=st.integers(1, 6),
    extra_edge_ratio=st.floats(0.0, 0.3),
    labeled_share=st.floats(0.0, 0.6),
)
def test_sparse_builder_matches_reference_on_random_pools(
        seed, n, dims, num_clusters, num_neighbors, extra_edge_ratio,
        labeled_share):
    rng = np.random.default_rng(seed)
    kwargs = dict(
        representations=rng.normal(size=(n, dims)),
        node_ids=list(range(100, 100 + n)),
        predictions=rng.integers(0, 2, size=n),
        confidences=rng.uniform(0.5, 1.0, size=n),
        match_probabilities=rng.uniform(0.0, 1.0, size=n),
        labeled_mask=rng.uniform(size=n) < labeled_share,
        cluster_labels=rng.integers(0, num_clusters, size=n),
        num_neighbors=num_neighbors,
        extra_edge_ratio=extra_edge_ratio,
    )
    vectorized = build_pair_graph(**kwargs)
    reference = build_pair_graph_reference(**kwargs)
    assert vectorized.num_nodes == reference.num_nodes
    assert _edge_set(vectorized) == _edge_set(reference)


# --------------------------------------------------------------------------- #
# Corruption operators stay in vocabulary
# --------------------------------------------------------------------------- #

_WORDS = ("alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf",
          "hotel", "india", "juliett", "kilo", "lima")

_token_sets = st.lists(
    st.lists(st.sampled_from(_WORDS), min_size=1, max_size=6).map(
        lambda tokens: " ".join(tokens)),
    min_size=1, max_size=12)

_ALLOWED_EXTRA = (
    {word for abbr in ABBREVIATIONS.values() for word in abbr.split()}
    | {word for noise in _NOISE_TOKENS for word in noise.split()})

_values_strategy = st.dictionaries(
    keys=st.sampled_from(("title", "brand", "category")),
    values=st.lists(st.sampled_from(_WORDS + tuple(ABBREVIATIONS)),
                    min_size=1, max_size=8).map(" ".join),
    min_size=1, max_size=3)

_config_strategy = st.builds(
    CorruptionConfig,
    typo_rate=st.just(0.0),
    token_drop_rate=st.floats(0.0, 0.5),
    token_swap_rate=st.floats(0.0, 0.5),
    abbreviation_rate=st.floats(0.0, 1.0),
    missing_rate=st.floats(0.0, 0.5),
    numeric_noise=st.just(0.0),
    injection_rate=st.floats(0.0, 0.5),
    case_noise_rate=st.floats(0.0, 0.5),
)


@settings(max_examples=40, deadline=None)
@given(values=_values_strategy, config=_config_strategy,
       seed=st.integers(0, 2**31 - 1))
def test_corruption_never_leaves_the_vocabulary(values, config, seed):
    allowed = (_ALLOWED_EXTRA
               | {token for value in values.values() for token in value.split()})
    allowed |= {token.upper() for token in allowed}
    corrupted = corrupt_values(values, config, np.random.default_rng(seed))
    assert set(corrupted) == set(values)
    for value in corrupted.values():
        assert isinstance(value, str)
        for token in value.split():
            assert token in allowed


@settings(max_examples=40, deadline=None)
@given(values=_values_strategy, config=_config_strategy,
       seed=st.integers(0, 2**31 - 1))
def test_corruption_is_seed_deterministic(values, config, seed):
    with determinism_guard("corruption"):
        first = corrupt_values(values, config, np.random.default_rng(seed))
        second = corrupt_values(values, config, np.random.default_rng(seed))
    assert first == second


def test_shuffled_dict_probe_detects_corruption_order_dependence():
    """``corrupt_values`` draws RNG while iterating its input dict, so its
    output depends on insertion order — detectable with ``shuffled_dict``.

    This is a *documented* order dependence, not a bug to fix: records are
    always built in schema order, so the order is deterministic per run and
    across runs, and changing the iteration strategy would regenerate every
    synthetic benchmark.  The probe exists so that if someone ever feeds a
    non-schema-ordered mapping in, the sanitizer toolkit can show why two
    "identical" runs diverged.
    """
    values = {"title": "alpha bravo charlie", "brand": "delta echo",
              "category": "foxtrot golf hotel"}
    config = CorruptionConfig(typo_rate=0.1, token_drop_rate=0.2,
                              token_swap_rate=0.1, abbreviation_rate=0.2,
                              missing_rate=0.1, numeric_noise=0.0,
                              injection_rate=0.2)
    baseline = corrupt_values(values, config, np.random.default_rng(5))
    reordered = corrupt_values(shuffled_dict(values), config,
                               np.random.default_rng(5))
    assert baseline != reordered
    # Same insertion order ⇒ identical output: the dependence is on order
    # alone, never on anything hidden.
    again = corrupt_values(dict(values), config, np.random.default_rng(5))
    assert baseline == again


@settings(max_examples=40, deadline=None)
@given(value=st.lists(st.sampled_from(_WORDS), min_size=1, max_size=8)
       .map(" ".join),
       seed=st.integers(0, 2**31 - 1))
def test_zero_rate_corruption_is_identity(value, seed):
    silent = CorruptionConfig(typo_rate=0.0, token_drop_rate=0.0,
                              token_swap_rate=0.0, abbreviation_rate=0.0,
                              missing_rate=0.0, numeric_noise=0.0,
                              injection_rate=0.0, case_noise_rate=0.0)
    assert corrupt_text(value, silent, np.random.default_rng(seed)) == value


# --------------------------------------------------------------------------- #
# Oracle determinism under spawn_rng-derived seeding
# --------------------------------------------------------------------------- #


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**31 - 1),
       fp=st.floats(0.0, 1.0), fn=st.floats(0.0, 1.0))
def test_class_conditional_oracle_is_seed_deterministic(tiny_dataset, seed,
                                                        fp, fn):
    first = ClassConditionalNoisyOracle(tiny_dataset, false_positive_rate=fp,
                                        false_negative_rate=fn,
                                        random_state=seed)
    second = ClassConditionalNoisyOracle(tiny_dataset, false_positive_rate=fp,
                                         false_negative_rate=fn,
                                         random_state=seed)
    indices = range(min(60, len(tiny_dataset.pairs)))
    forward = [first.query(i) for i in indices]
    backward = [second.query(i) for i in reversed(list(indices))]
    assert forward == list(reversed(backward))
    assert set(forward) <= {0, 1}


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), abstain=st.floats(0.0, 1.0))
def test_abstaining_oracle_is_seed_deterministic(tiny_dataset, seed, abstain):
    first = AbstainingOracle(tiny_dataset, abstain_probability=abstain,
                             random_state=seed)
    second = AbstainingOracle(tiny_dataset, abstain_probability=abstain,
                              random_state=seed)
    indices = list(range(min(60, len(tiny_dataset.pairs))))
    assert [first.peek(i) for i in indices] == [second.peek(i) for i in indices]
    assert set(first.peek(i) for i in indices) <= {0, 1, ABSTAIN}


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), abstain=st.floats(0.0, 1.0),
       order_seed=st.integers(0, 100))
def test_abstention_outcomes_are_independent_of_query_order(
        tiny_dataset, seed, abstain, order_seed):
    """Per-pair abstention must be a function of (pair, seed), not of the
    order the loop happens to query in — the runtime analogue of ND005 for
    abstention order."""
    oracle = AbstainingOracle(tiny_dataset, abstain_probability=abstain,
                              random_state=seed)
    indices = list(range(min(60, len(tiny_dataset.pairs))))
    with determinism_guard("abstention order probe"):
        in_order = {i: oracle.peek(i) for i in indices}
        reordered = {i: oracle.peek(i)
                     for i in permuted(indices, seed=order_seed)}
    assert in_order == reordered


# --------------------------------------------------------------------------- #
# Vectorizer order-independence (the ND005 fix, probed at runtime)
# --------------------------------------------------------------------------- #

@settings(max_examples=20, deadline=None)
@given(texts=_token_sets, order_seed=st.integers(0, 100))
def test_tfidf_fit_is_independent_of_corpus_order(texts, order_seed):
    from repro.text.vectorizers import TfidfVectorizer

    with determinism_guard("tfidf fit"):
        baseline = TfidfVectorizer().fit(texts)
        reordered = TfidfVectorizer().fit(permuted(texts, seed=order_seed))
    assert baseline.vocabulary == reordered.vocabulary
    np.testing.assert_array_equal(baseline._idf, reordered._idf)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6))
def test_spawn_rng_streams_are_reproducible_and_distinct(seed, n):
    first = spawn_rng(np.random.default_rng(seed), n)
    second = spawn_rng(np.random.default_rng(seed), n)
    draws_first = [rng.random(8).tolist() for rng in first]
    draws_second = [rng.random(8).tolist() for rng in second]
    assert draws_first == draws_second
    if n > 1:
        assert draws_first[0] != draws_first[1]
