"""Tests for repro.text.vectorizers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference.featurizer import transform_one
from repro.text.vectorizers import (
    HashingVectorizer,
    HashingVectorizerConfig,
    cosine_similarity_matrix,
)


class TestHashingVectorizer:
    def test_output_shape(self):
        vectorizer = HashingVectorizer(HashingVectorizerConfig(num_features=32))
        matrix = vectorizer.transform(["sony tv", "lg monitor", ""])
        assert matrix.shape == (3, 32)

    def test_empty_input(self):
        vectorizer = HashingVectorizer()
        assert vectorizer.transform([]).shape == (0, vectorizer.num_features)

    def test_deterministic(self):
        a = HashingVectorizer().transform(["canon eos rebel"])
        b = HashingVectorizer().transform(["canon eos rebel"])
        assert np.array_equal(a, b)

    def test_normalization(self):
        vectorizer = HashingVectorizer(HashingVectorizerConfig(num_features=64))
        vector = vectorizer.transform(["some text with several tokens"])[0]
        assert np.linalg.norm(vector) == pytest.approx(1.0)

    def test_empty_text_is_zero_vector(self):
        vectorizer = HashingVectorizer()
        assert np.allclose(vectorizer.transform([""]), 0.0)

    def test_similar_texts_have_higher_cosine(self):
        vectorizer = HashingVectorizer(HashingVectorizerConfig(num_features=256))
        a, b, c = vectorizer.transform(["canon eos rebel t7i dslr camera",
                                        "canon eos rebel t7i camera kit",
                                        "nike air max running shoe"])
        sim_ab = float(a @ b)
        sim_ac = float(a @ c)
        assert sim_ab > sim_ac

    def test_invalid_num_features(self):
        with pytest.raises(ValueError):
            HashingVectorizer(HashingVectorizerConfig(num_features=0))

    def test_different_seeds_hash_differently(self):
        a = HashingVectorizer(HashingVectorizerConfig(num_features=64, seed=1))
        b = HashingVectorizer(HashingVectorizerConfig(num_features=64, seed=2))
        text = "canon eos"
        assert not np.array_equal(a.transform([text]), b.transform([text]))

    @settings(max_examples=25, deadline=None)
    @given(text=st.text(alphabet="abcdef ", max_size=40))
    def test_property_norm_at_most_one(self, text):
        vectorizer = HashingVectorizer(HashingVectorizerConfig(num_features=64))
        assert np.linalg.norm(vectorizer.transform([text])[0]) <= 1.0 + 1e-9

    @settings(max_examples=30, deadline=None)
    @given(texts=st.lists(st.text(alphabet="abcdef #,1", max_size=30), max_size=8),
           signed=st.booleans(), normalize=st.booleans(), use_qgrams=st.booleans())
    def test_property_bulk_transform_bit_identical_to_transform_one(
            self, texts, signed, normalize, use_qgrams):
        """The bulk path must match the one-text oracle stacked, bit for bit."""
        config = HashingVectorizerConfig(num_features=32, signed=signed,
                                         normalize=normalize, use_qgrams=use_qgrams)
        vectorizer = HashingVectorizer(config)
        expected = (np.vstack([transform_one(config, text) for text in texts])
                    if texts else np.zeros((0, 32)))
        bulk = vectorizer.transform(texts)
        assert bulk.dtype == np.float64
        assert np.array_equal(expected, bulk)

    def test_bulk_transform_feature_table_reused_across_calls(self):
        vectorizer = HashingVectorizer(HashingVectorizerConfig(num_features=64))
        first = vectorizer.transform(["canon eos rebel"])
        table_size = len(vectorizer._feature_table)
        assert table_size > 0
        second = vectorizer.transform(["canon eos rebel"])
        assert len(vectorizer._feature_table) == table_size
        assert np.array_equal(first, second)

    def test_bulk_transform_all_empty_texts(self):
        vectorizer = HashingVectorizer(HashingVectorizerConfig(num_features=16))
        matrix = vectorizer.transform(["", "   ", ""])
        assert matrix.shape == (3, 16)
        assert np.allclose(matrix, 0.0)


class TestCosineSimilarityMatrix:
    def test_self_similarity_is_one(self):
        data = np.random.default_rng(0).normal(size=(5, 8))
        sims = cosine_similarity_matrix(data)
        assert np.allclose(np.diag(sims), 1.0)

    def test_symmetric(self):
        data = np.random.default_rng(1).normal(size=(6, 4))
        sims = cosine_similarity_matrix(data)
        assert np.allclose(sims, sims.T)

    def test_two_matrix_shape(self):
        a = np.random.default_rng(2).normal(size=(3, 4))
        b = np.random.default_rng(3).normal(size=(5, 4))
        assert cosine_similarity_matrix(a, b).shape == (3, 5)

    def test_zero_rows_do_not_produce_nan(self):
        data = np.zeros((2, 3))
        sims = cosine_similarity_matrix(data)
        assert not np.any(np.isnan(sims))
