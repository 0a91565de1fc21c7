"""Tests for repro.text.vectorizers."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference.featurizer import transform_one
from repro.text import vectorizers
from repro.text.vectorizers import cosine_similarity_matrix, hash_texts


class TestHashingVectorizer:
    def test_output_shape(self):
        matrix = hash_texts(["sony tv", "lg monitor", ""], 32, 3)
        assert matrix.shape == (3, 32)

    def test_empty_input(self):
        assert hash_texts([], 192, 3).shape == (0, 192)

    def test_deterministic(self):
        a = hash_texts(["canon eos rebel"], 192, 3)
        b = hash_texts(["canon eos rebel"], 192, 3)
        assert np.array_equal(a, b)

    def test_normalization(self):
        vector = hash_texts(["some text with several tokens"], 64, 3)[0]
        assert np.linalg.norm(vector) == pytest.approx(1.0)

    def test_empty_text_is_zero_vector(self):
        assert np.allclose(hash_texts([""], 192, 3), 0.0)

    def test_similar_texts_have_higher_cosine(self):
        a, b, c = hash_texts(["canon eos rebel t7i dslr camera",
                              "canon eos rebel t7i camera kit",
                              "nike air max running shoe"], 256, 3)
        sim_ab = float(a @ b)
        sim_ac = float(a @ c)
        assert sim_ab > sim_ac

    @settings(max_examples=25, deadline=None)
    @given(text=st.text(alphabet="abcdef ", max_size=40))
    def test_property_norm_at_most_one(self, text):
        assert np.linalg.norm(hash_texts([text], 64, 3)[0]) <= 1.0 + 1e-9

    @settings(max_examples=30, deadline=None)
    @given(texts=st.lists(st.text(alphabet="abcdef #,1", max_size=30), max_size=8),
           qgram_size=st.integers(min_value=1, max_value=5))
    def test_property_bulk_transform_bit_identical_to_transform_one(
            self, texts, qgram_size):
        """The bulk path must match the one-text oracle stacked, bit for bit,
        also when texts are hashed one and two per pass, so empty rows and a
        chunk boundary meet the all-rows normalization."""
        expected = (np.vstack([transform_one(text, 32, qgram_size) for text in texts])
                    if texts else np.zeros((0, 32)))
        for chunk in (1, 2, vectorizers._TEXT_CHUNK):
            with mock.patch.object(vectorizers, "_TEXT_CHUNK", chunk):
                bulk = hash_texts(texts, 32, qgram_size)
            assert bulk.dtype == np.float64
            assert np.array_equal(expected, bulk)

    def test_bulk_transform_all_empty_texts(self):
        matrix = hash_texts(["", "   ", ""], 16, 3)
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
