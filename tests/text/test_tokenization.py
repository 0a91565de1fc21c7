"""Tests for repro.text.tokenization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text.tokenization import (
    normalize,
    qgram_set,
    qgrams,
    token_counts,
    token_set,
    tokenize,
)


class TestNormalize:
    def test_lowercases_and_collapses_whitespace(self):
        assert normalize("  Sony   BRAVIA  TV ") == "sony bravia tv"

    def test_empty(self):
        assert normalize("") == ""


class TestTokenize:
    def test_alphanumeric_tokens(self):
        assert tokenize("Canon EOS-5D, Mark IV!") == ["canon", "eos", "5d", "mark", "iv"]

    def test_empty_string(self):
        assert tokenize("") == []

    def test_token_set_removes_duplicates(self):
        assert token_set("the the cat") == {"the", "cat"}

    def test_token_counts(self):
        counts = token_counts("a b a")
        assert counts["a"] == 2
        assert counts["b"] == 1


class TestQgrams:
    def test_padded_qgrams(self):
        grams = qgrams("ab", q=2)
        assert grams == ["#a", "ab", "b#"]

    def test_empty_string(self):
        assert qgrams("", q=3) == []

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            qgrams("abc", q=0)

    def test_qgram_set_is_set(self):
        assert isinstance(qgram_set("abcabc", 2), set)

    @settings(max_examples=40, deadline=None)
    @given(text=st.text(alphabet="abcde ", max_size=30),
           q=st.integers(min_value=1, max_value=5))
    def test_property_gram_lengths(self, text, q):
        grams = qgrams(text, q=q)
        assert bool(grams) == bool(normalize(text))
        for gram in grams:
            assert len(gram) == q
