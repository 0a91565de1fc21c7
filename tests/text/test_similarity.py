"""Tests for repro.text.similarity."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text.similarity import (
    cosine_token_similarity,
    jaccard_similarity,
    jaro_similarity,
    jaro_winkler_similarity,
    levenshtein_distance,
    levenshtein_similarity,
    numeric_similarity,
    overlap_coefficient,
    qgram_jaccard_similarity,
)

_SHORT_TEXT = st.text(alphabet="abcdef ", max_size=15)

#: Every similarity measure of the module, by name.
_MEASURES = {
    "levenshtein": levenshtein_similarity,
    "jaro_winkler": jaro_winkler_similarity,
    "jaccard": jaccard_similarity,
    "qgram_jaccard": qgram_jaccard_similarity,
    "overlap": overlap_coefficient,
    "cosine": cosine_token_similarity,
    "numeric": numeric_similarity,
}


class TestLevenshtein:
    def test_known_distances(self):
        assert levenshtein_distance("kitten", "sitting") == 3
        assert levenshtein_distance("abc", "abc") == 0
        assert levenshtein_distance("", "abc") == 3
        assert levenshtein_distance("abc", "") == 3

    def test_similarity_bounds(self):
        assert levenshtein_similarity("abc", "abc") == 1.0
        assert levenshtein_similarity("", "") == 1.0
        assert levenshtein_similarity("abc", "xyz") == 0.0

    @settings(max_examples=40, deadline=None)
    @given(a=_SHORT_TEXT, b=_SHORT_TEXT)
    def test_property_symmetry(self, a, b):
        assert levenshtein_distance(a, b) == levenshtein_distance(b, a)

    @settings(max_examples=40, deadline=None)
    @given(a=_SHORT_TEXT, b=_SHORT_TEXT, c=_SHORT_TEXT)
    def test_property_triangle_inequality(self, a, b, c):
        assert (levenshtein_distance(a, c)
                <= levenshtein_distance(a, b) + levenshtein_distance(b, c))

    @staticmethod
    def _dp_distance(a: str, b: str) -> int:
        """The seed-era row DP, kept here as the correctness oracle."""
        if not a:
            return len(b)
        if not b:
            return len(a)
        previous = list(range(len(b) + 1))
        for i, char_a in enumerate(a, start=1):
            current = [i]
            for j, char_b in enumerate(b, start=1):
                cost = 0 if char_a == char_b else 1
                current.append(min(previous[j] + 1, current[j - 1] + 1,
                                   previous[j - 1] + cost))
            previous = current
        return previous[-1]

    @settings(max_examples=120, deadline=None)
    @given(a=st.text(alphabet="abcd 1", max_size=70),
           b=st.text(alphabet="abcd 1", max_size=70))
    def test_property_bitparallel_matches_dp(self, a, b):
        """The Myers bit-parallel path must equal the dynamic program."""
        assert levenshtein_distance(a, b) == self._dp_distance(a, b)

    def test_long_strings_use_dp_fallback(self):
        a = "ab" * 60
        b = "ba" * 60 + "c"
        assert levenshtein_distance(a, b) == self._dp_distance(a, b)


class TestJaro:
    def test_identical(self):
        assert jaro_similarity("martha", "martha") == 1.0

    def test_known_value(self):
        # Classic example: MARTHA vs MARHTA has Jaro similarity ~0.944.
        assert jaro_similarity("martha", "marhta") == pytest.approx(0.9444, abs=1e-3)

    def test_disjoint(self):
        assert jaro_similarity("abc", "xyz") == 0.0

    def test_winkler_boosts_prefix(self):
        plain = jaro_similarity("prefixes", "prefixed")
        winkler = jaro_winkler_similarity("prefixes", "prefixed")
        assert winkler >= plain

    def test_empty_handling(self):
        assert jaro_similarity("", "") == 1.0
        assert jaro_similarity("a", "") == 0.0


class TestSetSimilarities:
    def test_jaccard(self):
        assert jaccard_similarity("red car", "red bike") == pytest.approx(1 / 3)
        assert jaccard_similarity("", "") == 1.0
        assert jaccard_similarity("a", "") == 0.0

    def test_overlap(self):
        assert overlap_coefficient("red car", "red") == 1.0

    def test_qgram_jaccard_tolerates_typos(self):
        clean = jaccard_similarity("panasonic", "panasonik")
        grams = qgram_jaccard_similarity("panasonic", "panasonik")
        assert grams > clean

    def test_cosine_tokens(self):
        assert cosine_token_similarity("a b", "a b") == pytest.approx(1.0)
        assert cosine_token_similarity("a", "b") == 0.0


class TestNumericAndExact:
    def test_numeric_identical(self):
        assert numeric_similarity("100", "100.0") == 1.0

    def test_numeric_relative_difference(self):
        assert numeric_similarity("100", "90") == pytest.approx(0.9)

    def test_numeric_missing(self):
        assert numeric_similarity("", "") == 1.0
        assert numeric_similarity("5", "") == 0.0

    def test_numeric_falls_back_for_text(self):
        assert 0.0 <= numeric_similarity("abc", "abd") <= 1.0

    def test_numeric_handles_commas(self):
        assert numeric_similarity("1,000", "1000") == 1.0


class TestRegistry:
    """Range and identity checks over every measure in ``_MEASURES``."""

    @pytest.mark.parametrize("name", sorted(_MEASURES))
    def test_all_measures_bounded(self, name):
        function = _MEASURES[name]
        for a, b in [("sony tv", "sony television"), ("", ""), ("abc", ""),
                     ("12.5", "13.0"), ("exact", "exact")]:
            value = function(a, b)
            assert 0.0 <= value <= 1.0

    @pytest.mark.parametrize("name", sorted(_MEASURES))
    def test_identity_scores_one(self, name):
        function = _MEASURES[name]
        assert function("canon eos 5d", "canon eos 5d") == pytest.approx(1.0)
