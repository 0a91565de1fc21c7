"""The batched similarity kernels must equal the scalar measures pair by pair.

:func:`~repro.text.similarity.levenshtein_similarities` and
:func:`~repro.text.similarity.jaro_winkler_similarities` take a list of
values and two index arrays, and their element ``i`` must be the very float
the scalar measure returns for ``(values[left[i]], values[right[i]])``.  The
hypothesis suite draws values from a small alphabet (so values collide,
repeat characters and share tokens) and from arbitrary text, and runs the
kernels with passes of 1, 3 and the default number of lanes, so a pass
boundary can fall anywhere.  The named cases cover the edges each kernel
special-cases: empty and whitespace-only values, equal values, characters
whose lowercase is longer, Levenshtein patterns of exactly 64 and of more
than 64 characters, Jaro's zero window, values that whitespace collapsing
shortens and repeated characters.  The featurizer's whole row of similarity
features (the set measures at q-gram sizes 1-5, the 48/49-character
edit-distance cutoff, numeric attributes holding text) is checked against
the per-pair oracle.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.text.similarity as similarity
from reference.featurizer import attribute_similarities
from repro.data.schema import AttributeType
from repro.neural.featurizer import _value_pair_features
from repro.text.similarity import (
    jaro_winkler_similarities,
    jaro_winkler_similarity,
    levenshtein_similarities,
    levenshtein_similarity,
)

#: Named values: empty and whitespace-only, equal up to case and spacing,
#: "İ" (lowercases to two characters), 1-3 characters (Jaro window 0),
#: repeated characters, long raw values that collapse to short ones, and
#: normalized lengths of exactly 64 and of 65-66 characters.
_NAMED_VALUES = (
    "", " ", "\t \n", "abc", "ABC", "a  b\tc", "a b c", "İ", "İstanbul",
    "istanbul", "a", "b", "ab", "ba", "abc", "cab", "aaaa", "aaab",
    "abababab", "bababa", "a" + " " * 60 + "b", " " * 70,
    "ab" * 32, "ba" * 32 + "a", "ba" * 33, "ab" * 33, "İ" * 32, "İ" * 33,
    "x" + "İ" * 32, "canon eos 5d mark ii", "canon eos 5d mk ii canon",
)

_value = st.one_of(st.text(alphabet="abAB cİ\t1.", max_size=24),
                   st.text(max_size=90))


def _assert_kernels_match(values: list[str], pairs: list[tuple[int, int]]) -> None:
    left = np.array([a for a, _ in pairs], dtype=np.int64)
    right = np.array([b for _, b in pairs], dtype=np.int64)
    edit = levenshtein_similarities(values, left, right)
    jaro = jaro_winkler_similarities(values, left, right)
    for pair, (a, b) in enumerate(pairs):
        x, y = values[a], values[b]
        assert edit[pair] == levenshtein_similarity(x, y), (x, y)
        assert jaro[pair] == jaro_winkler_similarity(x, y), (x, y)


@pytest.mark.parametrize("lanes", [1, 3, similarity._LANE_CHUNK])
@settings(max_examples=60, deadline=None)
@given(values=st.lists(_value, min_size=1, max_size=8, unique=True),
       data=st.data())
def test_property_kernels_equal_scalar_measures(lanes, values, data):
    pairs = data.draw(st.lists(
        st.tuples(st.integers(0, len(values) - 1),
                  st.integers(0, len(values) - 1)),
        min_size=1, max_size=24))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(similarity, "_LANE_CHUNK", lanes)
        _assert_kernels_match(values, pairs)


@pytest.mark.parametrize("lanes", [2, similarity._LANE_CHUNK])
def test_named_values_every_pair(lanes, monkeypatch):
    monkeypatch.setattr(similarity, "_LANE_CHUNK", lanes)
    values = list(dict.fromkeys(_NAMED_VALUES))
    pairs = [(a, b) for a in range(len(values)) for b in range(len(values))]
    _assert_kernels_match(values, pairs)


def test_named_values_reach_the_full_mask_and_the_dp_fallback(monkeypatch):
    """A 64-character pattern runs on a lane; a longer one takes the DP."""
    widths: list[int] = []
    fallbacks: list[int] = []
    myers_pass = similarity._myers_pass
    distance = similarity.levenshtein_distance

    def recording_pass(patterns, texts, pattern_lengths, text_lengths):
        widths.append(int(pattern_lengths.max()))
        return myers_pass(patterns, texts, pattern_lengths, text_lengths)

    def recording_distance(a, b):
        fallbacks.append(min(len(a), len(b)))
        return distance(a, b)

    monkeypatch.setattr(similarity, "_myers_pass", recording_pass)
    monkeypatch.setattr(similarity, "levenshtein_distance", recording_distance)
    values = list(dict.fromkeys(_NAMED_VALUES))
    every = np.arange(len(values))
    levenshtein_similarities(values, np.repeat(every, len(values)),
                             np.tile(every, len(values)))
    assert max(widths) == 64
    assert fallbacks and min(fallbacks) > 64


def test_no_pairs():
    empty = np.zeros(0, dtype=np.int64)
    for kernel in (levenshtein_similarities, jaro_winkler_similarities):
        assert kernel(["a"], empty, empty).shape == (0,)


#: Values around the featurizer's 48-character edit-distance cutoff, and
#: numeric slots holding text.
_CUTOFF_VALUES = ("a" * 48, "a" * 47 + "b", "a" * 49, "b" + "a" * 48,
                  "İ" * 48, "İ" * 49, "x" * 30, "", "  ")
_NUMERIC_VALUES = ("100", "99.9", "1,000", "1000", "n/a", "12abc", "", " ",
                   "0", "-0", "nan", "inf", "abc", "abd")


@pytest.mark.parametrize("kind, values", [
    (AttributeType.TEXT, _CUTOFF_VALUES),
    (AttributeType.CATEGORICAL, _CUTOFF_VALUES),
    (AttributeType.NUMERIC, _NUMERIC_VALUES),
])
def test_featurizer_columns_equal_per_pair_oracle(kind, values):
    keys = [(a, b) for a in values for b in values]
    features = _value_pair_features(keys, kind, qgram_size=3)
    for row, (a, b) in zip(features.tolist(), keys):
        assert row == attribute_similarities(a, b, kind, 3), (a, b)


@pytest.mark.parametrize("kind", [AttributeType.TEXT, AttributeType.NUMERIC])
@pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
@settings(max_examples=20, deadline=None)
@given(values=st.lists(_value, min_size=1, max_size=6, unique=True))
def test_property_featurizer_columns_at_every_qgram_size(kind, q, values):
    """The set measures, built once per value, at q-grams of 1-5 characters."""
    keys = [(a, b) for a in values for b in values]
    features = _value_pair_features(keys, kind, qgram_size=q)
    for row, (a, b) in zip(features.tolist(), keys):
        assert row == attribute_similarities(a, b, kind, q), (a, b)
