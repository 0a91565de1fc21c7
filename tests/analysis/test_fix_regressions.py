"""Regression tests for the production fixes the initial lint sweep drove.

Each fix replaced salted set iteration with deterministic first-occurrence
iteration (``dict.fromkeys``); these tests prove the outputs are unchanged —
the fixes alter *how* an order is produced, never *what* is computed.
"""

from __future__ import annotations

import math

import numpy as np

from repro.text.tokenization import tokenize
from repro.text.vectorizers import TfidfVectorizer

TEXTS = [
    "sony alpha a7 iii mirrorless camera",
    "sony alpha a7 iii mirrorless camera",  # duplicate document
    "canon eos r6 mark ii body",
    "nikon z6 ii with 24-70mm f4 lens",
    "canon eos r6 mark ii body canon canon",  # repeated tokens in one doc
    "",
]


def test_tfidf_document_frequencies_match_set_semantics():
    """Per-document dedup via dict.fromkeys ≡ the old set() counting."""
    vectorizer = TfidfVectorizer().fit(TEXTS)
    reference_df: dict[str, int] = {}
    for text in TEXTS:
        for token in set(tokenize(text)):
            reference_df[token] = reference_df.get(token, 0) + 1
    n_documents = max(len(TEXTS), 1)
    for token, index in vectorizer.vocabulary.items():
        expected = math.log((1 + n_documents)
                            / (1 + reference_df[token])) + 1.0
        assert vectorizer._idf[index] == expected


def test_tfidf_fit_is_invariant_to_duplicate_tokens_within_a_document():
    """A token repeated in one document still counts once toward df."""
    once = TfidfVectorizer().fit(["canon body", "nikon lens"])
    repeated = TfidfVectorizer().fit(["canon body canon canon",
                                      "nikon lens"])
    assert once.vocabulary == repeated.vocabulary
    np.testing.assert_array_equal(once._idf, repeated._idf)


def test_tfidf_transform_output_unchanged_by_the_fix():
    """Pin the full pipeline numerically against an independent reference."""
    vectorizer = TfidfVectorizer().fit(TEXTS)
    matrix = vectorizer.transform(["sony alpha body", ""])
    vocab = vectorizer.vocabulary
    row = np.zeros(len(vocab))
    for token in ["sony", "alpha", "body"]:
        if token in vocab:
            row[vocab[token]] += vectorizer._idf[vocab[token]]
    norm = np.linalg.norm(row)
    np.testing.assert_allclose(matrix[0], row / norm)
    np.testing.assert_array_equal(matrix[1], np.zeros(len(vocab)))
