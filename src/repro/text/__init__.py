"""Text substrate: tokenization, similarity measures, and feature hashing."""

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
from repro.text.tokenization import (
    normalize,
    qgram_set,
    qgrams,
    token_counts,
    token_set,
    tokenize,
)
from repro.text.vectorizers import cosine_similarity_matrix, hash_texts

__all__ = [
    "cosine_similarity_matrix",
    "cosine_token_similarity",
    "hash_texts",
    "jaccard_similarity",
    "jaro_similarity",
    "jaro_winkler_similarity",
    "levenshtein_distance",
    "levenshtein_similarity",
    "normalize",
    "numeric_similarity",
    "overlap_coefficient",
    "qgram_jaccard_similarity",
    "qgram_set",
    "qgrams",
    "token_counts",
    "token_set",
    "tokenize",
]
