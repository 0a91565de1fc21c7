"""Text vectorization implemented with NumPy.

:class:`HashingVectorizer` hashes the tokens (and optionally character
q-grams) of a text into a fixed-width vector.  It is the front end of the
neural matcher substrate (:mod:`repro.neural`): the DITTO model of the paper
reads ``[COL] attribute [VAL] value`` pair text through a subword tokenizer;
we hash each record's space-joined attribute values instead, which needs no
vocabulary fitting and therefore behaves identically across active-learning
iterations.
:func:`cosine_similarity_matrix` gives the edge weights of the pair graphs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from repro.text.tokenization import qgrams, tokenize

#: Texts hashed per pass of :meth:`HashingVectorizer.transform`.
_TEXT_CHUNK = 256


def _stable_hash(token: str, seed: int = 0) -> int:
    """Deterministic 64-bit hash of ``token`` (stable across processes)."""
    digest = hashlib.blake2b(f"{seed}:{token}".encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


@dataclass(frozen=True)
class HashingVectorizerConfig:
    """Options for :class:`HashingVectorizer`."""

    num_features: int = 1024
    use_qgrams: bool = True
    qgram_size: int = 3
    signed: bool = True
    normalize: bool = True
    seed: int = 17


class HashingVectorizer:
    """Hash tokens (and q-grams) of a text into a fixed-width vector.

    :meth:`transform` hashes every *distinct* feature string exactly once
    through a shared feature → ``(column, sign)`` table (kept on the
    instance, so repeated calls keep amortizing), scatters a chunk of texts'
    occurrences in one :func:`numpy.bincount` pass, and normalizes row-wise.
    Its output is bit-identical to hashing every occurrence of every text one
    vector at a time (the seed path, kept as a test oracle): the scattered
    values are ±1, whose float64 sums are exact in any order, and each row is
    normalized with the very same ``np.linalg.norm(row)`` / in-place
    division.
    """

    def __init__(self, config: HashingVectorizerConfig | None = None) -> None:
        self.config = config or HashingVectorizerConfig()
        if self.config.num_features <= 0:
            raise ValueError("num_features must be positive")
        #: feature string → ±(column + 1) (sign of the entry is the scatter
        #: sign); filled lazily by transform().
        self._feature_table: dict[str, int] = {}

    @property
    def num_features(self) -> int:
        """Width of the produced vectors."""
        return self.config.num_features

    def _features(self, text: str) -> list[str]:
        features = tokenize(text)
        if self.config.use_qgrams:
            features.extend(qgrams(text, q=self.config.qgram_size))
        return features

    def _intern_feature(self, feature: str) -> None:
        """Hash ``feature`` into the column table (at most once ever)."""
        hashed = _stable_hash(feature, self.config.seed)
        index = hashed % self.config.num_features
        if self.config.signed and not ((hashed >> 32) & 1):
            self._feature_table[feature] = -(index + 1)
        else:
            self._feature_table[feature] = index + 1

    def transform(self, texts: Sequence[str]) -> np.ndarray:
        """Vectorize a sequence of texts into a ``(n, num_features)`` matrix.

        Texts are hashed :data:`_TEXT_CHUNK` at a time, so only one chunk's
        feature strings and occurrence arrays are alive at once; rows are
        independent, so the chunking changes no bit.
        """
        matrix = np.zeros((len(texts), self.config.num_features), dtype=np.float64)
        for start in range(0, len(texts), _TEXT_CHUNK):
            chunk = texts[start:start + _TEXT_CHUNK]
            matrix[start:start + len(chunk)] = self._scatter(chunk)
        if self.config.normalize:
            # Per-row np.linalg.norm, the exact computation of the
            # one-text-at-a-time path, so normalized rows match it bit for bit.
            for row in matrix:
                norm = np.linalg.norm(row)
                if norm > 0:
                    row /= norm
        return matrix

    def _scatter(self, texts: Sequence[str]) -> np.ndarray:
        """Unnormalized ``(len(texts), num_features)`` counts of ``texts``."""
        num_features = self.config.num_features
        table = self._feature_table
        per_text = [self._features(text) for text in texts]
        for features in per_text:
            for feature in features:
                if feature not in table:
                    self._intern_feature(feature)
        lengths = np.fromiter(map(len, per_text), dtype=np.int64, count=len(texts))
        # Translate features through the table at C speed; the sign of a
        # packed entry is the scatter sign, its magnitude - 1 the column.
        packed = np.fromiter(map(table.__getitem__, chain.from_iterable(per_text)),
                             dtype=np.int64, count=int(lengths.sum()))
        rows = np.repeat(np.arange(len(texts), dtype=np.int64), lengths)
        columns = np.abs(packed) - 1
        signs = np.where(packed > 0, 1.0, -1.0)
        counts = np.bincount(rows * num_features + columns, weights=signs,
                             minlength=len(texts) * num_features)
        return counts.reshape(len(texts), num_features)


def cosine_similarity_matrix(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Pairwise cosine similarities between rows of ``a`` and rows of ``b``."""
    a = np.asarray(a, dtype=np.float64)
    b = a if b is None else np.asarray(b, dtype=np.float64)
    a_norms = np.linalg.norm(a, axis=1, keepdims=True)
    b_norms = np.linalg.norm(b, axis=1, keepdims=True)
    a_norms[a_norms == 0] = 1.0
    b_norms[b_norms == 0] = 1.0
    return (a / a_norms) @ (b / b_norms).T
