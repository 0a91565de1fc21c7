"""Text vectorizers implemented with NumPy.

Two vectorizers are provided:

:class:`HashingVectorizer`
    Stateless feature hashing of tokens (and optionally character q-grams)
    into a fixed-width vector.  It is the front end of the neural matcher
    substrate (:mod:`repro.neural`): the DITTO model of the paper consumes the
    serialized pair text through a subword tokenizer; we consume the same text
    through feature hashing, which needs no vocabulary fitting and therefore
    behaves identically across active-learning iterations.

:class:`TfidfVectorizer`
    A classic fit/transform TF-IDF vectorizer.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from repro.exceptions import NotFittedError
from repro.text.tokenization import qgrams, tokenize


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

    :meth:`transform` is the batched entry point: it hashes every *distinct*
    feature string exactly once through a shared feature → ``(column, sign)``
    table (kept on the instance, so repeated calls keep amortizing), scatters
    all occurrences in one :func:`numpy.bincount` pass, and normalizes
    row-wise.  Its output is bit-identical to stacking :meth:`transform_one`
    over the same texts: the scattered values are ±1, whose float64 sums are
    exact in any order, and each row is normalized with the very same
    ``np.linalg.norm(row)`` / in-place division the one-text path uses.
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

    def transform_one(self, text: str) -> np.ndarray:
        """Vectorize a single text (the seed-era per-occurrence-hash path)."""
        vector = np.zeros(self.config.num_features, dtype=np.float64)
        for feature in self._features(text):
            hashed = _stable_hash(feature, self.config.seed)
            index = hashed % self.config.num_features
            if self.config.signed:
                sign = 1.0 if (hashed >> 32) & 1 else -1.0
            else:
                sign = 1.0
            vector[index] += sign
        if self.config.normalize:
            norm = np.linalg.norm(vector)
            if norm > 0:
                vector /= norm
        return vector

    def transform(self, texts: Sequence[str]) -> np.ndarray:
        """Vectorize a sequence of texts into a ``(n, num_features)`` matrix.

        Bit-identical to ``np.vstack([self.transform_one(t) for t in texts])``
        but hashes each distinct feature string once instead of once per
        occurrence.
        """
        num_features = self.config.num_features
        n = len(texts)
        if n == 0:
            return np.zeros((0, num_features), dtype=np.float64)
        table = self._feature_table
        intern = self._intern_feature
        per_text = [self._features(text) for text in texts]
        lengths = np.fromiter(map(len, per_text), dtype=np.int64, count=n)
        total = int(lengths.sum())
        if total:
            for features in per_text:
                for feature in features:
                    if feature not in table:
                        intern(feature)
            # Translate features through the table at C speed; the sign of a
            # packed entry is the scatter sign, its magnitude - 1 the column.
            packed = np.fromiter(
                map(table.__getitem__, chain.from_iterable(per_text)),
                dtype=np.int64, count=total)
            rows = np.repeat(np.arange(n, dtype=np.int64), lengths)
            columns = np.abs(packed) - 1
            signs = np.where(packed > 0, 1.0, -1.0)
            flat = np.bincount(rows * num_features + columns, weights=signs,
                               minlength=n * num_features)
            matrix = flat.reshape(n, num_features)
        else:
            matrix = np.zeros((n, num_features), dtype=np.float64)
        if self.config.normalize:
            # Per-row np.linalg.norm: the exact computation transform_one
            # runs, so normalized rows match it bit for bit.
            for row in range(n):
                norm = np.linalg.norm(matrix[row])
                if norm > 0:
                    matrix[row] /= norm
        return matrix


class TfidfVectorizer:
    """A minimal TF-IDF vectorizer (fit on a corpus, then transform)."""

    def __init__(self, min_df: int = 1, max_features: int | None = None) -> None:
        if min_df < 1:
            raise ValueError("min_df must be >= 1")
        self.min_df = min_df
        self.max_features = max_features
        self._vocabulary: dict[str, int] | None = None
        self._idf: np.ndarray | None = None

    @property
    def vocabulary(self) -> dict[str, int]:
        """Token → column index mapping (after :meth:`fit`)."""
        if self._vocabulary is None:
            raise NotFittedError("TfidfVectorizer.fit must be called before use")
        return self._vocabulary

    def fit(self, texts: Sequence[str]) -> "TfidfVectorizer":
        """Learn the vocabulary and inverse document frequencies from ``texts``."""
        document_frequency: dict[str, int] = {}
        for text in texts:
            # dict.fromkeys dedups per document in first-occurrence order, so
            # document_frequency's insertion order derives from the corpus
            # rather than from set iteration order (the counts themselves are
            # order-independent; the explicit sorts below own the ordering).
            for token in dict.fromkeys(tokenize(text)):
                document_frequency[token] = document_frequency.get(token, 0) + 1
        items = [(token, df) for token, df in document_frequency.items() if df >= self.min_df]
        # Keep the most frequent tokens when max_features caps the vocabulary.
        items.sort(key=lambda item: (-item[1], item[0]))
        if self.max_features is not None:
            items = items[: self.max_features]
        items.sort(key=lambda item: item[0])
        self._vocabulary = {token: index for index, (token, _) in enumerate(items)}
        n_documents = max(len(texts), 1)
        idf = np.zeros(len(self._vocabulary), dtype=np.float64)
        for token, index in self._vocabulary.items():
            idf[index] = math.log((1 + n_documents) / (1 + document_frequency[token])) + 1.0
        self._idf = idf
        return self

    def transform(self, texts: Sequence[str]) -> np.ndarray:
        """Transform ``texts`` into an L2-normalized TF-IDF matrix.

        Token counts are accumulated per row first and only the nonzero
        columns are written, so the cost scales with the tokens actually
        present instead of ``n_texts × vocabulary``; the IDF scaling and the
        normalization happen in place, eliminating the full-matrix multiply
        pass and the second dense ``matrix / norms`` allocation of the seed
        implementation.  Values are identical: a count accumulated as
        repeated ``+= 1.0`` equals the integer count cast to float, and the
        row norms are computed by the same ``np.linalg.norm`` call.
        """
        if self._vocabulary is None or self._idf is None:
            raise NotFittedError("TfidfVectorizer.fit must be called before transform")
        vocabulary = self._vocabulary
        matrix = np.zeros((len(texts), len(vocabulary)), dtype=np.float64)
        for row, text in enumerate(texts):
            counts: dict[int, int] = {}
            for token in tokenize(text):
                column = vocabulary.get(token)
                if column is not None:
                    counts[column] = counts.get(column, 0) + 1
            if counts:
                columns = np.fromiter(counts.keys(), dtype=np.int64, count=len(counts))
                values = np.fromiter(counts.values(), dtype=np.float64, count=len(counts))
                matrix[row, columns] = values * self._idf[columns]
        norms = np.linalg.norm(matrix, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        matrix /= norms
        return matrix

    def fit_transform(self, texts: Sequence[str]) -> np.ndarray:
        """Equivalent to ``fit(texts).transform(texts)``."""
        return self.fit(texts).transform(texts)


def cosine_similarity_matrix(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Pairwise cosine similarities between rows of ``a`` and rows of ``b``."""
    a = np.asarray(a, dtype=np.float64)
    b = a if b is None else np.asarray(b, dtype=np.float64)
    a_norms = np.linalg.norm(a, axis=1, keepdims=True)
    b_norms = np.linalg.norm(b, axis=1, keepdims=True)
    a_norms[a_norms == 0] = 1.0
    b_norms[b_norms == 0] = 1.0
    return (a / a_norms) @ (b / b_norms).T
