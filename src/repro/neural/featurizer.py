"""Featurization of candidate pairs for the NumPy matcher.

DITTO feeds each pair to a subword tokenizer and a transformer as
``[COL] attribute [VAL] value`` text (Example 3 of the paper).  The stand-in
matcher reads the same attributes (:attr:`EMDataset.attributes`) but no such
markers: a record's text is its attribute values joined by spaces, and the
pair goes through feature hashing plus attribute-wise similarity features:

* hashed token/q-gram vectors of the left and right record texts,
* their element-wise product and absolute difference (interaction features,
  the main carrier of "do these two records talk about the same thing"),
* classic per-attribute similarity scores (Jaccard, q-gram Jaccard, overlap,
  token cosine, and an edit-based or numeric measure depending on the
  attribute type).

The featurizer is stateless (feature hashing requires no fitting), so feature
matrices are identical across active-learning iterations and can be computed
once per dataset.

:meth:`PairFeaturizer.transform` is batched.  Records are deduplicated
(every record typically participates in many candidate pairs), each unique
record text is hashed exactly once by one
:func:`~repro.text.vectorizers.hash_texts` call per transform (which hashes
each distinct token and q-gram once per call), and
per-attribute similarity features are computed once per unique
``(left_value, right_value)`` pair: Levenshtein and Jaro-Winkler by the
batched kernels of :mod:`repro.text.similarity` (Myers' recurrence on
``uint64`` lanes, greedy matching on boolean lanes), the set measures from
each value's token and q-gram sets, built once per value, and the numeric
measure one pair at a time.  The output matrix is allocated once and
every feature family is written into its own columns: the raw blocks are
gathered from the per-record matrix in row chunks, the interactions are
computed from them in place, and the similarities fill the last columns,
so no second matrix-sized array is ever alive.  The output is
bit-identical to the seed's per-pair loop, which re-hashed both records and
recomputed every measure from the raw strings for each pair.  That loop is
kept as the oracle of the test suite's reference package, and artifact
stores and curves recorded with it stay valid.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.data.dataset import EMDataset
from repro.data.pair import CandidatePair
from repro.data.record import Record
from repro.data.schema import AttributeType, Schema
from repro.text.similarity import (
    jaro_winkler_similarities,
    levenshtein_similarities,
    numeric_similarity,
)
from repro.text.tokenization import qgram_set, tokenize
from repro.text.vectorizers import hash_texts

#: Values longer than this fall back from edit distance to Jaccard (cost control).
_EDIT_DISTANCE_MAX_LENGTH = 48

#: Pair rows per gather of the hashed record vectors.
_GATHER_ROWS = 512


@dataclass(frozen=True)
class FeaturizerConfig:
    """Options for :class:`PairFeaturizer`.

    Attributes
    ----------
    hash_dim:
        Width of each hashed text vector.
    include_raw:
        Include the raw hashed vectors of both records (doubles the width but
        lets the representation encode *where* in product space a pair lives,
        which strengthens the latent-space clustering the battleship approach
        exploits).
    include_interactions:
        Include element-wise product and absolute difference of the hashed
        vectors.
    include_similarities:
        Include per-attribute similarity scores.
    qgram_size:
        Length of the character q-grams that are hashed and compared (>= 1).
    """

    hash_dim: int = 192
    include_raw: bool = True
    include_interactions: bool = True
    include_similarities: bool = True
    qgram_size: int = 3

    def __post_init__(self) -> None:
        if self.hash_dim <= 0:
            raise ValueError("hash_dim must be positive")
        if self.qgram_size < 1:
            raise ValueError(f"qgram_size must be at least 1, got {self.qgram_size}")
        if not (self.include_raw or self.include_interactions or self.include_similarities):
            raise ValueError("At least one feature family must be enabled")


class PairFeaturizer:
    """Transforms candidate pairs of an :class:`EMDataset` into feature vectors."""

    #: Number of similarity features emitted per attribute.
    SIMILARITIES_PER_ATTRIBUTE = 6

    def __init__(self, config: FeaturizerConfig | None = None) -> None:
        self.config = config or FeaturizerConfig()

    def feature_dim(self, dataset: EMDataset) -> int:
        """Width of the feature vectors produced for ``dataset``."""
        dim = 0
        if self.config.include_raw:
            dim += 2 * self.config.hash_dim
        if self.config.include_interactions:
            dim += 2 * self.config.hash_dim
        if self.config.include_similarities:
            dim += self.SIMILARITIES_PER_ATTRIBUTE * len(self._serialized_attributes(dataset))
        return dim

    @staticmethod
    def _serialized_attributes(dataset: EMDataset) -> tuple[str, ...]:
        names = dataset.left.schema.attribute_names
        return tuple(name for name in dataset.attributes if name in names)

    def _record_text(self, record: Record, attributes: Sequence[str]) -> str:
        return " ".join(record.value(name) for name in attributes)

    # ------------------------------------------------------------------ #
    # Batched path
    # ------------------------------------------------------------------ #
    def transform(self, dataset: EMDataset,
                  indices: Sequence[int] | None = None) -> np.ndarray:
        """Feature matrix for the pairs at ``indices`` (all pairs by default).

        Batched pipeline, bit-identical to the seed's per-pair loop:

        1. the records referenced by the requested pairs are deduplicated
           (first by record identity, then by record text, so duplicated
           records collapse too) and each unique text is hashed once by
           :func:`~repro.text.vectorizers.hash_texts`, a bounded chunk of
           texts at a time;
        2. the output matrix is allocated once, and every feature family is
           written into its own columns: the raw blocks are gathered from
           the per-record matrix :data:`_GATHER_ROWS` rows at a time with
           ``np.take(..., out=)``, and the interactions are computed from
           each chunk with ``np.multiply`` and ``np.subtract`` + ``np.abs``
           into their slices; the per-record matrix is then released;
        3. per attribute, the unique ``(left_value, right_value)`` pairs are
           numbered in one dict pass, one row per unique pair is filled
           (the edit measures by the batched similarity kernels), and one
           ``np.take`` scatters the rows into the last columns.

        No second matrix-sized array is alive at any point: the gather and
        kernel transients are bounded by a chunk, the hashing ones by a
        chunk plus one copy of the per-record matrix (the squares its row
        norms sum), and the similarity ones by one attribute's unique value
        pairs.
        """
        if indices is None:
            indices = range(len(dataset.pairs))
        index_list = [int(i) for i in indices]
        output = np.empty((len(index_list), self.feature_dim(dataset)),
                          dtype=np.float64)
        if not index_list:
            return output
        attributes = self._serialized_attributes(dataset)
        pairs = [dataset.pairs[i] for i in index_list]
        left_records = [dataset.left[pair.left_id] for pair in pairs]
        right_records = [dataset.right[pair.right_id] for pair in pairs]

        config = self.config
        hashed = 2 * config.hash_dim * (config.include_raw + config.include_interactions)
        if hashed:
            self._hashed_block(pairs, left_records, right_records, attributes,
                               output[:, :hashed])
        if config.include_similarities:
            self._similarity_block(left_records, right_records, attributes,
                                   dataset.left.schema, output[:, hashed:])
        return output

    def _hashed_block(
        self,
        pairs: Sequence[CandidatePair],
        left_records: Sequence[Record],
        right_records: Sequence[Record],
        attributes: Sequence[str],
        block: np.ndarray,
    ) -> None:
        """Fill ``block`` with every pair's raw and interaction columns.

        Each unique record text is hashed once, by one
        :func:`~repro.text.vectorizers.hash_texts` call, into the per-record
        matrix.  That matrix is gathered :data:`_GATHER_ROWS` rows at a
        time: ``np.take`` buffers a non-contiguous ``out`` whole, so a
        gather costs one chunk-sized buffer, not one block.  The matrix is
        released when this returns, before the similarity block runs.
        """
        width = self.config.hash_dim
        left_rows, right_rows, unique_texts = self._record_rows(
            pairs, left_records, right_records, attributes)
        record_matrix = hash_texts(unique_texts, width, self.config.qgram_size)
        for start in range(0, len(pairs), _GATHER_ROWS):
            rows = slice(start, start + _GATHER_ROWS)
            chunk = block[rows]
            column = 0
            if self.config.include_raw:
                left = np.take(record_matrix, left_rows[rows], axis=0,
                               out=chunk[:, :width])
                right = np.take(record_matrix, right_rows[rows], axis=0,
                                out=chunk[:, width:2 * width])
                column = 2 * width
            else:
                left = record_matrix[left_rows[rows]]
                right = record_matrix[right_rows[rows]]
            if self.config.include_interactions:
                np.multiply(left, right, out=chunk[:, column:column + width])
                difference = np.subtract(
                    left, right, out=chunk[:, column + width:column + 2 * width])
                np.abs(difference, out=difference)

    def _record_rows(
        self,
        pairs: Sequence[CandidatePair],
        left_records: Sequence[Record],
        right_records: Sequence[Record],
        attributes: Sequence[str],
    ) -> tuple[np.ndarray, np.ndarray, list[str]]:
        """Map every pair side to a row of the unique-record-text matrix.

        Two memo levels: record identity (``(side, record_id)``) avoids
        re-joining the values of a record that appears in many pairs, and the
        text itself collapses distinct records with identical values.
        """
        unique_texts: list[str] = []
        text_rows: dict[str, int] = {}
        record_rows: dict[tuple[int, str], int] = {}

        def row_of(side: int, record_id: str, record: Record) -> int:
            key = (side, record_id)
            row = record_rows.get(key)
            if row is None:
                text = self._record_text(record, attributes)
                row = text_rows.get(text)
                if row is None:
                    row = len(unique_texts)
                    unique_texts.append(text)
                    text_rows[text] = row
                record_rows[key] = row
            return row

        left_rows = np.fromiter(
            (row_of(0, pair.left_id, record)
             for pair, record in zip(pairs, left_records)),
            dtype=np.int64, count=len(pairs))
        right_rows = np.fromiter(
            (row_of(1, pair.right_id, record)
             for pair, record in zip(pairs, right_records)),
            dtype=np.int64, count=len(pairs))
        return left_rows, right_rows, unique_texts

    def _similarity_block(
        self,
        left_records: Sequence[Record],
        right_records: Sequence[Record],
        attributes: Sequence[str],
        schema: Schema,
        block: np.ndarray,
    ) -> None:
        """Fill ``block`` with every pair's per-attribute similarity features.

        ``block`` is the output's similarity slice, one row per pair and
        :attr:`SIMILARITIES_PER_ATTRIBUTE` columns per attribute.  Per
        attribute, one dict pass numbers the unique ``(left_value,
        right_value)`` pairs, :func:`_value_pair_features` fills a ``(unique,
        6)`` array, and one ``np.take`` scatters it to the rows.
        """
        per_attribute = self.SIMILARITIES_PER_ATTRIBUTE
        for attribute_index, name in enumerate(attributes):
            codes: dict[tuple[str, str], int] = {}
            rows = np.fromiter(
                (codes.setdefault((left.value(name), right.value(name)), len(codes))
                 for left, right in zip(left_records, right_records)),
                dtype=np.int64, count=len(left_records))
            features = _value_pair_features(
                list(codes), schema.attribute(name).kind, self.config.qgram_size)
            start = attribute_index * per_attribute
            np.take(features, rows, axis=0,
                    out=block[:, start:start + per_attribute])


def _value_pair_features(keys: list[tuple[str, str]], kind: AttributeType,
                         qgram_size: int) -> np.ndarray:
    """The similarity features of each unique value pair of one attribute.

    Columns: token Jaccard, q-gram Jaccard, overlap coefficient, token
    cosine (:func:`_set_measures`), then a numeric measure (numeric
    attributes, one pair at a time), Levenshtein (values up to
    ``_EDIT_DISTANCE_MAX_LENGTH`` characters) or Jaro-Winkler on the
    truncated values, both from the batched kernels of
    :mod:`repro.text.similarity`, and finally a missing-value flag.  Every
    column equals its measure of :mod:`repro.text.similarity` bit for bit.
    """
    index: dict[str, int] = {}
    left = np.fromiter((index.setdefault(value, len(index)) for value, _ in keys),
                       dtype=np.int64, count=len(keys))
    right = np.fromiter((index.setdefault(value, len(index)) for _, value in keys),
                        dtype=np.int64, count=len(keys))
    values = list(index)
    features = np.empty((len(keys), PairFeaturizer.SIMILARITIES_PER_ATTRIBUTE))
    features[:, :4] = _set_measures(values, left, right, qgram_size)
    if kind is AttributeType.NUMERIC:
        features[:, 4] = [numeric_similarity(a, b) for a, b in keys]
    else:
        lengths = np.fromiter(map(len, values), dtype=np.int64, count=len(values))
        too_long = np.maximum(lengths[left], lengths[right]) > _EDIT_DISTANCE_MAX_LENGTH
        edit, jaro = np.flatnonzero(~too_long), np.flatnonzero(too_long)
        features[edit, 4] = levenshtein_similarities(values, left[edit], right[edit])
        truncated = [value[:_EDIT_DISTANCE_MAX_LENGTH] for value in values]
        features[jaro, 4] = jaro_winkler_similarities(truncated, left[jaro],
                                                      right[jaro])
    blank = np.fromiter((not value.strip() for value in values), dtype=bool,
                        count=len(values))
    features[:, 5] = blank[left] | blank[right]
    return features


def _set_measures(values: list[str], left: np.ndarray, right: np.ndarray,
                  qgram_size: int) -> np.ndarray:
    """Token Jaccard, q-gram Jaccard, overlap and token cosine of each pair.

    Each value is tokenized and cut into q-grams once; a pair then only
    intersects its two values' sets.  ``len(a | b)`` becomes the equal
    integer ``len(a) + len(b) - len(a & b)``, and the dot product and the
    count norms are the scalars' exact integers, so every quotient is the
    scalar measure's float.
    """
    token_lists = [tokenize(value) for value in values]
    tokens = [set(found) for found in token_lists]
    counts = [Counter(found) for found in token_lists]
    norms = [math.sqrt(sum(count * count for count in found.values()))
             for found in counts]
    grams = [qgram_set(value, q=qgram_size) for value in values]
    measures: list[tuple[float, float, float, float]] = []
    for a, b in zip(left.tolist(), right.tolist()):
        tokens_a, tokens_b = tokens[a], tokens[b]
        if not tokens_a and not tokens_b:
            jaccard = overlap = cosine = 1.0
        elif not tokens_a or not tokens_b:
            jaccard = overlap = cosine = 0.0
        else:
            shared = tokens_a & tokens_b
            common = len(shared)
            jaccard = common / (len(tokens_a) + len(tokens_b) - common)
            overlap = common / min(len(tokens_a), len(tokens_b))
            counts_a, counts_b = counts[a], counts[b]
            cosine = (sum(counts_a[token] * counts_b[token] for token in shared)
                      / (norms[a] * norms[b]))
        grams_a, grams_b = grams[a], grams[b]
        if not grams_a and not grams_b:
            qgram = 1.0
        else:
            common = len(grams_a & grams_b)
            qgram = common / (len(grams_a) + len(grams_b) - common)
        measures.append((jaccard, qgram, overlap, cosine))
    return np.array(measures, dtype=np.float64).reshape(len(measures), 4)
