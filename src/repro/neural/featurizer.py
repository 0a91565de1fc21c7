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
record text is vectorized exactly once through the bulk
:meth:`~repro.text.vectorizers.HashingVectorizer.transform` path, and
per-attribute similarity features are computed once per unique
``(left_value, right_value)`` pair with token/q-gram sets cached per unique
value of one attribute at a time.  The output matrix is allocated once and
every feature family is written into its own columns: the raw blocks are
gathered from the per-record matrix, the interactions are computed from them
in place, and the similarities fill the last columns, so no second
matrix-sized array is ever alive.  The output is bit-identical to the seed's
per-pair loop, which re-hashed both records and recomputed every measure from
the raw strings for each pair.  That loop is kept as the oracle of the test
suite's reference package, and artifact stores and curves recorded with it
stay valid.
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
    bitparallel_levenshtein,
    character_positions,
    jaro_winkler_similarity,
    levenshtein_distance,
    numeric_similarity,
)
from repro.text.tokenization import normalize, tokenize
from repro.text.vectorizers import HashingVectorizer, HashingVectorizerConfig

#: Values longer than this fall back from edit distance to Jaccard (cost control).
_EDIT_DISTANCE_MAX_LENGTH = 48


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


class _ValueEntry:
    """Cached per-value artifacts feeding the set-based similarity measures.

    One entry per unique value of the attribute being featurized, per
    :meth:`PairFeaturizer.transform` call; the token set/counts, q-gram set,
    count-vector norm, and normalized string are computed once (single
    tokenize pass, single normalize pass) and reused by every pair the value
    appears in.  All cached artifacts are exactly what
    :func:`~repro.text.tokenization.token_set` /
    :func:`~repro.text.tokenization.token_counts` /
    :func:`~repro.text.tokenization.qgram_set` would rebuild from the string.
    """

    __slots__ = ("value", "tokens", "qgrams", "counts", "norm", "blank",
                 "normalized", "positions")

    def __init__(self, value: str, qgram_size: int) -> None:
        self.value = value
        token_list = tokenize(value)
        self.tokens = set(token_list)
        self.counts = Counter(token_list)
        normalized = normalize(value)
        self.normalized = normalized
        # Inline qgram_set(value, q=qgram_size): same padding construction
        # on the already-normalized string.
        if not normalized:
            self.qgrams: set[str] = set()
        else:
            if qgram_size > 1:
                padding = "#" * (qgram_size - 1)
                padded = f"{padding}{normalized}{padding}"
            else:
                padded = normalized
            if len(padded) < qgram_size:
                self.qgrams = {padded}
            else:
                self.qgrams = {padded[i:i + qgram_size]
                               for i in range(len(padded) - qgram_size + 1)}
        # Same expression cosine_token_similarity evaluates per call; the
        # counts are ints, so the sum (and therefore the sqrt) is exact.
        self.norm = math.sqrt(sum(count * count for count in self.counts.values()))
        self.blank = not value.strip()
        #: Lazily built Myers bitmask table of ``normalized`` (edit path).
        self.positions: dict[str, int] | None = None

    def character_positions(self) -> dict[str, int]:
        """The value's Myers table, built once and shared across comparisons."""
        if self.positions is None:
            self.positions = character_positions(self.normalized)
        return self.positions


def _normalized_levenshtein(left: _ValueEntry, right: _ValueEntry) -> float:
    """``levenshtein_similarity`` on cached normalized strings.

    Uses the bit-parallel core directly with the shorter value's cached
    Myers table (``levenshtein_distance`` would rebuild it per call); the
    distance is the same integer, so the similarity float is identical.
    """
    a, b = left.normalized, right.normalized
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    if a == b:
        return 1.0
    longest = max(len(a), len(b))
    if len(a) <= len(b):
        pattern, text = left, right
    else:
        pattern, text = right, left
    if len(pattern.normalized) > 64:
        # Unicode lowercasing can lengthen strings past one bit-parallel
        # word even under the featurizer's 48-char raw cutoff.
        distance = levenshtein_distance(a, b)
    else:
        distance = bitparallel_levenshtein(
            pattern.character_positions(), len(pattern.normalized),
            text.normalized)
    return 1.0 - distance / longest


def _cached_similarities(left: _ValueEntry, right: _ValueEntry,
                         kind: AttributeType, qgram_size: int) -> list[float]:
    """Similarity features from cached value entries.

    Per attribute: token Jaccard, q-gram Jaccard, overlap coefficient, token
    cosine, then a numeric measure (numeric attributes), Levenshtein (values
    up to ``_EDIT_DISTANCE_MAX_LENGTH`` characters) or Jaro-Winkler on the
    truncated values, and finally a missing-value flag.  Every formula
    operates on the same sets/counts the string-based measures of
    :mod:`repro.text.similarity` would rebuild (the token intersection is
    computed once and shared by Jaccard, overlap, and cosine; ``len(a | b)``
    becomes the equal integer ``len(a) + len(b) - len(a & b)``), so the
    resulting floats are bit-identical to calling those measures.
    """
    left_value, right_value = left.value, right.value
    tokens_l, tokens_r = left.tokens, right.tokens
    if not tokens_l and not tokens_r:
        token_jaccard = overlap = cosine = 1.0
    elif not tokens_l or not tokens_r:
        token_jaccard = overlap = cosine = 0.0
    else:
        shared_tokens = tokens_l & tokens_r
        num_shared = len(shared_tokens)
        union = len(tokens_l) + len(tokens_r) - num_shared
        token_jaccard = num_shared / union
        overlap = num_shared / min(len(tokens_l), len(tokens_r))
        if num_shared:
            counts_l, counts_r = left.counts, right.counts
            dot = sum(counts_l[token] * counts_r[token]
                      for token in shared_tokens)
            cosine = dot / (left.norm * right.norm)
        else:
            # An integer dot of 0 divided by the positive norms is exactly 0.
            cosine = 0.0
    qgrams_l, qgrams_r = left.qgrams, right.qgrams
    if not qgrams_l and not qgrams_r:
        qgram_jaccard = 1.0
    else:
        num_shared_q = len(qgrams_l & qgrams_r)
        union_q = len(qgrams_l) + len(qgrams_r) - num_shared_q
        qgram_jaccard = num_shared_q / union_q if union_q else 0.0
    features = [token_jaccard, qgram_jaccard, overlap, cosine]
    if kind is AttributeType.NUMERIC:
        features.append(numeric_similarity(left_value, right_value))
    elif max(len(left_value), len(right_value)) <= _EDIT_DISTANCE_MAX_LENGTH:
        features.append(_normalized_levenshtein(left, right))
    else:
        features.append(jaro_winkler_similarity(left_value[:_EDIT_DISTANCE_MAX_LENGTH],
                                                right_value[:_EDIT_DISTANCE_MAX_LENGTH]))
    features.append(float(left.blank or right.blank))
    return features


class PairFeaturizer:
    """Transforms candidate pairs of an :class:`EMDataset` into feature vectors."""

    #: Number of similarity features emitted per attribute.
    SIMILARITIES_PER_ATTRIBUTE = 6

    def __init__(self, config: FeaturizerConfig | None = None) -> None:
        self.config = config or FeaturizerConfig()
        self._hasher = HashingVectorizer(HashingVectorizerConfig(
            num_features=self.config.hash_dim,
            qgram_size=self.config.qgram_size,
        ))

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
           records collapse too) and each unique text is vectorized once via
           the bulk hashing path;
        2. the output matrix is allocated once, and every feature family is
           written into its own columns: the raw blocks are gathered from
           the per-record matrix with ``np.take(..., out=)``, and the
           interactions are computed from them with ``np.multiply`` and
           ``np.subtract`` + ``np.abs`` into their slices;
        3. per-attribute similarity features are computed once per unique
           ``(left_value, right_value)`` combination, with token/q-gram
           sets and count norms cached per unique value of one attribute at
           a time, straight into the last columns.

        No second matrix-sized array is alive at any point.  ``np.take``
        buffers a non-contiguous ``out``, so each raw block costs one
        transient block-sized buffer.
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
        width = config.hash_dim
        column = 0
        if config.include_raw or config.include_interactions:
            left_rows, right_rows, unique_texts = self._record_rows(
                pairs, left_records, right_records, attributes)
            record_matrix = self._hasher.transform(unique_texts)
            if config.include_raw:
                left = np.take(record_matrix, left_rows, axis=0,
                               out=output[:, :width])
                right = np.take(record_matrix, right_rows, axis=0,
                                out=output[:, width:2 * width])
                column = 2 * width
            else:
                left = record_matrix[left_rows]
                right = record_matrix[right_rows]
            if config.include_interactions:
                np.multiply(left, right, out=output[:, column:column + width])
                column += width
                difference = np.subtract(left, right,
                                         out=output[:, column:column + width])
                np.abs(difference, out=difference)
                column += width

        if config.include_similarities:
            self._similarity_block(left_records, right_records, attributes,
                                   dataset.left.schema, output[:, column:])
        return output

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
        :attr:`SIMILARITIES_PER_ATTRIBUTE` columns per attribute; each
        value pair's features are computed once.
        """
        per_attribute = self.SIMILARITIES_PER_ATTRIBUTE
        qgram_size = self.config.qgram_size
        value_entries: dict[str, _ValueEntry] = {}

        def entry_of(value: str) -> _ValueEntry:
            entry = value_entries.get(value)
            if entry is None:
                entry = _ValueEntry(value, qgram_size)
                value_entries[value] = entry
            return entry

        for attribute_index, name in enumerate(attributes):
            # Values rarely repeat across attributes, and their token and
            # q-gram sets are the largest transient of a transform, so the
            # cache holds one attribute's values at a time.
            value_entries.clear()
            kind = schema.attribute(name).kind
            start = attribute_index * per_attribute
            keys = [(left.value(name), right.value(name))
                    for left, right in zip(left_records, right_records)]
            pair_cache: dict[tuple[str, str], list[float]] = {}
            for key in keys:
                if key not in pair_cache:
                    pair_cache[key] = _cached_similarities(
                        entry_of(key[0]), entry_of(key[1]), kind, qgram_size)
            # One vectorized conversion per attribute instead of one slice
            # assignment per pair.
            block[:, start:start + per_attribute] = [pair_cache[key]
                                                     for key in keys]
