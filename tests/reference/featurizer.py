"""The per-pair featurization loop: the oracle for ``repro.neural.featurizer``
and ``repro.text.vectorizers``.

:func:`transform_reference` builds the feature matrix one pair at a time:
both record texts are hashed one feature occurrence at a time
(:func:`transform_one`) and every similarity measure is recomputed from the
raw strings with the measures of ``repro.text.similarity``.
``PairFeaturizer.transform`` must match it bit for bit, and
``HashingVectorizer.transform`` must match :func:`transform_one` stacked.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.data.dataset import EMDataset
from repro.data.pair import CandidatePair
from repro.data.record import Record
from repro.data.schema import AttributeType, Schema
from repro.neural.featurizer import _EDIT_DISTANCE_MAX_LENGTH, PairFeaturizer
from repro.text.similarity import (
    cosine_token_similarity,
    jaccard_similarity,
    jaro_winkler_similarity,
    levenshtein_similarity,
    numeric_similarity,
    overlap_coefficient,
    qgram_jaccard_similarity,
)
from repro.text.tokenization import qgrams, tokenize
from repro.text.vectorizers import HashingVectorizerConfig, _stable_hash


def transform_one(config: HashingVectorizerConfig, text: str) -> np.ndarray:
    """Hash one text, one feature occurrence at a time (the seed path)."""
    features = tokenize(text)
    if config.use_qgrams:
        features.extend(qgrams(text, q=config.qgram_size))
    vector = np.zeros(config.num_features, dtype=np.float64)
    for feature in features:
        hashed = _stable_hash(feature, config.seed)
        index = hashed % config.num_features
        if config.signed:
            sign = 1.0 if (hashed >> 32) & 1 else -1.0
        else:
            sign = 1.0
        vector[index] += sign
    if config.normalize:
        norm = np.linalg.norm(vector)
        if norm > 0:
            vector /= norm
    return vector


def attribute_similarities(left_value: str, right_value: str,
                           kind: AttributeType, qgram_size: int) -> list[float]:
    """Similarity features for one attribute of a pair, from the raw strings."""
    features = [
        jaccard_similarity(left_value, right_value),
        qgram_jaccard_similarity(left_value, right_value, q=qgram_size),
        overlap_coefficient(left_value, right_value),
        cosine_token_similarity(left_value, right_value),
    ]
    if kind is AttributeType.NUMERIC:
        features.append(numeric_similarity(left_value, right_value))
    elif max(len(left_value), len(right_value)) <= _EDIT_DISTANCE_MAX_LENGTH:
        features.append(levenshtein_similarity(left_value, right_value))
    else:
        features.append(jaro_winkler_similarity(left_value[:_EDIT_DISTANCE_MAX_LENGTH],
                                                right_value[:_EDIT_DISTANCE_MAX_LENGTH]))
    missing = float(not left_value.strip() or not right_value.strip())
    features.append(missing)
    return features


def _serialized_attributes(dataset: EMDataset) -> tuple[str, ...]:
    if dataset.attributes is not None:
        return tuple(name for name in dataset.attributes
                     if name in dataset.left.schema.attribute_names)
    return dataset.left.schema.attribute_names


def _record_text(record: Record, attributes: Sequence[str]) -> str:
    return " ".join(record.value(name) for name in attributes)


def pair_features(featurizer: PairFeaturizer, dataset: EMDataset,
                  pair: CandidatePair, attributes: Sequence[str],
                  schema: Schema) -> np.ndarray:
    """Feature vector of one pair."""
    config = featurizer.config
    left, right = dataset.records_for(pair)
    parts: list[np.ndarray] = []

    if config.include_raw or config.include_interactions:
        hashing = HashingVectorizerConfig(num_features=config.hash_dim,
                                          qgram_size=config.qgram_size)
        left_vector = transform_one(hashing, _record_text(left, attributes))
        right_vector = transform_one(hashing, _record_text(right, attributes))
        if config.include_raw:
            parts.extend((left_vector, right_vector))
        if config.include_interactions:
            parts.append(left_vector * right_vector)
            parts.append(np.abs(left_vector - right_vector))

    if config.include_similarities:
        similarities: list[float] = []
        for name in attributes:
            kind = schema.attribute(name).kind
            similarities.extend(attribute_similarities(
                left.value(name), right.value(name), kind, config.qgram_size))
        parts.append(np.asarray(similarities, dtype=np.float64))

    return np.concatenate(parts)


def transform_reference(featurizer: PairFeaturizer, dataset: EMDataset,
                        indices: Sequence[int] | None = None) -> np.ndarray:
    """Feature matrix of the pairs at ``indices`` (all by default), pair by pair."""
    if indices is None:
        indices = range(len(dataset.pairs))
    attributes = _serialized_attributes(dataset)
    schema = dataset.left.schema
    rows = [pair_features(featurizer, dataset, dataset.pairs[int(i)], attributes, schema)
            for i in indices]
    if not rows:
        return np.zeros((0, featurizer.feature_dim(dataset)), dtype=np.float64)
    return np.vstack(rows)
