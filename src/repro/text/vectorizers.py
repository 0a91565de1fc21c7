"""Text vectorization implemented with NumPy.

:func:`hash_texts` hashes the tokens and character q-grams of each text into
a fixed-width vector.  It is the front end of the neural matcher substrate
(:mod:`repro.neural`): the DITTO model of the paper reads ``[COL] attribute
[VAL] value`` pair text through a subword tokenizer; we hash each record's
space-joined attribute values instead, which needs no vocabulary fitting and
therefore behaves identically across active-learning iterations.
:func:`cosine_similarity_matrix` gives the edge weights of the pair graphs
and the neighbours of Figure 1.
"""

from __future__ import annotations

import hashlib
from itertools import chain
from typing import Sequence

import numpy as np

from repro.text.tokenization import qgrams, tokenize

#: Texts hashed per pass of :func:`hash_texts`.
_TEXT_CHUNK = 256

#: Prefix of every hashed feature string; it fixes which column and sign
#: each feature gets.
_HASH_SEED = 17


def _stable_hash(feature: str) -> int:
    """Deterministic 64-bit hash of ``feature`` (stable across processes)."""
    digest = hashlib.blake2b(f"{_HASH_SEED}:{feature}".encode("utf-8"),
                             digest_size=8).digest()
    return int.from_bytes(digest, "little")


def hash_texts(texts: Sequence[str], num_features: int,
               qgram_size: int) -> np.ndarray:
    """Hash each text's tokens and ``qgram_size``-grams into a unit row.

    A feature with hash ``h`` counts ``+1`` in column ``h % num_features``
    if bit 32 of ``h`` is set and ``-1`` otherwise (signed feature hashing,
    Weinberger et al., ICML 2009); each row is then scaled to unit length,
    and a row whose counts are all zero stays zero.  Every distinct feature
    string is hashed once per call, and texts are scattered
    :data:`_TEXT_CHUNK` at a time with one :func:`numpy.bincount`, so only
    one chunk's feature strings are alive at once.  A row holds integer
    counts, whose float64 sums and squares are exact in any order, so the
    output equals hashing every occurrence of every text one vector at a
    time, bit for bit.
    """
    matrix = np.zeros((len(texts), num_features), dtype=np.float64)
    # feature string → ±(column + 1); the sign is the scatter sign.
    table: dict[str, int] = {}
    for start in range(0, len(texts), _TEXT_CHUNK):
        per_text = []
        for text in texts[start:start + _TEXT_CHUNK]:
            # Extended in place: ``+`` would copy each list, and in repeated
            # ``tiny`` set-ups that copy raised the peak RSS by 1 MB.
            features = tokenize(text)
            features.extend(qgrams(text, q=qgram_size))
            per_text.append(features)
        for feature in chain.from_iterable(per_text):
            if feature not in table:
                hashed = _stable_hash(feature)
                column = hashed % num_features + 1
                table[feature] = column if (hashed >> 32) & 1 else -column
        count = len(per_text)
        lengths = np.fromiter(map(len, per_text), dtype=np.int64, count=count)
        # Translate features through the table at C speed; the sign of a
        # packed entry is the scatter sign, its magnitude - 1 the column.
        packed = np.fromiter(map(table.__getitem__, chain.from_iterable(per_text)),
                             dtype=np.int64, count=int(lengths.sum()))
        rows = np.repeat(np.arange(count, dtype=np.int64), lengths)
        counts = np.bincount(rows * num_features + np.abs(packed) - 1,
                             weights=np.where(packed > 0, 1.0, -1.0),
                             minlength=count * num_features)
        matrix[start:start + count] = counts.reshape(count, num_features)
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    np.divide(matrix, norms, out=matrix, where=norms > 0)
    return matrix


def cosine_similarity_matrix(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Pairwise cosine similarities between rows of ``a`` and rows of ``b``."""
    a = np.asarray(a, dtype=np.float64)
    b = a if b is None else np.asarray(b, dtype=np.float64)
    a_norms = np.linalg.norm(a, axis=1, keepdims=True)
    b_norms = np.linalg.norm(b, axis=1, keepdims=True)
    a_norms[a_norms == 0] = 1.0
    b_norms[b_norms == 0] = 1.0
    return (a / a_norms) @ (b / b_norms).T
