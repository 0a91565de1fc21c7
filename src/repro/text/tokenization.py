"""Tokenization utilities shared by blocking, featurization, and similarity.

All functions are pure and operate on plain strings; there is no global state.
"""

from __future__ import annotations

import re
from collections import Counter

_TOKEN_PATTERN = re.compile(r"[a-z0-9]+")
_WHITESPACE_PATTERN = re.compile(r"\s+")


def normalize(text: str) -> str:
    """Lowercase ``text`` and collapse whitespace runs to single spaces."""
    return _WHITESPACE_PATTERN.sub(" ", text.strip().lower())


def tokenize(text: str) -> list[str]:
    """Split ``text`` into lowercase alphanumeric tokens."""
    return _TOKEN_PATTERN.findall(text.lower())


def token_set(text: str) -> set[str]:
    """The set of distinct tokens of ``text``."""
    return set(tokenize(text))


def token_counts(text: str) -> Counter:
    """Token multiset of ``text`` as a :class:`collections.Counter`."""
    return Counter(tokenize(text))


def qgrams(text: str, q: int = 3) -> list[str]:
    """Character q-grams of ``text``.

    ``text`` is normalized (lowercased, whitespace collapsed) and padded with
    ``q - 1`` ``#`` characters on both ends, so that prefixes and suffixes
    generate grams too (the standard construction for q-gram blocking).  A
    non-empty text therefore yields at least one gram of length ``q``; ``q``
    must be positive.
    """
    if q <= 0:
        raise ValueError(f"q must be positive, got {q}")
    normalized = normalize(text)
    if not normalized:
        return []
    padding = "#" * (q - 1)
    padded = f"{padding}{normalized}{padding}"
    return [padded[i:i + q] for i in range(len(padded) - q + 1)]


def qgram_set(text: str, q: int = 3) -> set[str]:
    """The set of distinct character q-grams of ``text``."""
    return set(qgrams(text, q=q))
