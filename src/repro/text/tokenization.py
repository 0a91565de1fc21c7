"""Tokenization utilities shared by blocking, featurization, and similarity.

All functions are pure and operate on plain strings; there is no global state.
"""

from __future__ import annotations

import re
from collections import Counter
from typing import Iterable

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


def qgrams(text: str, q: int = 3, pad: bool = True) -> list[str]:
    """Character q-grams of ``text``.

    Parameters
    ----------
    text:
        Input string; normalized (lowercased, whitespace collapsed) first.
    q:
        Gram length; must be positive.
    pad:
        Pad the string with ``q - 1`` ``#`` characters on both ends so that
        prefixes/suffixes generate grams, which is the standard construction
        for q-gram blocking.
    """
    if q <= 0:
        raise ValueError(f"q must be positive, got {q}")
    normalized = normalize(text)
    if not normalized:
        return []
    if pad and q > 1:
        padding = "#" * (q - 1)
        normalized = f"{padding}{normalized}{padding}"
    if len(normalized) < q:
        return [normalized]
    return [normalized[i:i + q] for i in range(len(normalized) - q + 1)]


def qgram_set(text: str, q: int = 3, pad: bool = True) -> set[str]:
    """The set of distinct character q-grams of ``text``."""
    return set(qgrams(text, q=q, pad=pad))


def token_sets(texts: Iterable[str]) -> list[set[str]]:
    """Token sets of many texts, extracting each *distinct* text once.

    Blocking-scale tables repeat values heavily (catalogs share brands,
    models, and templated titles), so memoizing on the exact text string
    turns the bulk extraction cost into one regex pass per distinct value.
    The returned sets are shared between duplicate texts; callers must not
    mutate them.
    """
    cache: dict[str, set[str]] = {}
    result = []
    for text in texts:
        features = cache.get(text)
        if features is None:
            features = token_set(text)
            cache[text] = features
        result.append(features)
    return result


def word_ngrams(text: str, n: int = 2) -> list[str]:
    """Word n-grams (joined with underscores) of ``text``."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    tokens = tokenize(text)
    if len(tokens) < n:
        return ["_".join(tokens)] if tokens else []
    return ["_".join(tokens[i:i + n]) for i in range(len(tokens) - n + 1)]


def vocabulary(texts: Iterable[str], min_count: int = 1) -> dict[str, int]:
    """Token → index mapping over ``texts``, keeping tokens seen >= ``min_count`` times."""
    counts: Counter = Counter()
    for text in texts:
        counts.update(tokenize(text))
    kept = sorted(token for token, count in counts.items() if count >= min_count)
    return {token: index for index, token in enumerate(kept)}
