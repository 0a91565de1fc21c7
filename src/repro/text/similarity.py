"""String and attribute similarity measures.

Traditional entity-matching systems describe a candidate pair with a vector
of similarity scores between corresponding attribute values; the pair
featurizer (:mod:`repro.neural.featurizer`) appends such a vector to its
hashed text features.  This module implements the measures it uses from
scratch: Levenshtein, Jaro, Jaro-Winkler, Jaccard (token and q-gram), the
overlap coefficient, cosine similarity over token counts, and a numeric
measure.  All measures return values in ``[0, 1]`` with 1 meaning identical.

The scalar measures are the definitions.  The featurizer compares many value
pairs at once through the batched forms of the two edit measures
(:func:`levenshtein_similarities` and :func:`jaro_winkler_similarities`):
each takes a list of unique ``values`` and two integer arrays
``left``/``right`` indexing it, and its element ``i`` equals the scalar
measure on ``(values[left[i]], values[right[i]])`` bit for bit.  Levenshtein
runs Myers' recurrence on ``uint64`` lanes and Jaro-Winkler runs its greedy
matching on boolean lanes, one lane per pair, at most :data:`_LANE_CHUNK`
pairs per pass.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from repro.text.tokenization import normalize, qgram_set, token_counts, token_set

#: Weight of each common-prefix character in Jaro-Winkler.
_PREFIX_WEIGHT = 0.1

#: Pairs per pass of the batched kernels; bounds every per-pass array (a
#: Levenshtein pass holds a ``(pairs, text length, 64)`` boolean table).
_LANE_CHUNK = 512


def _chunks(count: int) -> Iterable[slice]:
    return (slice(start, min(start + _LANE_CHUNK, count))
            for start in range(0, count, _LANE_CHUNK))


def _normalized(values: Sequence[str], left: np.ndarray,
                right: np.ndarray) -> list[str]:
    """:func:`normalize` of every value a pair refers to, ``""`` for the rest."""
    referenced = np.zeros(len(values), dtype=bool)
    referenced[left] = True
    referenced[right] = True
    return [normalize(value) if keep else ""
            for value, keep in zip(values, referenced.tolist())]


def _code_matrix(strings: list[str], width: int) -> np.ndarray:
    """``(len(strings), width)`` code points, each row zero-padded."""
    return np.array(strings, dtype=f"U{width}").view(np.uint32).reshape(
        len(strings), width)


def _levenshtein_bitparallel(pattern: str, text: str) -> int:
    """Myers' bit-parallel exact edit distance (pattern of <= 64 chars).

    Encodes a whole DP column in the bits of one integer (Myers 1999, in
    Hyyrö's formulation), so each text character costs a handful of integer
    operations instead of a Python inner loop over the pattern; returns the
    same integer as the dynamic program.
    """
    positions: dict[str, int] = {}
    bit = 1
    for char in pattern:
        positions[char] = positions.get(char, 0) | bit
        bit <<= 1
    length = len(pattern)
    mask = (1 << length) - 1
    high = 1 << (length - 1)
    vp = mask
    vn = 0
    distance = length
    get_positions = positions.get
    for char in text:
        pm = get_positions(char, 0)
        d0 = ((((pm & vp) + vp) ^ vp) | pm | vn) & mask
        hp = vn | (~(d0 | vp) & mask)
        hn = d0 & vp
        if hp & high:
            distance += 1
        if hn & high:
            distance -= 1
        hp = ((hp << 1) | 1) & mask
        hn = (hn << 1) & mask
        vp = hn | (~(d0 | hp) & mask)
        vn = hp & d0
    return distance


def levenshtein_distance(a: str, b: str) -> int:
    """Edit distance between ``a`` and ``b`` (insert / delete / substitute)."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) < len(b):
        a, b = b, a
    if len(b) <= 64:
        # The shorter string fits one bit-parallel word; exact and much
        # faster than the row DP.
        return _levenshtein_bitparallel(b, a)
    previous = list(range(len(b) + 1))
    for i, char_a in enumerate(a, start=1):
        current = [i]
        for j, char_b in enumerate(b, start=1):
            cost = 0 if char_a == char_b else 1
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost))
        previous = current
    return previous[-1]


def levenshtein_similarity(a: str, b: str) -> float:
    """Edit distance normalized into a similarity in ``[0, 1]``."""
    a, b = normalize(a), normalize(b)
    if not a and not b:
        return 1.0
    if not a or not b:
        # distance == max length exactly, so the similarity is 0; skip the DP.
        return 0.0
    longest = max(len(a), len(b))
    return 1.0 - levenshtein_distance(a, b) / longest


def levenshtein_similarities(values: Sequence[str], left: np.ndarray,
                             right: np.ndarray) -> np.ndarray:
    """:func:`levenshtein_similarity` of every pair of ``values[left[i]]``, ``values[right[i]]``.

    A pair whose shorter normalized value fits 64 characters is one lane of
    :func:`_myers_pass`, with the shorter value as its pattern; lanes run
    longest text first, so the lanes still reading text at step ``j`` are a
    prefix of a pass.  A longer pattern (Unicode lowercasing can lengthen a
    value) takes :func:`levenshtein_distance`'s dynamic program.
    """
    normalized = _normalized(values, left, right)
    lengths = np.fromiter(map(len, normalized), dtype=np.int64,
                          count=len(normalized))
    left_lengths, right_lengths = lengths[left], lengths[right]
    longest = np.maximum(left_lengths, right_lengths)
    shortest = np.minimum(left_lengths, right_lengths)
    swap = left_lengths > right_lengths
    patterns = np.where(swap, right, left)
    texts = np.where(swap, left, right)
    similarities = np.where(longest == 0, 1.0, 0.0)
    lanes = np.flatnonzero((shortest > 0) & (shortest <= 64))
    lanes = lanes[np.argsort(-longest[lanes], kind="stable")]
    for chunk in _chunks(len(lanes)):
        pairs = lanes[chunk]
        distances = _myers_pass(
            [normalized[i] for i in patterns[pairs].tolist()],
            [normalized[i] for i in texts[pairs].tolist()],
            shortest[pairs], longest[pairs])
        similarities[pairs] = 1.0 - distances / longest[pairs]
    for pair in np.flatnonzero(shortest > 64).tolist():
        distance = levenshtein_distance(normalized[left[pair]],
                                        normalized[right[pair]])
        similarities[pair] = 1.0 - distance / int(longest[pair])
    return similarities


def _myers_pass(patterns: list[str], texts: list[str],
                pattern_lengths: np.ndarray,
                text_lengths: np.ndarray) -> np.ndarray:
    """:func:`_levenshtein_bitparallel` with one ``uint64`` lane per pair.

    Texts come longest first.  ``match[j, lane]`` holds the lane's bitmask
    of the pattern positions equal to its ``j``-th text character, built
    for all lanes with one comparison and one :func:`numpy.packbits`.  The
    recurrence is the scalar's without its ``& mask``: sums carry and
    shifts move bits only upwards, so the bits above a lane's pattern
    length never reach the bits the scalar keeps, and the distance reads
    bit ``length - 1`` only.
    """
    lanes, width = len(patterns), int(text_lengths[0])
    pattern_width = int(pattern_lengths.max())
    pattern_codes = _code_matrix(patterns, pattern_width)
    text_codes = _code_matrix(texts, width)
    table = np.zeros((width, lanes, 8), dtype=np.uint8)
    table[:, :, :(pattern_width + 7) // 8] = np.packbits(
        text_codes.T[:, :, None] == pattern_codes, axis=2, bitorder="little")
    match = table.view("<u8")[:, :, 0]
    top = (pattern_lengths - 1).astype(np.uint64)
    vp = np.full(lanes, 0xFFFF_FFFF_FFFF_FFFF, dtype=np.uint64)
    vn = np.zeros(lanes, dtype=np.uint64)
    distance = pattern_lengths.astype(np.uint64)
    active = np.searchsorted(-text_lengths, -np.arange(width), side="left")
    for step, count in enumerate(active.tolist()):
        pm = match[step, :count]
        vp_, vn_ = vp[:count], vn[:count]
        d0 = (((pm & vp_) + vp_) ^ vp_) | pm | vn_
        hp = vn_ | ~(d0 | vp_)
        hn = d0 & vp_
        distance[:count] += (hp >> top[:count]) & 1
        distance[:count] -= (hn >> top[:count]) & 1
        hp = (hp << 1) | 1
        vp[:count] = (hn << 1) | ~(d0 | hp)
        vn[:count] = hp & d0
    return distance.astype(np.int64)


def jaro_similarity(a: str, b: str) -> float:
    """Jaro similarity between ``a`` and ``b``."""
    a, b = normalize(a), normalize(b)
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    if a == b:
        return 1.0
    match_window = max(len(a), len(b)) // 2 - 1
    match_window = max(match_window, 0)
    a_matches = [False] * len(a)
    b_matches = [False] * len(b)
    matches = 0
    for i, char_a in enumerate(a):
        start = max(0, i - match_window)
        end = min(i + match_window + 1, len(b))
        for j in range(start, end):
            if b_matches[j] or b[j] != char_a:
                continue
            a_matches[i] = True
            b_matches[j] = True
            matches += 1
            break
    if matches == 0:
        return 0.0
    transpositions = 0
    j = 0
    for i, matched in enumerate(a_matches):
        if not matched:
            continue
        while not b_matches[j]:
            j += 1
        if a[i] != b[j]:
            transpositions += 1
        j += 1
    transpositions //= 2
    return (matches / len(a) + matches / len(b) + (matches - transpositions) / matches) / 3.0


def jaro_winkler_similarity(a: str, b: str) -> float:
    """Jaro-Winkler similarity: Jaro boosted by the length of the common prefix."""
    jaro = jaro_similarity(a, b)
    a, b = normalize(a), normalize(b)
    prefix = 0
    for char_a, char_b in zip(a[:4], b[:4]):
        if char_a != char_b:
            break
        prefix += 1
    return jaro + prefix * _PREFIX_WEIGHT * (1.0 - jaro)


def jaro_winkler_similarities(values: Sequence[str], left: np.ndarray,
                              right: np.ndarray) -> np.ndarray:
    """:func:`jaro_winkler_similarity` of every pair of ``values[left[i]]``, ``values[right[i]]``.

    Pairs of distinct non-empty normalized values are lanes of
    :func:`_jaro_pass`; the common prefix and the Winkler boost are the
    scalar's, in the scalar's order.
    """
    normalized = _normalized(values, left, right)
    lengths = np.fromiter(map(len, normalized), dtype=np.int64,
                          count=len(normalized))
    left_lengths, right_lengths = lengths[left], lengths[right]
    equal = np.fromiter(
        (normalized[a] == normalized[b]
         for a, b in zip(left.tolist(), right.tolist())),
        dtype=bool, count=len(left))
    jaro = np.where(equal, 1.0, 0.0)
    lanes = np.flatnonzero(~equal & (left_lengths > 0) & (right_lengths > 0))
    lanes = lanes[np.argsort(-left_lengths[lanes], kind="stable")]
    for chunk in _chunks(len(lanes)):
        pairs = lanes[chunk]
        jaro[pairs] = _jaro_pass(
            [normalized[i] for i in left[pairs].tolist()],
            [normalized[i] for i in right[pairs].tolist()],
            left_lengths[pairs], right_lengths[pairs])
    heads = _code_matrix([string[:4] for string in normalized], 4)
    agree = ((heads[left] == heads[right])
             & (np.arange(4) < np.minimum(left_lengths, right_lengths)[:, None]))
    prefix = np.cumprod(agree, axis=1).sum(axis=1)
    return jaro + prefix * _PREFIX_WEIGHT * (1.0 - jaro)


def _jaro_pass(a_strings: list[str], b_strings: list[str],
               a_lengths: np.ndarray, b_lengths: np.ndarray) -> np.ndarray:
    """:func:`jaro_similarity` with one boolean lane per pair.

    The ``a`` strings come longest first, so the lanes still matching at
    step ``i`` are a prefix.  Each step gives every active lane's ``a[i]``
    the first free ``b[j]`` inside its window, as the scalar's inner loop
    does; the ``k``-th matched characters of ``a`` and ``b`` then pair up
    for the transpositions.
    """
    lanes, a_width, b_width = len(a_strings), int(a_lengths[0]), int(b_lengths.max())
    a_codes = _code_matrix(a_strings, a_width)
    b_codes = _code_matrix(b_strings, b_width)
    # Offsets and windows in the narrowest type that holds them: the
    # comparison spans the whole (lanes, a_width, b_width) table.
    reach = np.min_scalar_type(max(a_width, b_width))
    offsets = np.abs(np.arange(a_width)[:, None] - np.arange(b_width)).astype(reach)
    window = np.maximum(np.maximum(a_lengths, b_lengths) // 2 - 1, 0).astype(reach)
    candidates = a_codes[:, :, None] == b_codes[:, None, :]
    candidates &= offsets <= window[:, None, None]
    # Padding past a lane's b string is never free, so never matched.
    b_real = np.arange(b_width) < b_lengths[:, None]
    b_free = b_real.copy()
    a_matched = np.zeros(a_codes.shape, dtype=bool)
    rows = np.arange(lanes)
    active = np.searchsorted(-a_lengths, -np.arange(a_width), side="left")
    for i, count in enumerate(active.tolist()):
        options = candidates[:count, i] & b_free[:count]
        first = options.argmax(axis=1)
        hit = options[rows[:count], first].nonzero()[0]
        a_matched[hit, i] = True
        b_free[hit, first[hit]] = False
    matches = a_matched.sum(axis=1)
    crossed = a_codes[a_matched] != b_codes[b_real & ~b_free]
    transpositions = np.bincount(np.nonzero(a_matched)[0][crossed],
                                 minlength=lanes) // 2
    jaro = np.zeros(lanes)
    hit = matches > 0
    m, t = matches[hit], transpositions[hit]
    jaro[hit] = (m / a_lengths[hit] + m / b_lengths[hit] + (m - t) / m) / 3.0
    return jaro


def jaccard_similarity(a: str, b: str) -> float:
    """Jaccard similarity over word tokens."""
    set_a, set_b = token_set(a), token_set(b)
    if not set_a and not set_b:
        return 1.0
    union = set_a | set_b
    if not union:
        return 0.0
    return len(set_a & set_b) / len(union)


def qgram_jaccard_similarity(a: str, b: str, q: int = 3) -> float:
    """Jaccard similarity over character q-grams."""
    set_a, set_b = qgram_set(a, q=q), qgram_set(b, q=q)
    if not set_a and not set_b:
        return 1.0
    union = set_a | set_b
    if not union:
        return 0.0
    return len(set_a & set_b) / len(union)


def overlap_coefficient(a: str, b: str) -> float:
    """Token overlap coefficient: ``|A ∩ B| / min(|A|, |B|)``."""
    set_a, set_b = token_set(a), token_set(b)
    if not set_a and not set_b:
        return 1.0
    if not set_a or not set_b:
        return 0.0
    return len(set_a & set_b) / min(len(set_a), len(set_b))


def cosine_token_similarity(a: str, b: str) -> float:
    """Cosine similarity between token count vectors."""
    counts_a, counts_b = token_counts(a), token_counts(b)
    if not counts_a and not counts_b:
        return 1.0
    if not counts_a or not counts_b:
        return 0.0
    shared = set(counts_a) & set(counts_b)
    dot = sum(counts_a[token] * counts_b[token] for token in shared)
    norm_a = math.sqrt(sum(value * value for value in counts_a.values()))
    norm_b = math.sqrt(sum(value * value for value in counts_b.values()))
    if norm_a == 0 or norm_b == 0:
        return 0.0
    return dot / (norm_a * norm_b)


def numeric_similarity(a: str, b: str) -> float:
    """Similarity between numeric strings: ``1 - |x - y| / max(|x|, |y|)``.

    Non-numeric input falls back to :func:`levenshtein_similarity`; both
    missing yields 1.0, one missing yields 0.0.
    """
    a, b = a.strip(), b.strip()
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    try:
        x, y = float(a.replace(",", "")), float(b.replace(",", ""))
    except ValueError:
        return levenshtein_similarity(a, b)
    if x == y:
        return 1.0
    denominator = max(abs(x), abs(y))
    if denominator == 0:
        return 1.0
    return max(0.0, 1.0 - abs(x - y) / denominator)

