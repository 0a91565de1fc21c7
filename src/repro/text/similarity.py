"""String and attribute similarity measures.

Traditional entity-matching systems describe a candidate pair with a vector
of similarity scores between corresponding attribute values; the pair
featurizer (:mod:`repro.neural.featurizer`) appends such a vector to its
hashed text features.  This module implements the measures it uses from
scratch: Levenshtein, Jaro, Jaro-Winkler, Jaccard (token and q-gram), the
overlap coefficient, cosine similarity over token counts, and a numeric
measure.  All measures return values in ``[0, 1]`` with 1 meaning identical.
"""

from __future__ import annotations

import math

from repro.text.tokenization import normalize, qgram_set, token_counts, token_set


def character_positions(pattern: str) -> dict[str, int]:
    """Bitmask of the positions of every character of ``pattern``.

    The table feeding :func:`bitparallel_levenshtein`; callers that compare
    one string against many (the batched featurizer) build it once per
    string and reuse it across comparisons.
    """
    positions: dict[str, int] = {}
    bit = 1
    for char in pattern:
        positions[char] = positions.get(char, 0) | bit
        bit <<= 1
    return positions


def bitparallel_levenshtein(positions: dict[str, int], length: int,
                            text: str) -> int:
    """Myers' bit-parallel exact edit distance (pattern of <= 64 chars).

    Encodes a whole DP column in the bits of one integer (Myers 1999, in
    Hyyrö's formulation), so each text character costs a handful of integer
    operations instead of a Python inner loop over the pattern.  Takes the
    pattern pre-digested as its :func:`character_positions` table plus its
    ``length``; returns the same integer as the dynamic program.
    """
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


def _levenshtein_bitparallel(pattern: str, text: str) -> int:
    """Exact edit distance via the bit-parallel core (pattern <= 64 chars)."""
    return bitparallel_levenshtein(character_positions(pattern), len(pattern),
                                   text)


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


def jaro_winkler_similarity(a: str, b: str, prefix_weight: float = 0.1) -> float:
    """Jaro-Winkler similarity: Jaro boosted by the length of the common prefix."""
    jaro = jaro_similarity(a, b)
    a, b = normalize(a), normalize(b)
    prefix = 0
    for char_a, char_b in zip(a[:4], b[:4]):
        if char_a != char_b:
            break
        prefix += 1
    return jaro + prefix * prefix_weight * (1.0 - jaro)


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

