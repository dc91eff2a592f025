"""String-similarity feature engineering for the Magellan baseline.

"Magellan generates features for entity pairs using a set of distance
functions" (Section 6.1).  For every attribute shared by the two entities we
compute a battery of similarity measures; the per-attribute vectors are
concatenated (plus whole-record measures) into the pair's feature vector.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.data.schema import Entity, EntityPair
from repro.text.tokenizer import tokenize
from repro.text.vocab import NAN_TOKEN


def levenshtein(a: str, b: str) -> int:
    """Edit distance by Myers' bit-vector algorithm (Hyyrö's formulation).

    The longer string is the pattern, one bit per character: bit ``i`` of
    ``pv``/``mv`` says whether cell ``i`` of the current dynamic-programming
    column is one more / one less than the cell above it.  Each character
    of the shorter string advances the whole column with a dozen integer
    operations (Python ints are as wide as the pattern), and ``distance``
    tracks the column's last cell.  Exact: the same distance as the
    two-row dynamic program (G. Myers, JACM 46(3), 1999).
    """
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    peq: Dict[str, int] = {}
    for i, char in enumerate(a):
        peq[char] = peq.get(char, 0) | (1 << i)
    full = (1 << len(a)) - 1
    last = 1 << (len(a) - 1)
    pv, mv, distance = full, 0, len(a)
    for char in b:
        eq = peq.get(char, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:
            distance += 1
        elif mh & last:
            distance -= 1
        ph = (ph << 1) | 1
        mh <<= 1
        pv = (mh | ~(xv | ph)) & full
        mv = ph & xv
    return distance


def levenshtein_similarity(a: str, b: str) -> float:
    """1 - normalized edit distance."""
    if not a and not b:
        return 1.0
    return 1.0 - levenshtein(a, b) / max(len(a), len(b))


def jaccard(a: set, b: set) -> float:
    if not a and not b:
        return 1.0
    union = len(a | b)
    return len(a & b) / union if union else 0.0


def overlap_coefficient(a: set, b: set) -> float:
    if not a or not b:
        return 0.0
    return len(a & b) / min(len(a), len(b))


def containment(a: set, b: set) -> float:
    """Fraction of a's tokens contained in b."""
    if not a:
        return 0.0
    return len(a & b) / len(a)


def cosine_tokens(a: Sequence[str], b: Sequence[str]) -> float:
    if not a or not b:
        return 0.0
    counts_a: Dict[str, int] = {}
    counts_b: Dict[str, int] = {}
    for t in a:
        counts_a[t] = counts_a.get(t, 0) + 1
    for t in b:
        counts_b[t] = counts_b.get(t, 0) + 1
    dot = sum(counts_a[t] * counts_b.get(t, 0) for t in counts_a)
    norm = np.sqrt(sum(v * v for v in counts_a.values())) * np.sqrt(sum(v * v for v in counts_b.values()))
    return float(dot / norm) if norm else 0.0


def qgrams(text: str, q: int = 3) -> set:
    padded = f"##{text}##"
    return {padded[i:i + q] for i in range(len(padded) - q + 1)}


def numeric_similarity(a: str, b: str) -> float:
    """Relative closeness of two numeric strings (0 if not numeric)."""
    try:
        fa, fb = float(a), float(b)
    except ValueError:
        return 0.0
    denom = max(abs(fa), abs(fb))
    if denom == 0:
        return 1.0
    return max(0.0, 1.0 - abs(fa - fb) / denom)


FEATURE_NAMES = [
    "lev_sim", "jaccard_word", "jaccard_3gram", "overlap", "containment_lr",
    "cosine", "exact", "numeric", "len_ratio", "missing",
]


def similarity_features(a: str, b: str) -> List[float]:
    """The per-attribute feature battery; order matches FEATURE_NAMES."""
    missing = float(a == NAN_TOKEN or b == NAN_TOKEN)
    if missing:
        return [0.0] * (len(FEATURE_NAMES) - 1) + [1.0]
    tokens_a, tokens_b = tokenize(a), tokenize(b)
    set_a, set_b = set(tokens_a), set(tokens_b)
    len_ratio = (min(len(a), len(b)) / max(len(a), len(b))) if a and b else 0.0
    return [
        levenshtein_similarity(a.lower(), b.lower()),
        jaccard(set_a, set_b),
        jaccard(qgrams(a.lower()), qgrams(b.lower())),
        overlap_coefficient(set_a, set_b),
        containment(set_a, set_b),
        cosine_tokens(tokens_a, tokens_b),
        float(a.lower() == b.lower()),
        numeric_similarity(a, b),
        len_ratio,
        0.0,
    ]


def pair_features(pair: EntityPair) -> np.ndarray:
    """Feature vector for one pair: per-attribute battery + whole-record battery."""
    features: List[float] = []
    keys = pair.left.keys
    for key in keys:
        features.extend(similarity_features(pair.left.get(key), pair.right.get(key)))
    features.extend(similarity_features(pair.left.text(), pair.right.text()))
    return np.asarray(features, dtype=np.float64)


def featurize_pairs(pairs: Sequence[EntityPair]) -> np.ndarray:
    """Stack feature vectors; pads ragged rows (schema drift) with zeros."""
    rows = [pair_features(p) for p in pairs]
    width = max(len(r) for r in rows)
    out = np.zeros((len(rows), width))
    for i, row in enumerate(rows):
        out[i, :len(row)] = row
    return out
