"""Set-similarity measures over token sets.

These are the exact measures the approximate indexes (MinHash, LSH Ensemble)
estimate; keeping the exact versions here lets tests assert estimator error
bounds and lets JOSIE-style exact search share one implementation.
"""

from __future__ import annotations

from typing import Hashable, Set

__all__ = [
    "jaccard",
    "overlap",
    "containment",
    "dice",
    "cosine_sets",
    "weighted_jaccard",
]


def jaccard(a: Set[Hashable], b: Set[Hashable]) -> float:
    """|a ∩ b| / |a ∪ b|; 1.0 when both are empty (identical emptiness)."""
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    inter = len(a & b)
    return inter / (len(a) + len(b) - inter)


def overlap(a: Set[Hashable], b: Set[Hashable]) -> int:
    """|a ∩ b| -- JOSIE's ranking function."""
    if len(a) > len(b):
        a, b = b, a
    return sum(1 for item in a if item in b)


def containment(query: Set[Hashable], candidate: Set[Hashable]) -> float:
    """|query ∩ candidate| / |query| -- LSH Ensemble's ranking function.

    Asymmetric by design: a small query column fully contained in a huge
    lake column is perfectly joinable even though their Jaccard is tiny.
    """
    if not query:
        return 0.0
    return overlap(query, candidate) / len(query)


def dice(a: Set[Hashable], b: Set[Hashable]) -> float:
    """2|a ∩ b| / (|a| + |b|)."""
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    return 2 * overlap(a, b) / (len(a) + len(b))


def cosine_sets(a: Set[Hashable], b: Set[Hashable]) -> float:
    """Set cosine: |a ∩ b| / sqrt(|a| * |b|)."""
    if not a or not b:
        return 1.0 if (not a and not b) else 0.0
    return overlap(a, b) / (len(a) * len(b)) ** 0.5


def weighted_jaccard(a: dict[Hashable, float], b: dict[Hashable, float]) -> float:
    """Weighted Jaccard over non-negative weight maps:
    sum(min) / sum(max) across the key union."""
    if not a and not b:
        return 1.0
    numerator = 0.0
    denominator = 0.0
    for key in set(a) | set(b):
        wa = a.get(key, 0.0)
        wb = b.get(key, 0.0)
        numerator += min(wa, wb)
        denominator += max(wa, wb)
    if denominator == 0.0:
        return 1.0
    return numerator / denominator
