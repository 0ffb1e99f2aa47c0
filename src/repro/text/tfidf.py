"""A small TF-IDF weighting scheme over token sets.

Used by discovery scoring to damp ubiquitous tokens (years, "county",
"total") that would otherwise dominate overlap-based measures on open data.
"""

from __future__ import annotations

import math
from typing import Hashable, Iterable, Mapping

__all__ = ["TfIdfWeights"]


class TfIdfWeights:
    """Corpus-level inverse-document-frequency weights.

    A *document* is any token set (typically a column domain).  Weights are
    smooth IDF: ``log(1 + N / (1 + df))``, never zero, so rare tokens score
    high and tokens present in every document still count a little.
    """

    def __init__(self) -> None:
        self._doc_freq: dict[Hashable, int] = {}
        self._num_docs = 0

    def add_document(self, tokens: Iterable[Hashable]) -> None:
        """Register one document's token *set* (duplicates are collapsed)."""
        self._num_docs += 1
        for token in set(tokens):
            self._doc_freq[token] = self._doc_freq.get(token, 0) + 1

    def __getstate__(self) -> dict:
        # Tokens arrive in set-iteration order, which differs between
        # equal sets built differently; pickle them sorted, so equal
        # weights pickle to equal bytes.
        state = self.__dict__.copy()
        state["_doc_freq"] = dict(
            sorted(self._doc_freq.items(), key=lambda item: repr(item[0]))
        )
        return state

    def idf(self, token: Hashable) -> float:
        """Smooth inverse document frequency of *token*."""
        df = self._doc_freq.get(token, 0)
        return math.log(1.0 + self._num_docs / (1.0 + df)) if self._num_docs else 1.0

    def weighted_containment(
        self, query: Iterable[Hashable], candidate: Mapping[Hashable, float] | set
    ) -> float:
        """IDF-weighted containment of *query* in *candidate* tokens."""
        query_set = set(query)
        if not query_set:
            return 0.0
        candidate_set = set(candidate)
        total = sum(self.idf(t) for t in query_set)
        if total == 0.0:
            return 0.0
        hit = sum(self.idf(t) for t in query_set if t in candidate_set)
        return hit / total
