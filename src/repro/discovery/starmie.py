"""Starmie-style embedding-based dataset discovery (Fan et al., VLDB 2023).

The paper's related work [4] discovers unionable tables with *contextualized
column representations*: each column is embedded in the context of its
table, and tables are ranked by how well their column embeddings match the
query's.  Offline we reproduce the architecture with the library's hashed
embeddings:

* every column gets a value+header embedding (:class:`ColumnEmbedder`);
* a column's *contextualized* vector mixes its own embedding with its
  table's centroid (the context signal that separates ``name`` in a movie
  table from ``name`` in a hospital table);
* a candidate table's score is the mean, over query columns, of the best
  greedy one-to-one cosine match -- the bipartite column-matching objective
  Starmie optimizes.

Substitution: Starmie embeds columns with a pretrained encoder trained
contrastively; here the embeddings are hashed value+header vectors, which
need no model download or training.  They preserve "similar value
distributions embed nearby", which is what the matching objective
consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..candidates.spec import CandidateSet, CandidateSpec
from ..embeddings.column import ColumnEmbedder
from ..table.table import Table
from .base import Discoverer, DiscoveryResult

__all__ = ["StarmieConfig", "StarmieUnionSearch"]


@dataclass(frozen=True)
class StarmieConfig:
    """Tuning knobs for :class:`StarmieUnionSearch`.

    The embedder's header weight is raised well above the aligner's default:
    hashed value embeddings of *disjoint* unionable columns (Toronto/Boston
    vs Berlin/Barcelona) are near-orthogonal, so the header/context channel
    must carry the semantic load a pretrained encoder would -- same-header
    disjoint columns land around cosine 0.25-0.3, hence the 0.2 floor.
    """

    context_weight: float = 0.25  # how much table context blends into a column
    min_column_similarity: float = 0.2
    min_table_score: float = 0.05
    header_weight: float = 0.6


class StarmieUnionSearch(Discoverer):
    """Top-k unionable table search by contextualized column embeddings."""

    name = "starmie"
    #: Honest exhaustive declaration: hashed embeddings can match columns
    #: with disjoint values through the header/context channel, so no
    #: posting or sketch signal soundly bounds the scorable set (a real
    #: deployment would add an ANN index over the column vectors).
    spec = CandidateSpec(
        channels=("exhaustive",),
        note="embedding scores have no sound sublinear retrieval signal "
        "at this fidelity; every candidate matrix is scored",
    )

    def __init__(self, config: StarmieConfig | None = None, embedder: ColumnEmbedder | None = None):
        super().__init__()
        self.config = config or StarmieConfig()
        if embedder is None:
            from ..embeddings.column import ColumnEmbedderConfig

            embedder = ColumnEmbedder(
                ColumnEmbedderConfig(header_weight=self.config.header_weight)
            )
        self._embedder = embedder
        self._table_columns: dict[str, np.ndarray] = {}
        self._table_column_names: dict[str, list[str]] = {}

    # ------------------------------------------------------------------
    def _contextualize(self, vectors: list[np.ndarray]) -> np.ndarray:
        """Stack per-column vectors, blending in the table centroid."""
        matrix = np.stack(vectors)
        centroid = matrix.mean(axis=0)
        norm = np.linalg.norm(centroid)
        if norm > 0:
            centroid = centroid / norm
        mixed = (1.0 - self.config.context_weight) * matrix + self.config.context_weight * centroid
        norms = np.linalg.norm(mixed, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        return mixed / norms

    def _embed_table(self, table: Table) -> tuple[np.ndarray, list[str]] | None:
        vectors = []
        names = []
        for column in table.columns:
            values = table.column_values(column)
            profile = self._embedder.profile(column, values)
            if np.linalg.norm(profile.embedding) == 0:
                continue
            vectors.append(profile.embedding)
            names.append(column)
        if not vectors:
            return None
        return self._contextualize(vectors), names

    def _build_index(self, lake: Mapping[str, Table]) -> None:
        self._table_columns = {}
        self._table_column_names = {}
        for table_name, table in lake.items():
            embedded = self._embed_table(table)
            if embedded is None:
                continue
            self._table_columns[table_name], self._table_column_names[table_name] = embedded

    # ------------------------------------------------------------------
    def _search(
        self,
        query: Table,
        k: int,
        query_column: str | None,
        candidates: CandidateSet,
    ) -> list[DiscoveryResult]:
        embedded = self._embed_table(query)
        if embedded is None:
            return []
        query_matrix, query_names = embedded
        results = []
        for table_name in candidates:
            candidate_matrix = self._table_columns.get(table_name)
            if candidate_matrix is None:
                continue
            score, matched = self._match_score(query_matrix, candidate_matrix)
            if score >= self.config.min_table_score:
                pairs = ", ".join(
                    f"{query_names[qi]}~{self._table_column_names[table_name][ci]}"
                    for qi, ci in matched[:3]
                )
                results.append(
                    DiscoveryResult(
                        table_name=table_name,
                        score=score,
                        discoverer=self.name,
                        reason=f"column matches: {pairs}" if pairs else "",
                    )
                )
        return results

    def _match_score(
        self, query_matrix: np.ndarray, candidate_matrix: np.ndarray
    ) -> tuple[float, list[tuple[int, int]]]:
        """Greedy one-to-one bipartite matching on cosine similarity."""
        similarity = query_matrix @ candidate_matrix.T
        pairs = [
            (float(similarity[i, j]), i, j)
            for i in range(similarity.shape[0])
            for j in range(similarity.shape[1])
        ]
        pairs.sort(key=lambda item: (-item[0], item[1], item[2]))
        used_query: set[int] = set()
        used_candidate: set[int] = set()
        matched: list[tuple[int, int]] = []
        total = 0.0
        for value, i, j in pairs:
            if value < self.config.min_column_similarity:
                break
            if i in used_query or j in used_candidate:
                continue
            used_query.add(i)
            used_candidate.add(j)
            matched.append((i, j))
            total += value
        return total / max(1, query_matrix.shape[0]), matched
