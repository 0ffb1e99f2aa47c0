"""The public alignment API: tables in, integration IDs out.

This is ALITE's "Align" half (paper Sec. 2.2): holistic schema matching over
the whole integration set at once, assigning every column an *integration
ID* such that matched columns share an ID and -- hard constraint -- no two
columns of one table collide.  :meth:`Alignment.apply` renames the tables so
the subsequent (natural) Full Disjunction can key on column names alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..discovery.kb import KnowledgeBase, seed_knowledge_base
from ..embeddings.column import ColumnEmbedder
from ..obs import trace
from ..table.table import Table
from .cluster import cluster_columns
from .features import ColumnRef, featurize_tables
from .matcher import MatcherWeights

__all__ = ["Alignment", "HolisticAligner"]


@dataclass
class Alignment:
    """The result of holistic matching over an integration set."""

    #: column -> integration ID.
    assignments: dict[ColumnRef, str]
    #: clusters of matched columns (singletons included), deterministic order.
    clusters: list[list[ColumnRef]] = field(default_factory=list)

    def integration_id(self, table: str, column: str) -> str:
        """The integration ID assigned to one column."""
        return self.assignments[ColumnRef(table, column)]

    @property
    def num_ids(self) -> int:
        return len(set(self.assignments.values()))

    def apply(self, tables: Sequence[Table]) -> list[Table]:
        """Rename every table's columns to their integration IDs."""
        renamed = []
        for table in tables:
            mapping = {}
            for column in table.columns:
                ref = ColumnRef(table.name, column)
                if ref not in self.assignments:
                    raise KeyError(f"column {ref} was not part of this alignment")
                mapping[column] = self.assignments[ref]
            renamed.append(table.renamed(mapping))
        return renamed

    def matched_pairs(self) -> set[tuple[ColumnRef, ColumnRef]]:
        """All unordered cross-table pairs sharing an ID (for evaluation)."""
        pairs: set[tuple[ColumnRef, ColumnRef]] = set()
        for cluster in self.clusters:
            for i in range(len(cluster)):
                for j in range(i + 1, len(cluster)):
                    pairs.add((cluster[i], cluster[j]))
        return pairs


class HolisticAligner:
    """Configurable holistic schema matcher.

    The knowledge base supplies the semantic channel (see
    :mod:`repro.alignment.features`); pass ``kb=None`` to ablate it -- the
    alignment ablation benchmark (E11) measures exactly that difference.
    """

    def __init__(
        self,
        threshold: float = 0.30,
        kb: KnowledgeBase | None | str = "seed",
        weights: MatcherWeights | None = None,
        embedder: ColumnEmbedder | None = None,
    ):
        self.threshold = threshold
        if kb == "seed":
            self._kb: KnowledgeBase | None = seed_knowledge_base()
        else:
            self._kb = kb  # type: ignore[assignment]
        self.weights = weights or MatcherWeights()
        self._embedder = embedder or ColumnEmbedder()

    def align(self, tables: Sequence[Table]) -> Alignment:
        """Match columns across *tables* and assign integration IDs."""
        if not tables:
            raise ValueError("cannot align an empty integration set")
        with trace.span("align.featurize", tables=len(tables)) as featurize_span:
            columns = featurize_tables(tables, kb=self._kb, embedder=self._embedder)
            featurize_span.add(columns=len(columns))
        with trace.span("align.cluster") as cluster_span:
            clusters = cluster_columns(
                columns, threshold=self.threshold, weights=self.weights
            )
            cluster_span.add(clusters=len(clusters))
        header_of = {c.ref: c.header for c in columns}
        assignments: dict[ColumnRef, str] = {}
        used_ids: set[str] = set()
        for cluster in clusters:
            integration_id = self._pick_id(cluster, header_of, used_ids)
            used_ids.add(integration_id)
            for ref in cluster:
                assignments[ref] = integration_id
        return Alignment(assignments=assignments, clusters=clusters)

    @staticmethod
    def _pick_id(
        cluster: Sequence[ColumnRef],
        header_of: dict[ColumnRef, str],
        used: set[str],
    ) -> str:
        """Human-friendly unique ID: the cluster's most common header, with a
        numeric suffix when another cluster already claimed it."""
        counts: dict[str, int] = {}
        for ref in cluster:
            header = header_of[ref].strip() or "col"
            counts[header] = counts.get(header, 0) + 1
        best = max(counts.items(), key=lambda item: (item[1], -len(item[0]), item[0]))[0]
        if best not in used:
            return best
        suffix = 2
        while f"{best}_{suffix}" in used:
            suffix += 1
        return f"{best}_{suffix}"
