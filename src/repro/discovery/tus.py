"""TUS-style table union search (Nargesian et al., VLDB 2018).

Reference [9] of the paper: the original "table union search on open data".
TUS scores *attribute unionability* by an ensemble of measures over the
columns' value sets, then defines table unionability as the best one-to-one
alignment of the query's columns.  The offline reproduction keeps that
two-level structure:

* attribute unionability = max of value-set Jaccard (set measure), weighted
  containment under corpus IDF (damps ubiquitous tokens -- TUS's natural-
  language ensemble plays this role), and KB type agreement (TUS's ontology
  measure), gated on numeric/text compatibility;
* table unionability = greedy one-to-one alignment score averaged over the
  query's columns.

The corpus IDF is TUS's **lake product**
(:meth:`~repro.discovery.base.Discoverer.lake_product`): one document per
lake column, the same bounded normalized-value sets the column summaries
hold, read from the column stats.  Document frequencies are order-free
counts, so a sharded build's product over the combined lake, pinned into
every shard's fit, weighs exactly as the unsharded fit does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from ..candidates.spec import CandidateSet, CandidateSpec
from ..discovery.kb import KnowledgeBase, seed_knowledge_base
from ..table.table import Table
from ..text.normalize import numeric_fraction
from ..text.similarity import jaccard, weighted_jaccard
from ..text.tfidf import TfIdfWeights
from .base import Discoverer, DiscoveryResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..datalake.stats import LakeStats

__all__ = ["TusConfig", "TusUnionSearch"]


@dataclass(frozen=True)
class TusConfig:
    """Tuning knobs for :class:`TusUnionSearch`."""

    min_attribute_score: float = 0.15
    min_table_score: float = 0.1
    max_values: int = 300


@dataclass
class _ColumnSummary:
    name: str
    values: frozenset[str]
    types: dict[str, float]
    numeric_fraction: float


class TusUnionSearch(Discoverer):
    """Top-k unionable table search by ensemble attribute unionability."""

    name = "tus"
    spec = CandidateSpec(
        channels=("values",),
        intent_only=False,
        min_candidates_is_k=True,
        note="value-overlap pruning with an exhaustive fallback below k "
        "candidates, so type-only matches (disjoint values) still surface",
    )

    def __init__(self, config: TusConfig | None = None, kb: KnowledgeBase | None = None):
        super().__init__()
        self.config = config or TusConfig()
        self._kb = kb if kb is not None else seed_knowledge_base()
        self._tables: dict[str, list[_ColumnSummary]] = {}
        self._idf = TfIdfWeights()

    # ------------------------------------------------------------------
    def _summarize(self, table: Table) -> list[_ColumnSummary]:
        summaries = []
        max_values = self.config.max_values
        for column in table.columns:
            stats = table.stats.column(column)
            truncated = len(stats.values) > max_values
            sample = stats.values[:max_values] if truncated else stats.values
            # Normalized text values come from the shared stats cache (the
            # same sets the aligner consumes); a bound sample is memoized
            # under its limit.
            values = stats.text_values(max_values)
            types: dict[str, float] = {}
            distinct = list(dict.fromkeys(str(v) for v in sample))
            for value in distinct:
                for type_name in self._kb.types_of(value):
                    types[type_name] = types.get(type_name, 0.0) + 1.0
            for type_name in types:
                types[type_name] /= max(1, len(distinct))
            summaries.append(
                _ColumnSummary(
                    name=column,
                    values=values,
                    types=types,
                    numeric_fraction=(
                        numeric_fraction(list(sample))
                        if truncated
                        else stats.numeric_fraction
                    ),
                )
            )
        return summaries

    def lake_product(self, stats: "LakeStats") -> TfIdfWeights:
        """The corpus IDF: one document per column of the lake."""
        idf = TfIdfWeights()
        for _, table_stats in stats:
            for column in table_stats.columns:
                idf.add_document(
                    table_stats.column(column).text_values(self.config.max_values)
                )
        return idf

    def _use_product(self, idf: TfIdfWeights) -> None:
        self._idf = idf

    def _build_index(self, lake: Mapping[str, Table]) -> None:
        self._tables = {
            table_name: self._summarize(table) for table_name, table in lake.items()
        }
        # Candidate pruning by shared values runs on the engine's
        # normalized-value postings; make sure they exist offline.
        self._require_engine().warm(("values",))

    # ------------------------------------------------------------------
    def _attribute_unionability(self, a: _ColumnSummary, b: _ColumnSummary) -> float:
        # Numeric columns never union with text columns.
        if (a.numeric_fraction > 0.8) != (b.numeric_fraction > 0.8):
            return 0.0
        scores = [jaccard(a.values, b.values) if a.values and b.values else 0.0]
        if a.values and b.values:
            scores.append(
                self._idf.weighted_containment(a.values, b.values) * 0.8
            )
        if a.types and b.types:
            scores.append(weighted_jaccard(a.types, b.types))
        if a.numeric_fraction > 0.8 and b.numeric_fraction > 0.8:
            # Numeric attributes: unionability from distribution shape is out
            # of scope; same-kind numerics get a weak prior so rate columns
            # can align when everything else agrees.
            scores.append(0.3)
        return max(scores)

    def _search(
        self,
        query: Table,
        k: int,
        query_column: str | None,
        candidates: CandidateSet,
    ) -> list[DiscoveryResult]:
        """Score the retrieved candidates only.  The spec's value channel
        prunes to tables sharing a normalized value with the query, and
        its ``min_candidates_is_k`` floor falls back to the whole lake
        when pruning leaves fewer than *k* tables -- type-only matches
        (disjoint values) still need consideration."""
        query_summaries = self._summarize(query)
        results = []
        for table_name in candidates:
            summaries = self._tables.get(table_name)
            if summaries is None:
                continue
            score, aligned = self._table_unionability(query_summaries, summaries)
            if score >= self.config.min_table_score:
                pairs = ", ".join(f"{qa}~{ca}" for qa, ca in aligned[:3])
                results.append(
                    DiscoveryResult(
                        table_name=table_name,
                        score=score,
                        discoverer=self.name,
                        reason=f"aligned: {pairs}" if pairs else "",
                    )
                )
        return results

    def _table_unionability(
        self, query_summaries: list[_ColumnSummary], candidate: list[_ColumnSummary]
    ) -> tuple[float, list[tuple[str, str]]]:
        """Greedy one-to-one column alignment, averaged over query columns."""
        scored = []
        for i, query_summary in enumerate(query_summaries):
            for j, candidate_summary in enumerate(candidate):
                value = self._attribute_unionability(query_summary, candidate_summary)
                if value >= self.config.min_attribute_score:
                    scored.append((value, i, j))
        scored.sort(key=lambda item: (-item[0], item[1], item[2]))
        used_query: set[int] = set()
        used_candidate: set[int] = set()
        aligned: list[tuple[str, str]] = []
        total = 0.0
        for value, i, j in scored:
            if i in used_query or j in used_candidate:
                continue
            used_query.add(i)
            used_candidate.add(j)
            aligned.append((query_summaries[i].name, candidate[j].name))
            total += value
        return total / max(1, len(query_summaries)), aligned
