"""SANTOS-style relationship-based semantic union search.

Reproduces the architecture of SANTOS (Khatiwada et al., SIGMOD 2023):

1. **Column annotation** -- every column is annotated with semantic types by
   looking its distinct values up in a knowledge base (seed ontology plus a
   KB synthesized from the lake itself); each type carries a confidence
   (fraction of annotatable values supporting it).
2. **Relationship annotation** -- every column *pair* whose types the KB
   relates is annotated with the relation labels, weighted by the pair's
   type confidences and row co-occurrence.
3. **Scoring** -- a lake table is unionable with the query to the extent it
   covers the query's relationships involving the *intent column* (plus the
   intent column's own types).  Tables that only share stray values score
   near zero; tables expressing the same relationships score high.

The KB channels are where the offline substitution lives (see
:mod:`repro.discovery.kb`); the annotation and scoring machinery follows the
original design.

The KB annotation reads is SANTOS's **lake product**
(:meth:`~repro.discovery.base.Discoverer.lake_product`): a copy of the
constructor's KB (the built-in seed when none was given) plus the types
synthesized from the lake's column domains.  It is built fresh for every
fit -- the constructor's KB is never mutated -- so a refit, or an
unfitted clone's fit, starts from the seed, and a sharded build can pin
the combined lake's product into every shard's fit.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from ..candidates.spec import CandidateSet, CandidateSpec
from ..table.table import Table
from .base import Discoverer, DiscoveryResult
from .kb import KnowledgeBase, seed_knowledge_base

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..datalake.stats import LakeStats

__all__ = ["SantosConfig", "TableAnnotation", "SantosUnionSearch"]


@dataclass(frozen=True)
class SantosConfig:
    """Tuning knobs for :class:`SantosUnionSearch`."""

    min_type_confidence: float = 0.25
    synthesize_kb: bool = True
    synth_min_jaccard: float = 0.35
    relationship_weight: float = 0.6
    column_weight: float = 0.4
    max_distinct_values: int = 500


@dataclass
class TableAnnotation:
    """Semantic summary of one table: per-column types + pair relationships."""

    column_types: dict[str, dict[str, float]] = field(default_factory=dict)
    relationships: dict[str, float] = field(default_factory=dict)

    def all_types(self) -> dict[str, float]:
        """Type -> best confidence across columns."""
        merged: dict[str, float] = {}
        for types in self.column_types.values():
            for type_name, confidence in types.items():
                merged[type_name] = max(merged.get(type_name, 0.0), confidence)
        return merged


class SantosUnionSearch(Discoverer):
    """Top-k semantically unionable table search."""

    name = "santos"
    spec = CandidateSpec(
        channels=("labels",),
        note="sound: a positive score requires a shared type or relationship "
        "label, and all labels are published to the engine at fit time",
    )

    def __init__(self, kb: KnowledgeBase | None = None, config: SantosConfig | None = None):
        super().__init__()
        self.config = config or SantosConfig()
        #: The constructor's KB, never mutated (None: the built-in seed).
        self._seed_kb = kb
        #: The KB annotation reads: the installed lake product.
        self._kb: KnowledgeBase | None = None
        self._annotations: dict[str, TableAnnotation] = {}
        self._tables_by_type: dict[str, set[str]] = {}
        self._tables_by_relationship: dict[str, set[str]] = {}

    @property
    def kb(self) -> KnowledgeBase:
        """The KB annotation reads: once fitted, the lake product; before,
        the constructor's."""
        if self._kb is not None:
            return self._kb
        return self._seed_kb if self._seed_kb is not None else seed_knowledge_base()

    # ------------------------------------------------------------------
    # Index construction
    # ------------------------------------------------------------------
    def lake_product(self, stats: "LakeStats") -> KnowledgeBase:
        """A copy of the constructor's KB (the seed, rebuilt) plus, under
        ``config.synthesize_kb``, the types synthesized from *stats*."""
        seed = self._seed_kb
        kb = seed_knowledge_base() if seed is None else copy.deepcopy(seed)
        if self.config.synthesize_kb:
            kb.synthesize_from_stats(stats, min_jaccard=self.config.synth_min_jaccard)
        return kb

    def _use_product(self, kb: KnowledgeBase) -> None:
        self._kb = kb

    def _build_index(self, lake: Mapping[str, Table]) -> None:
        self._annotations = {}
        self._tables_by_type = {}
        self._tables_by_relationship = {}
        for table_name, table in lake.items():
            annotation = self.annotate(table)
            self._annotations[table_name] = annotation
            for type_name in annotation.all_types():
                self._tables_by_type.setdefault(type_name, set()).add(table_name)
            for relationship in annotation.relationships:
                self._tables_by_relationship.setdefault(relationship, set()).add(table_name)
        self._publish_labels()

    def _publish_labels(self) -> None:
        """Register the type / relationship maps as engine label
        namespaces (held by reference, so the engine always sees the
        current fit products)."""
        if self._engine is not None:
            self._engine.publish_labels(f"{self.name}:type", self._tables_by_type)
            self._engine.publish_labels(
                f"{self.name}:rel", self._tables_by_relationship
            )

    def _engine_bound(self) -> None:
        # A freshly bound engine (warm start, LakeIndex.load) has no label
        # namespaces yet; the maps ride in this discoverer's pickle.
        self._publish_labels()

    def annotate(self, table: Table) -> TableAnnotation:
        """Annotate one table with column types and pair relationships."""
        annotation = TableAnnotation()
        for column in table.columns:
            annotation.column_types[column] = self._annotate_column(table, column)
        columns = list(table.columns)
        for i in range(len(columns)):
            for j in range(i + 1, len(columns)):
                self._annotate_pair(table, columns[i], columns[j], annotation)
        return annotation

    def _annotate_column(self, table: Table, column: str) -> dict[str, float]:
        distinct = table.distinct_values(column)
        if not distinct:
            return {}
        if len(distinct) > self.config.max_distinct_values:
            # Which values survive the cap must not depend on the set's
            # iteration order (it changes with PYTHONHASHSEED).
            distinct = sorted(distinct, key=lambda v: (type(v).__name__, str(v)))[
                : self.config.max_distinct_values
            ]
        support: dict[str, int] = {}
        annotatable = 0
        for value in distinct:
            types = self._kb.types_of(value)
            if types:
                annotatable += 1
                for type_name in types:
                    support[type_name] = support.get(type_name, 0) + 1
        if annotatable == 0:
            return {}
        confidences = {
            type_name: count / annotatable
            for type_name, count in support.items()
            if count / annotatable >= self.config.min_type_confidence
        }
        return confidences

    def _annotate_pair(
        self, table: Table, column_a: str, column_b: str, annotation: TableAnnotation
    ) -> None:
        types_a = annotation.column_types.get(column_a, {})
        types_b = annotation.column_types.get(column_b, {})
        if not types_a or not types_b:
            return
        co_occurrence = self._co_occurrence(table, column_a, column_b)
        if co_occurrence == 0.0:
            return
        for type_a, conf_a in types_a.items():
            for type_b, conf_b in types_b.items():
                for label in self._kb.relations_between(type_a, type_b):
                    confidence = min(conf_a, conf_b) * co_occurrence
                    current = annotation.relationships.get(label, 0.0)
                    annotation.relationships[label] = max(current, confidence)

    @staticmethod
    def _co_occurrence(table: Table, column_a: str, column_b: str) -> float:
        """Fraction of rows where both columns are non-null (a zip of the
        two column arrays; no row view is materialized)."""
        if table.num_rows == 0:
            return 0.0
        from ..table.values import is_null

        array_a = table.column_array(column_a)
        array_b = table.column_array(column_b)
        both = sum(
            1 for a, b in zip(array_a, array_b) if not is_null(a) and not is_null(b)
        )
        return both / table.num_rows

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def _candidates(
        self, query: Table, k: int, query_column: str | None
    ) -> CandidateSet:
        """Annotate the query once, then retrieve every table sharing one
        of its relationship / intent-type labels from the engine's label
        postings; the annotation rides in the candidate-set context so the
        scoring phase never re-derives it."""
        engine = self._require_engine()
        query_annotation = self.annotate(query)
        intent = query_column if query_column in query.columns else None
        query_relationships = self._intent_relationships(query, query_annotation, intent)
        intent_types = (
            query_annotation.column_types.get(intent, {})
            if intent is not None
            else query_annotation.all_types()
        )
        # Both dicts descend from frozenset iteration, and _score sums
        # floats over them: sorted once here, every process adds in the
        # same order and near-tied tables rank the same everywhere.
        query_relationships = dict(sorted(query_relationships.items()))
        intent_types = dict(sorted(intent_types.items()))
        candidates = engine.label_candidates(
            self.name,
            self.candidate_spec(),
            {
                f"{self.name}:rel": list(query_relationships),
                f"{self.name}:type": list(intent_types),
            },
            k,
        )
        candidates.context["relationships"] = query_relationships
        candidates.context["intent_types"] = intent_types
        return candidates

    def _search(
        self,
        query: Table,
        k: int,
        query_column: str | None,
        candidates: CandidateSet,
    ) -> list[DiscoveryResult]:
        query_relationships = candidates.context["relationships"]
        intent_types = candidates.context["intent_types"]
        results = []
        for table_name in candidates:
            annotation = self._annotations.get(table_name)
            if annotation is None:
                continue
            score, reason = self._score(
                query_relationships, intent_types, annotation
            )
            if score > 0.0:
                results.append(
                    DiscoveryResult(
                        table_name=table_name,
                        score=score,
                        discoverer=self.name,
                        reason=reason,
                    )
                )
        return results

    def _intent_relationships(
        self, query: Table, annotation: TableAnnotation, intent: str | None
    ) -> dict[str, float]:
        """Relationships the scoring uses.

        With an intent column, SANTOS anchors on the relationships that
        involve one of the intent column's types; without one (or when the
        intent column has no KB types, or none of its relationships
        qualify) every annotated relationship participates.
        """
        if intent is None:
            return dict(annotation.relationships)
        intent_types = set(annotation.column_types.get(intent, {}))
        if not intent_types:
            return dict(annotation.relationships)
        anchored_labels: set[str] = set()
        for type_a in intent_types:
            for type_b in annotation.all_types():
                anchored_labels.update(self._kb.relations_between(type_a, type_b))
        relevant = {
            label: confidence
            for label, confidence in annotation.relationships.items()
            if label in anchored_labels
        }
        return relevant or dict(annotation.relationships)

    def _score(
        self,
        query_relationships: dict[str, float],
        intent_types: dict[str, float],
        candidate: TableAnnotation,
    ) -> tuple[float, str]:
        matched_relationships = []
        relationship_score = 0.0
        if query_relationships:
            for label, query_confidence in query_relationships.items():
                candidate_confidence = candidate.relationships.get(label)
                if candidate_confidence is not None:
                    matched_relationships.append(label)
                    relationship_score += min(query_confidence, candidate_confidence)
            relationship_score /= len(query_relationships)

        matched_types = []
        type_score = 0.0
        if intent_types:
            candidate_types = candidate.all_types()
            for type_name, query_confidence in intent_types.items():
                candidate_confidence = candidate_types.get(type_name)
                if candidate_confidence is not None:
                    matched_types.append(type_name)
                    type_score += min(query_confidence, candidate_confidence)
            type_score /= len(intent_types)

        score = (
            self.config.relationship_weight * relationship_score
            + self.config.column_weight * type_score
        )
        reason_parts = []
        if matched_relationships:
            reason_parts.append("relationships: " + ", ".join(sorted(matched_relationships)[:4]))
        if matched_types:
            shown = [t for t in sorted(matched_types) if not t.startswith("syn:")][:4]
            if shown:
                reason_parts.append("types: " + ", ".join(shown))
        return score, "; ".join(reason_parts)
