"""COCOA-style correlation-aware join discovery (Esmailoghli et al., EDBT 2021).

Reference [3] of the paper's related work: COCOA finds tables that are
joinable with the query *and* whose numeric attributes correlate with a
target column of the query -- the data-augmentation flavor of discovery
(new features for an ML model, not just new rows).

Reproduction: candidates come from the shared engine's normalized-value
posting index probed with the query's join keys (exact overlap, as
COCOA's inverted index does -- the per-column hit counts *are* the key
overlaps), then each candidate's numeric columns are scored by |Spearman
correlation| against the query's target column over the actually-joined
rows, weighted by join coverage; a candidate's cells are read through
``candidates.table``, so the index keeps no lake after ``fit``.

Substitution: COCOA computes rank correlations *index-only*, without
materializing the join; here each candidate is merged with the query on
the key explicitly.  The ranking is the same and the machinery simpler,
which is fine at in-memory scale.  Retrieval is sound: a scorable
candidate needs key overlap >= min_key_overlap >= 1, so the value probe
is a superset of everything the scorer can rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..candidates.spec import CandidateSet, CandidateSpec
from ..table.table import Table
from ..table.values import is_null
from ..text.normalize import to_float
from ..text.tokenize import normalize_token
from .base import Discoverer, DiscoveryResult

__all__ = ["CocoaConfig", "CocoaJoinSearch"]


@dataclass(frozen=True)
class CocoaConfig:
    """Tuning knobs for :class:`CocoaJoinSearch`."""

    min_key_overlap: int = 3
    min_correlation_pairs: int = 3
    coverage_weight: float = 0.3  # blend of coverage into the final score


class CocoaJoinSearch(Discoverer):
    """Top-k joinable tables ranked by correlated numeric attributes.

    ``search`` needs the join key as *query_column* and picks the target
    numeric column automatically (first mostly-numeric query column) unless
    one was set at construction.
    """

    name = "cocoa"
    spec = CandidateSpec(
        channels=("values",),
        note="sound: scoring requires key overlap >= min_key_overlap, and "
        "every shared key appears in the value postings",
    )

    def __init__(self, target_column: str | None = None, config: CocoaConfig | None = None):
        super().__init__()
        self.target_column = target_column
        self.config = config or CocoaConfig()

    # ------------------------------------------------------------------
    def _build_index(self, lake: Mapping[str, Table]) -> None:
        # The join-key inverted index is the engine's normalized-value
        # posting channel, shared with TUS's pruning; build it offline.
        self._require_engine().warm(("values",))

    # ------------------------------------------------------------------
    def _pick_target(self, query: Table, join_column: str) -> str | None:
        if self.target_column is not None and query.has_column(self.target_column):
            return self.target_column
        for column in query.columns:
            if column == join_column:
                continue
            values = query.column_values(column)
            numeric = sum(1 for v in values if to_float(v) is not None)
            if values and numeric / len(values) >= 0.8:
                return column
        return None

    def _candidates(
        self, query: Table, k: int, query_column: str | None
    ) -> CandidateSet:
        """Build the query's key -> target-value map once, probe the value
        postings with its keys, and stash the map for the scoring phase."""
        engine = self._require_engine()
        spec = self.candidate_spec()
        join_column = query_column if query_column in query.columns else query.columns[0]
        target = self._pick_target(query, join_column)
        if target is None:
            candidates = engine.empty_candidates(self.name, spec)
            candidates.context["target"] = None
            return candidates

        # key -> target value map of the query (first occurrence wins).
        key_array = query.column_array(join_column)
        target_array = query.column_array(target)
        query_map: dict[str, float] = {}
        for key_cell, target_cell in zip(key_array, target_array):
            if is_null(key_cell) or not isinstance(key_cell, str):
                continue
            number = to_float(target_cell)
            if number is None:
                continue
            query_map.setdefault(normalize_token(key_cell), number)

        if len(query_map) < self.config.min_correlation_pairs:
            candidates = engine.empty_candidates(self.name, spec)
        elif engine.force_exhaustive:
            candidates = engine.all_candidates(self.name, spec)
        else:
            evidence = {
                f"values:{join_column}": engine.value_postings.probe(query_map)
            }
            candidates = engine.assemble(self.name, spec, evidence, k, probes=1)
        candidates.context.update(
            {"join_column": join_column, "target": target, "query_map": query_map}
        )
        return candidates

    def _search(
        self,
        query: Table,
        k: int,
        query_column: str | None,
        candidates: CandidateSet,
    ) -> list[DiscoveryResult]:
        target = candidates.context.get("target")
        query_map: dict[str, float] = candidates.context.get("query_map", {})
        if target is None or len(query_map) < self.config.min_correlation_pairs:
            return []
        engine = self._require_engine()
        join_column = candidates.context["join_column"]
        if candidates.evidence is not None:
            # The value-posting probe counts are the exact key overlaps.
            hits = candidates.evidence_for(f"values:{join_column}")
        else:
            hits = engine.value_overlap_scan(query_map, candidates.tables)
        allowed = candidates.table_set

        results: dict[str, DiscoveryResult] = {}
        for key, overlap in sorted(
            hits.items(), key=lambda kv: (-kv[1], engine.column_owner(kv[0]))
        ):
            if overlap < self.config.min_key_overlap:
                continue
            table_name, key_col = engine.column_owner(key)
            if table_name not in allowed:
                continue
            table = candidates.table(table_name)
            best = self._best_correlated_column(table, key_col, query_map)
            if best is None:
                continue
            feature_column, correlation, pairs = best
            coverage = overlap / len(query_map)
            score = (
                (1.0 - self.config.coverage_weight) * correlation
                + self.config.coverage_weight * coverage
            )
            current = results.get(table_name)
            if current is None or score > current.score:
                results[table_name] = DiscoveryResult(
                    table_name=table_name,
                    score=score,
                    discoverer=self.name,
                    reason=(
                        f"|spearman({feature_column}, {join_column}->{key_col})|"
                        f" = {correlation:.2f} over {pairs} joined rows"
                    ),
                )
        return list(results.values())

    def _best_correlated_column(
        self, table: Table, key_col: str, query_map: Mapping[str, float]
    ) -> tuple[str, float, int] | None:
        from ..analysis.correlation import spearman

        key_array = table.column_array(key_col)
        # Resolve each key row against the query once, shared by every
        # candidate feature column of this table.
        key_values: list[float | None] = [
            query_map.get(normalize_token(cell))
            if isinstance(cell, str) and not is_null(cell)
            else None
            for cell in key_array
        ]
        best: tuple[str, float, int] | None = None
        for column in table.columns:
            if column == key_col:
                continue
            xs: list[float] = []
            ys: list[float] = []
            for query_value, cell in zip(key_values, table.column_array(column)):
                if query_value is None:
                    continue
                number = to_float(cell)
                if number is None:
                    continue
                xs.append(query_value)
                ys.append(number)
            if len(xs) < self.config.min_correlation_pairs:
                continue
            correlation = abs(spearman(xs, ys))
            if best is None or correlation > best[1]:
                best = (column, correlation, len(xs))
        return best
