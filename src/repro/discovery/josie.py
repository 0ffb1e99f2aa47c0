"""JOSIE-style exact top-k overlap set similarity search (SIGMOD 2019).

Where LSH Ensemble trades accuracy for speed, JOSIE answers *exact* top-k
overlap queries over an inverted index.  The reproduction keeps JOSIE's
structural idea at library scale: retrieval walks the posting lists of the
query's tokens, and the per-column hit counts that walk accumulates *are*
the exact overlaps -- retrieve-then-rerank with a shared index instead of
a per-discoverer one.

The posting index itself lives in the lake-wide
:class:`~repro.candidates.CandidateEngine` (every discoverer on the
``tokens`` channel shares it); this class contributes only its scoring
policy: domain-size and overlap floors, best-column-per-table
aggregation, exact integer scores.  Retrieval is provably a superset of
scoring -- any column with overlap >= 1 shares a token with the query,
so engine-backed search returns *identical* top-k to the exhaustive scan
(pinned by ``tests/property/test_candidate_equivalence.py``).

Cost-model-driven switching between index probes and candidate reads (the
full JOSIE optimizer) is out of scope at in-memory scale; exactness is
preserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..candidates.spec import CandidateSet, CandidateSpec
from ..table.table import Table
from .base import Discoverer, DiscoveryResult

__all__ = ["JosieConfig", "JosieJoinSearch"]


@dataclass(frozen=True)
class JosieConfig:
    """Tuning knobs for :class:`JosieJoinSearch`."""

    min_domain_size: int = 2
    min_overlap: int = 1


class JosieJoinSearch(Discoverer):
    """Exact top-k joinable table search by token overlap."""

    name = "josie"
    spec = CandidateSpec(
        channels=("tokens",),
        note="sound: overlap >= 1 implies a shared token, so the posting "
        "probe retrieves a superset of every scorable table",
    )

    def __init__(self, config: JosieConfig | None = None):
        super().__init__()
        self.config = config or JosieConfig()

    def _build_index(self, lake: Mapping[str, Table]) -> None:
        # The inverted token postings are the shared engine's; JOSIE's
        # offline step is making sure they exist before queries arrive.
        self._require_engine().warm(("tokens",))

    def _search(
        self,
        query: Table,
        k: int,
        query_column: str | None,
        candidates: CandidateSet,
    ) -> list[DiscoveryResult]:
        engine = self._require_engine()
        probe_columns = (
            [query_column] if query_column in query.columns else list(query.columns)
        )
        allowed = candidates.table_set
        best_per_table: dict[str, tuple[int, str, str]] = {}
        for column in probe_columns:
            tokens = query.stats.column(column).tokens
            if len(tokens) < self.config.min_domain_size:
                continue
            if candidates.evidence is not None:
                # The posting probe's per-column hit counts are the exact
                # overlaps -- retrieval already scored this channel.
                hits = candidates.evidence_for(f"tokens:{column}")
            else:
                hits = engine.overlap_scan(tokens, candidates.tables)
            scored = [
                (key, int(overlap))
                for key, overlap in hits.items()
                if overlap >= self.config.min_overlap
                and engine.column_token_size(key) >= self.config.min_domain_size
            ]
            # Deterministic aggregation order: overlap desc, then smaller
            # domains first, then owner -- ties resolve identically on the
            # engine-backed and exhaustive paths.
            scored.sort(
                key=lambda pair: (
                    -pair[1],
                    engine.column_token_size(pair[0]),
                    engine.column_owner(pair[0]),
                )
            )
            for key, overlap in scored:
                table_name, lake_column = engine.column_owner(key)
                if table_name not in allowed:
                    continue
                current = best_per_table.get(table_name)
                if current is None or overlap > current[0]:
                    best_per_table[table_name] = (overlap, column, lake_column)
        results = []
        for table_name, (overlap, query_col, lake_col) in best_per_table.items():
            results.append(
                DiscoveryResult(
                    table_name=table_name,
                    score=float(overlap),
                    discoverer=self.name,
                    reason=f"|{query_col} ∩ {table_name}.{lake_col}| = {overlap}",
                )
            )
        return results
