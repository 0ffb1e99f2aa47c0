"""Joinable-table search backed by LSH Ensemble (Zhu et al., VLDB 2016).

Every lake column's domain token set is indexed in a banded MinHash
structure; a query asks: which lake tables have a column whose domain
*contains* (a large fraction of) the query column's domain?  High
containment means the lake column can serve as a join key against the
query column -- the paper's joinable search.

The banded sketch index lives in the shared
:class:`~repro.candidates.CandidateEngine` (memoized per parameter set,
over the same cached MinHash signatures every other consumer reads), so
this class contributes its retrieval parameters and scoring policy only.
LSH retrieval is inherently lossy: the exhaustive path (verify every
column's signature) is a *superset* of the banded one with identical
containment estimates -- the equivalence property test asserts exactly
that containment relation, not byte equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from ..candidates.spec import CandidateSet, CandidateSpec
from ..sketch.minhash import MinHasher
from ..table.table import Table
from .base import Discoverer, DiscoveryResult

__all__ = ["LSHEnsembleConfig", "LSHEnsembleJoinSearch"]


@dataclass(frozen=True)
class LSHEnsembleConfig:
    """Tuning knobs for :class:`LSHEnsembleJoinSearch`.

    The default containment threshold is deliberately recall-oriented
    (0.35): DIALITE unions all discoverers' result sets into the
    integration set (Sec. 3.1), so a borderline joinable table is cheap to
    keep and expensive to miss, and the MinHash containment estimate
    carries ~1/sqrt(num_perm) noise around real-world ~0.5 overlaps.
    """

    num_perm: int = 128
    num_partitions: int = 8
    threshold: float = 0.35
    seed: int = 1
    min_domain_size: int = 2  # single-token columns are join noise


class LSHEnsembleJoinSearch(Discoverer):
    """Top-k joinable table search by estimated domain containment."""

    name = "lsh_ensemble"
    spec = CandidateSpec(
        channels=("sketch",),
        note="approximate: banded LSH retrieval can miss near-threshold "
        "containments; the exhaustive scan is a recall-improving superset",
    )

    def __init__(self, config: LSHEnsembleConfig | None = None):
        super().__init__()
        self.config = config or LSHEnsembleConfig()

    def _ensemble_params(self) -> dict[str, Any]:
        return {
            "num_perm": self.config.num_perm,
            "num_partitions": self.config.num_partitions,
            "seed": self.config.seed,
            "min_size": self.config.min_domain_size,
        }

    def _build_index(self, lake: Mapping[str, Table]) -> None:
        # Materialize the shared banded index now: band insertion is the
        # offline step, queries only probe.
        self._require_engine().ensemble_for(**self._ensemble_params())

    # ------------------------------------------------------------------
    def _probe_columns(self, query: Table, query_column: str | None) -> list[str]:
        if query_column is None:
            # Without a marked query column, probe every query column and
            # keep each table's best containment (the demo UI always marks
            # one, but the API shouldn't force it).
            return list(query.columns)
        query.column_index(query_column)  # validate early
        return [query_column]

    def _candidates(
        self, query: Table, k: int, query_column: str | None
    ) -> CandidateSet:
        engine = self._require_engine()
        probe_columns = self._probe_columns(query, query_column)
        if engine.force_exhaustive:
            candidates = engine.all_candidates(self.name, self.candidate_spec())
            candidates.context["probe_columns"] = probe_columns
            return candidates
        hasher = MinHasher(self.config.num_perm, self.config.seed)
        evidence: dict[str, dict[int, float]] = {}
        probes = 0
        for column in probe_columns:
            stats = query.stats.column(column)
            if len(stats.tokens) < self.config.min_domain_size:
                continue
            probes += 1
            evidence[f"sketch:{column}"] = engine.sketch_probe(
                stats.minhash(hasher),
                self.config.threshold,
                **self._ensemble_params(),
            )
        candidates = engine.assemble(
            self.name, self.candidate_spec(), evidence, k, probes=probes
        )
        candidates.context["probe_columns"] = probe_columns
        return candidates

    def _search(
        self,
        query: Table,
        k: int,
        query_column: str | None,
        candidates: CandidateSet,
    ) -> list[DiscoveryResult]:
        engine = self._require_engine()
        probe_columns = candidates.context.get(
            "probe_columns"
        ) or self._probe_columns(query, query_column)
        hasher = MinHasher(self.config.num_perm, self.config.seed)
        allowed = candidates.table_set
        best_per_table: dict[str, tuple[float, str, str]] = {}
        for column in probe_columns:
            stats = query.stats.column(column)
            if len(stats.tokens) < self.config.min_domain_size:
                continue
            if candidates.evidence is not None:
                matches = candidates.evidence_for(f"sketch:{column}")
            else:
                matches = engine.containment_scan(
                    stats.minhash(hasher),
                    self.config.threshold,
                    hasher,
                    self.config.min_domain_size,
                    candidates.tables,
                )
            for key, containment in sorted(
                matches.items(),
                key=lambda kv: (-kv[1], engine.column_owner(kv[0])),
            ):
                table_name, lake_column = engine.column_owner(key)
                if table_name not in allowed:
                    continue
                current = best_per_table.get(table_name)
                if current is None or containment > current[0]:
                    best_per_table[table_name] = (containment, column, lake_column)

        results = []
        for table_name, (containment, query_col, lake_col) in best_per_table.items():
            results.append(
                DiscoveryResult(
                    table_name=table_name,
                    score=containment,
                    discoverer=self.name,
                    reason=f"containment({query_col} ⊑ {table_name}.{lake_col}) ≈ {containment:.2f}",
                )
            )
        return results
