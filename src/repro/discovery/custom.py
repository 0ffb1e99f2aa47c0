"""User-defined discovery (the paper's Fig. 4 extensibility hook).

DIALITE lets a user add a discovery algorithm by "implementing a similarity
function between two datasets".  :class:`FunctionDiscoverer` wraps exactly
that: any ``f(query_table, lake_table) -> float`` becomes a full discoverer
(brute-force scan -- correctness first; users wanting indexes subclass
:class:`~repro.discovery.base.Discoverer` directly).

:func:`inner_join_similarity` reproduces the figure's example: similarity as
the relative size of the inner join between the two tables.
"""

from __future__ import annotations

from typing import Callable, Mapping

from ..candidates.spec import CandidateSet, CandidateSpec
from ..table import ops
from ..table.table import Table
from .base import Discoverer, DiscoveryResult

__all__ = ["FunctionDiscoverer", "inner_join_similarity", "value_overlap_similarity"]


class FunctionDiscoverer(Discoverer):
    """Wrap a pairwise table-similarity function as a discoverer.

    A bare similarity function declares nothing about *where* its signal
    lives, so its spec is honestly exhaustive: every candidate the engine
    hands over (the whole lake) is scored.  Users wanting sublinear
    retrieval subclass :class:`~repro.discovery.base.Discoverer` and
    declare a real :class:`~repro.candidates.CandidateSpec`.
    """

    spec = CandidateSpec(
        channels=("exhaustive",),
        note="a black-box similarity function has no declared retrieval signal",
    )

    def __init__(
        self,
        similarity: Callable[[Table, Table], float],
        name: str = "user_defined",
    ):
        super().__init__()
        self.name = name
        self._similarity = similarity

    def _build_index(self, lake: Mapping[str, Table]) -> None:
        """Nothing to build: ``_search`` reads each candidate through its
        candidate set."""

    def _search(
        self,
        query: Table,
        k: int,
        query_column: str | None,
        candidates: CandidateSet,
    ) -> list[DiscoveryResult]:
        results = []
        for table_name in candidates:
            score = float(self._similarity(query, candidates.table(table_name)))
            if score > 0.0:
                results.append(
                    DiscoveryResult(
                        table_name=table_name,
                        score=score,
                        discoverer=self.name,
                        reason=f"{self.name}(query, {table_name}) = {score:.3f}",
                    )
                )
        return results


def inner_join_similarity(query: Table, candidate: Table) -> float:
    """The Fig. 4 example: how large is the natural inner join, relative to
    the query?  0.0 when the tables share no columns."""
    shared = [c for c in query.columns if candidate.has_column(c)]
    if not shared or query.num_rows == 0:
        return 0.0
    joined = ops.inner_join(query, candidate, on=shared)
    return joined.num_rows / query.num_rows


def value_overlap_similarity(query: Table, candidate: Table) -> float:
    """A schema-agnostic alternative: Jaccard of the tables' distinct cell
    values (strings only), useful when headers are unreliable."""
    def values_of(table: Table) -> set[str]:
        collected: set[str] = set()
        for column in table.columns:
            collected.update(
                str(v).lower() for v in table.column_values(column) if isinstance(v, str)
            )
        return collected

    from ..text.similarity import jaccard

    query_values = values_of(query)
    candidate_values = values_of(candidate)
    if not query_values or not candidate_values:
        return 0.0
    return jaccard(query_values, candidate_values)
