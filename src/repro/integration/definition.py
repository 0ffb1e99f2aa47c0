"""The definitional (oracle) Full Disjunction, by exhaustive enumeration.

Full Disjunction = the subsumption-free set of merges of all *connected,
join-consistent* subsets of the input tuples (Galindo-Legaria 1994 /
Rajaraman & Ullman 1996, phrased over the outer-unioned integration set).

This module computes that definition literally, by breadth-first expansion
over subsets.  It is exponential and exists for two purposes only: as the
ground-truth oracle in property-based tests (AliteFD / LegacyAliteFD /
NestedLoopFD must all equal it on every random small input), and as
executable documentation of the semantics.  Never use it on more than ~15 tuples.
"""

from __future__ import annotations

from ..table.table import Table
from .base import Integrator
from .subsume import dedupe_tuples, remove_subsumed
from .tuples import (
    IntegratedTable,
    WorkTuple,
    base_cells_map,
    canonicalize_null_kinds,
    joinable,
    merge_tuples,
    prepare_integration_input,
)

__all__ = ["OracleFD", "enumerate_merges"]

_MAX_ORACLE_TUPLES = 18


def enumerate_merges(base: list[WorkTuple]) -> list[WorkTuple]:
    """Merges of every connected join-consistent subset of *base*.

    Expansion invariant: a subset S is grown by tuple j only when the merge
    of S is joinable with j, which holds exactly when S ∪ {j} is still
    connected and join-consistent (the merged tuple carries every member's
    values, so pair checks against it cover all members).
    """
    merges: dict[frozenset[int], WorkTuple] = {}
    frontier: list[tuple[frozenset[int], WorkTuple]] = []
    for i, work in enumerate(base):
        subset = frozenset([i])
        merges[subset] = work
        frontier.append((subset, work))
    while frontier:
        next_frontier: list[tuple[frozenset[int], WorkTuple]] = []
        for subset, merged in frontier:
            for j, candidate in enumerate(base):
                if j in subset:
                    continue
                grown = subset | {j}
                if grown in merges:
                    continue
                if joinable(merged.cells, candidate.cells):
                    grown_merge = merge_tuples(merged, candidate)
                    merges[grown] = grown_merge
                    next_frontier.append((grown, grown_merge))
        frontier = next_frontier
    return list(merges.values())


class OracleFD(Integrator):
    """Brute-force FD by definition (test oracle; exponential)."""

    name = "oracle_fd"

    def _integrate(self, tables: list[Table], name: str) -> IntegratedTable:
        header, work, tid_sources = prepare_integration_input(tables)
        base = dedupe_tuples(work)
        if len(base) > _MAX_ORACLE_TUPLES:
            raise ValueError(
                f"OracleFD is exponential; refusing {len(base)} tuples "
                f"(limit {_MAX_ORACLE_TUPLES}) -- use AliteFD"
            )
        final = canonicalize_null_kinds(
            remove_subsumed(enumerate_merges(base)), base_cells_map(work)
        )
        return IntegratedTable.from_work_tuples(
            header, final, tid_sources, name=name, algorithm=self.name
        )
