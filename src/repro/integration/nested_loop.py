"""Nested-loop Full Disjunction: the classical baseline.

Semantically identical to :class:`~repro.integration.alite.AliteFD` but
structured the way pre-ALITE algorithms were (Cohen et al., VLDB 2006 era
tuple-at-a-time processing): repeated full O(n²) passes over the working
set until a pass produces nothing new, then quadratic subsumption removal.
No value index, no agenda -- every pass re-examines every pair.

It exists as the performance baseline for experiment E8 (the demo's claim
that ALITE "was shown to be correct and faster than the existing FD
algorithms"); tests assert it computes exactly the same result as AliteFD.

Deliberately *not* ported to the interned integer kernel: this class
demonstrates the algorithmic gap (indexed, partition-first closure vs
quadratic passes), while ``LegacyAliteFD`` isolates the representation gap
(object cells vs interned int vectors) -- the two baselines of
``benchmarks/bench_fd_kernel.py``.  It keys whole working tuples with
``normalized_key``, once per tuple.
"""

from __future__ import annotations

from ..table.table import Table
from ..table.values import is_null
from .base import Integrator
from .subsume import dedupe_tuples
from .tuples import (
    IntegratedTable,
    WorkTuple,
    base_cells_map,
    canonicalize_null_kinds,
    joinable,
    merge_tuples,
    normalized_key,
    prepare_integration_input,
    subsumes,
)

__all__ = ["NestedLoopFD"]


class NestedLoopFD(Integrator):
    """Fixpoint FD via repeated quadratic passes (correct, deliberately slow)."""

    name = "nested_loop_fd"

    def _integrate(self, tables: list[Table], name: str) -> IntegratedTable:
        header, work, tid_sources = prepare_integration_input(tables)
        current = dedupe_tuples(work)
        seen = {normalized_key(w) for w in current}

        changed = True
        while changed:
            changed = False
            snapshot = list(current)
            for i in range(len(snapshot)):
                for j in range(i + 1, len(snapshot)):
                    left, right = snapshot[i], snapshot[j]
                    if not joinable(left.cells, right.cells):
                        continue
                    merged = merge_tuples(left, right)
                    key = normalized_key(merged)
                    if key not in seen:
                        seen.add(key)
                        current.append(merged)
                        changed = True

        final = canonicalize_null_kinds(
            self._quadratic_subsumption(current), base_cells_map(work)
        )
        return IntegratedTable.from_work_tuples(
            header, final, tid_sources, name=name, algorithm=self.name
        )

    @staticmethod
    def _quadratic_subsumption(tuples: list[WorkTuple]) -> list[WorkTuple]:
        unique = dedupe_tuples(tuples)
        kept = []
        for i, work in enumerate(unique):
            if all(is_null(cell) for cell in work.cells) and len(unique) > 1:
                continue
            dominated = False
            for j, other in enumerate(unique):
                if i == j:
                    continue
                if subsumes(other.cells, work.cells):
                    dominated = True
                    break
            if not dominated:
                kept.append(work)
        return kept
