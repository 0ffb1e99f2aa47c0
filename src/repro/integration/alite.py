"""ALITE's Full Disjunction: partition, complement to fixpoint, subsume.

The algorithm (Khatiwada et al., VLDB 2023, adapted to in-memory scale):

1. **Outer union** the aligned tables over the united header, labelling the
   tuples ``t1..tn`` (:func:`prepare_integration_input`).
2. **Partition** the working set into connected components of the
   shared-value graph (the paper's partitioning step; Paganelli et al.,
   BDR 2019 prove closure and subsumption never cross a component).
3. **Complementation closure**, per component: repeatedly merge *joinable*
   tuple pairs (agree wherever both non-null, overlap on at least one
   value) until no new tuple appears.  The working set is keyed by value so
   re-derivations collapse; an inverted index on (attribute, value) means
   each tuple only ever meets tuples it shares a value with.
4. **Subsumption removal** drops every tuple another tuple makes redundant.

Since PR 4 the default :class:`AliteFD` runs steps 2-4 on the **interned
integer kernel** (:mod:`repro.integration.intern`): cells become small int
codes in an interner the call builds and drops, joinability/subsumption
become masked int-vector loops, and postings become packed ints.
:class:`LegacyAliteFD` keeps the original object-level kernel (same
algorithm and data layout as pre-PR-4; it shares the
``joinable``/``subsumes`` predicates, which gained the bool-vs-int
discipline of ``values_equal`` in the same PR, so both kernels see one
semantics) as the benchmark baseline (``benchmarks/bench_fd_kernel.py``
gates the interned kernel >= 4.5x over it) and as the equivalence oracle for
``tests/property/test_fd_kernel_equivalence.py``: both kernels must produce
identical cells, null kinds, provenance and row order.

The result is exactly the set of maximal merges of connected,
join-consistent subsets of the input tuples (see
``tests/property/test_fd_properties.py``, which checks this against a
brute-force oracle), which is the integration semantics of the paper's
Figures 3 and 8(b).
"""

from __future__ import annotations

from collections import deque

from ..table.table import Table
from ..table.values import MISSING, PRODUCED, is_null
from .base import Integrator
from .intern import solve_interned
from .subsume import dedupe_tuples, remove_subsumed
from .tuples import (
    IntegratedTable,
    WorkTuple,
    base_cells_map,
    canonicalize_null_kinds,
    cell_key,
    combine_duplicate,
    joinable,
    merge_tuples,
    prepare_integration_input,
)

__all__ = ["AliteFD", "LegacyAliteFD", "complementation_closure"]

#: The singleton key :func:`cell_key` returns for nulls of either kind.
_NULL_CELL_KEY = cell_key(MISSING)


def complementation_closure(tuples: list[WorkTuple]) -> list[WorkTuple]:
    """Close *tuples* under pairwise complementation (merge of joinable
    pairs) -- the **object-level** kernel, kept as the
    :class:`LegacyAliteFD` baseline.  Returns the full closure including
    intermediates; callers typically follow with :func:`remove_subsumed`.

    The interned kernel (:func:`repro.integration.intern.interned_closure`)
    replicates this algorithm -- including its sorted partner iteration, so
    provenance folding is identical -- on integer codes.

    The key vectors that drive the (attribute, value) inverted index are
    computed **once per stored tuple** at insertion -- the tuple's normalized
    key is built in the same pass -- and reused every time the tuple is
    popped from the agenda, instead of being rebuilt per visit.
    """
    store: dict[tuple, WorkTuple] = {}
    keys_of: dict[tuple, list[tuple[int, tuple]]] = {}
    postings: dict[tuple[int, tuple], set[tuple]] = {}

    def insert(work: WorkTuple) -> tuple | None:
        """Add to the store; returns the key if the tuple is new.

        A re-derivation of an already-known fact folds provenance via
        :func:`combine_duplicate` (minimal support wins -- the paper's
        Figure 8(b) keeps ``f12 = {t16}`` even though merging ``t12``
        derives the same values) and never re-enters the agenda.
        """
        # One pass builds both the store key and the per-cell key vector.
        tagged = [cell_key(cell) for cell in work.cells]
        key = tuple(tagged)
        existing = store.get(key)
        if existing is not None:
            store[key] = combine_duplicate(existing, work)
            return None
        store[key] = work
        cell_keys = [
            (position, tag)
            for position, tag in enumerate(tagged)
            if tag is not _NULL_CELL_KEY
        ]
        keys_of[key] = cell_keys
        for pair in cell_keys:
            postings.setdefault(pair, set()).add(key)
        return key

    agenda: deque[tuple] = deque()
    for work in dedupe_tuples(tuples):
        key = insert(work)
        if key is not None:
            agenda.append(key)

    while agenda:
        key = agenda.popleft()
        work = store[key]
        partner_keys: set[tuple] = set()
        for pair in keys_of[key]:
            partner_keys.update(postings.get(pair, ()))
        partner_keys.discard(key)
        # Sorted iteration keeps the whole closure independent of Python's
        # per-process hash randomization (keys are tuples of tagged cells,
        # so they sort totally).
        for partner_key in sorted(partner_keys):
            partner = store.get(partner_key)
            if partner is None:
                continue
            if joinable(work.cells, partner.cells):
                merged_key = insert(merge_tuples(work, partner))
                if merged_key is not None:
                    agenda.append(merged_key)
    return list(store.values())


def _prepare_incremental(
    existing: IntegratedTable, table: Table
) -> tuple[
    list[str],
    list[WorkTuple],
    list[WorkTuple],
    list[WorkTuple],
    dict[str, tuple[str, int]],
]:
    """Shared preamble of both incremental integrators.

    Widens the existing inputs and final facts to the united header, labels
    the new table's rows with fresh TIDs, and returns ``(header, seeds,
    new_inputs, all_inputs, tid_sources)``.  Seeding the closure with the
    *original input tuples* (kept on :class:`IntegratedTable` precisely for
    this) plus the previous final output is what makes
    ``integrate_incremental`` equal the batch FD: a tuple subsumed away
    earlier can still merge with a future table's rows, while
    already-discovered merges are free.
    """
    if not existing.input_tuples:
        raise ValueError(
            "existing result carries no input tuples; it was not produced "
            "by AliteFD (or was reconstructed) -- integrate from scratch"
        )
    header = list(existing.columns)
    for column in table.columns:
        if column not in existing.columns:
            header.append(column)
    width = len(header)
    position_of = {c: i for i, c in enumerate(header)}

    def widen(cells: tuple) -> tuple:
        return cells + (PRODUCED,) * (width - len(cells))

    widened_inputs = [
        WorkTuple(widen(w.cells), w.tids) for w in existing.input_tuples
    ]
    seeds: list[WorkTuple] = list(widened_inputs)
    seeds.extend(
        WorkTuple(widen(tuple(row)), existing.provenance[i])
        for i, row in enumerate(existing.rows)
    )

    next_tid = 1 + max((int(t[1:]) for t in existing.tid_sources), default=0)
    tid_sources = dict(existing.tid_sources)
    own_positions = [position_of[c] for c in table.columns]
    new_inputs: list[WorkTuple] = []
    for row_index, row in enumerate(table.rows):
        tid = f"t{next_tid}"
        next_tid += 1
        tid_sources[tid] = (table.name, row_index)
        cells: list = [PRODUCED] * width
        for column_position, cell in zip(own_positions, row):
            cells[column_position] = MISSING if is_null(cell) else cell
        new_inputs.append(WorkTuple(tuple(cells), frozenset({tid})))

    return header, seeds, new_inputs, widened_inputs + new_inputs, tid_sources


class AliteFD(Integrator):
    """The default DIALITE integrator: ALITE's Full Disjunction on the
    interned, partition-first kernel.

    An instance holds **no state**: every ``integrate`` /
    ``integrate_incremental`` call interns into its own
    :class:`~repro.integration.intern.ValueInterner`, so one registered
    instance serves any number of callers and lake generations while
    accreting nothing, and a call's cost never depends on what the process
    integrated before.  The kernel accounting (component counts, domain
    size, per-phase timings -- the payload behind ``repro integrate
    --explain``) is the call's ``integrate.fd`` span under the ambient
    tracer (:func:`~repro.integration.intern.fd_stats_from_span`).
    """

    name = "alite_fd"

    def _integrate(self, tables: list[Table], name: str) -> IntegratedTable:
        header, work, tid_sources = prepare_integration_input(tables)
        final = canonicalize_null_kinds(solve_interned(work), base_cells_map(work))
        return IntegratedTable.from_work_tuples(
            header, final, tid_sources, name=name, algorithm=self.name,
            input_tuples=work,
        )

    def integrate_incremental(
        self, existing: IntegratedTable, table: Table, name: str = "integrated"
    ) -> IntegratedTable:
        """Fold one more table into an existing FD result.

        Produces exactly ``FD(original tables + table)`` (asserted by tests
        at every prefix): the seeds and the new rows are solved as one
        working set, interned afresh like any other call.
        """
        header, seeds, new_inputs, all_inputs, tid_sources = _prepare_incremental(
            existing, table
        )
        final = canonicalize_null_kinds(
            solve_interned(seeds + new_inputs), base_cells_map(all_inputs)
        )
        return IntegratedTable.from_work_tuples(
            header, final, tid_sources, name=name, algorithm=self.name,
            input_tuples=all_inputs,
        )


class LegacyAliteFD(Integrator):
    """The object-level ALITE kernel: the pre-PR-4 implementation shape
    (object cells, tagged-tuple keys, global closure), on the shared --
    and since PR 4 bool/int-disciplined -- predicates.

    Exists as the performance baseline of ``benchmarks/bench_fd_kernel.py``
    and the equivalence oracle of the interned kernel's property suite; it
    is *not* registered in the pipeline.
    """

    name = "legacy_alite_fd"

    def _integrate(self, tables: list[Table], name: str) -> IntegratedTable:
        header, work, tid_sources = prepare_integration_input(tables)
        base = base_cells_map(work)
        closed = complementation_closure(work)
        final = canonicalize_null_kinds(remove_subsumed(closed), base)
        return IntegratedTable.from_work_tuples(
            header, final, tid_sources, name=name, algorithm=self.name,
            input_tuples=work,
        )

    def integrate_incremental(
        self, existing: IntegratedTable, table: Table, name: str = "integrated"
    ) -> IntegratedTable:
        """The object-kernel incremental fold (same contract as
        :meth:`AliteFD.integrate_incremental`)."""
        header, seeds, new_inputs, all_inputs, tid_sources = _prepare_incremental(
            existing, table
        )
        closed = complementation_closure(seeds + new_inputs)
        final = canonicalize_null_kinds(
            remove_subsumed(closed), base_cells_map(all_inputs)
        )
        return IntegratedTable.from_work_tuples(
            header, final, tid_sources, name=name, algorithm=self.name,
            input_tuples=all_inputs,
        )
