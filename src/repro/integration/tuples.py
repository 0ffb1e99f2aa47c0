"""Tuple-level machinery for Full Disjunction: provenance, joinability,
merge, subsumption.

Terminology follows the paper's figures:

* every input tuple gets a **TID** (``t1``, ``t2``, ...) numbered across the
  integration set in input order;
* every output tuple gets an **OID** (``f1``, ...) and carries the set of
  TIDs it was merged from;
* two tuples are **joinable** (ALITE: *complementing*) when they agree on
  every attribute where both are non-null **and** share at least one
  attribute where both are non-null and equal -- the connectedness condition
  that stops FD from degenerating into a cartesian product;
* tuple ``a`` **subsumes** ``b`` when ``a`` repeats all of ``b``'s non-null
  values (so ``b`` adds nothing).

Null *kind* (missing ``±`` vs produced ``⊥``) never affects joinability or
subsumption -- both kinds are "no value" -- but it is tracked through merges
so the integrated table can render Figures 3/8 faithfully.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from ..table.ops import outer_union
from ..table.table import Table
from ..table.values import MISSING, PRODUCED, Cell, coalesce, is_null

__all__ = [
    "WorkTuple",
    "joinable",
    "merge_tuples",
    "subsumes",
    "cell_key",
    "normalized_key",
    "prepare_integration_input",
    "base_cells_map",
    "canonicalize_null_kinds",
    "missing_positions_map",
    "IntegratedTable",
]


@dataclass
class WorkTuple:
    """One tuple in an FD working set: cells plus supporting TIDs."""

    cells: tuple[Cell, ...]
    tids: frozenset[str]


def joinable(a: Sequence[Cell], b: Sequence[Cell]) -> bool:
    """ALITE's complementation condition (see module docstring).

    Value equality follows :func:`repro.table.values.values_equal` and
    :func:`cell_key`: ``1`` joins ``1.0``, but ``True`` never joins ``1``
    (bool is kept distinct from int in data context, so the predicate
    agrees with the keys the working-set stores and postings use).
    """
    share = False
    for cell_a, cell_b in zip(a, b):
        null_a, null_b = is_null(cell_a), is_null(cell_b)
        if null_a or null_b:
            continue
        if cell_a != cell_b or isinstance(cell_a, bool) != isinstance(cell_b, bool):
            return False
        share = True
    return share


def merge_tuples(a: WorkTuple, b: WorkTuple) -> WorkTuple:
    """Merge two joinable tuples: non-null values win, null kinds combine,
    provenance unions.  Caller must have checked :func:`joinable`."""
    cells = tuple(coalesce(cell_a, cell_b) for cell_a, cell_b in zip(a.cells, b.cells))
    return WorkTuple(cells=cells, tids=a.tids | b.tids)


def subsumes(a: Sequence[Cell], b: Sequence[Cell]) -> bool:
    """Whether *a* subsumes *b* (a repeats every non-null value of b).

    Reflexive by this definition; callers decide how to break ties between
    equal tuples (the FD algorithms dedupe by value first, so strictness is
    handled there).
    """
    for cell_a, cell_b in zip(a, b):
        if is_null(cell_b):
            continue
        if (
            is_null(cell_a)
            or cell_a != cell_b
            or isinstance(cell_a, bool) != isinstance(cell_b, bool)
        ):
            return False
    return True


_NULL_KEY = ("null",)


def cell_key(cell: Cell) -> tuple:
    """The key of one cell, null kind ignored: the per-cell component of
    :func:`normalized_key`, and what the FD hot paths (complementation
    closure, subsumption) key their inverted indexes by."""
    if is_null(cell):
        return _NULL_KEY
    if isinstance(cell, bool):
        return ("bool", cell)
    if isinstance(cell, (int, float)):
        return ("num", float(cell))
    return ("str", str(cell))


def normalized_key(work: WorkTuple) -> tuple:
    """A dict key for a working tuple's cells that ignores null *kind* (±
    and ⊥ collapse) but keeps everything else exact -- two derivations of
    the same fact must land on one output tuple.  It takes the tuple, not
    a cell sequence, so a single cell is keyed by :func:`cell_key` and
    never by a one-cell round trip through here."""
    return tuple(map(cell_key, work.cells))


def combine_duplicate(existing: WorkTuple, new: WorkTuple) -> WorkTuple:
    """Fold two derivations of the same fact into one tuple.

    Provenance policy: the **canonical minimal witness** wins -- the
    derivation with the fewest supporting TIDs, ties broken by the sorted
    TID list.  This is a commutative, associative, idempotent minimum, so
    the stored provenance is independent of the order in which derivations
    are discovered.  It also matches the paper's Figure 8(b), where ``f12``
    keeps ``{t16}`` although merging ``t12`` re-derives the same values:
    a subsumed input never tints the surviving fact.

    Output null *kinds* are recomputed from the final provenance by
    :func:`canonicalize_null_kinds`, so they need no handling here.
    """
    key_existing = (len(existing.tids), sorted(existing.tids))
    key_new = (len(new.tids), sorted(new.tids))
    return existing if key_existing <= key_new else new


def prepare_integration_input(
    tables: Sequence[Table],
) -> tuple[tuple[str, ...], list[WorkTuple], dict[str, tuple[str, int]]]:
    """Shared preamble of every FD algorithm.

    Outer-unions the (already aligned) tables over the united header, labels
    input tuples ``t1..tn`` in input order, and converts any raw nulls the
    inputs carried into *missing* nulls (they predate integration).  Returns
    ``(header, work tuples, tid -> (table name, row index))``.
    """
    if not tables:
        raise ValueError("cannot integrate an empty set of tables")
    unioned = outer_union(tables)
    header = unioned.columns
    tuples: list[WorkTuple] = []
    tid_sources: dict[str, tuple[str, int]] = {}
    counter = 0
    position = 0
    for table in tables:
        own_columns = set(table.columns)
        for row_index in range(table.num_rows):
            counter += 1
            tid = f"t{counter}"
            tid_sources[tid] = (table.name, row_index)
            raw = unioned.rows[position]
            position += 1
            cells = tuple(
                (MISSING if column in own_columns else cell) if is_null(cell) else cell
                for column, cell in zip(header, raw)
            )
            tuples.append(WorkTuple(cells=cells, tids=frozenset({tid})))
    return header, tuples, tid_sources


def base_cells_map(tuples: Sequence[WorkTuple]) -> dict[str, tuple[Cell, ...]]:
    """tid -> input cells, from the singleton-tid tuples of
    :func:`prepare_integration_input` (before any dedup or merging)."""
    mapping: dict[str, tuple[Cell, ...]] = {}
    for work in tuples:
        for tid in work.tids:
            mapping[tid] = work.cells
    return mapping


def missing_positions_map(
    base: dict[str, tuple[Cell, ...]]
) -> dict[str, frozenset[int]]:
    """tid -> positions where that input tuple carries an explicit missing
    null.  The precomputation behind :func:`canonicalize_null_kinds`."""
    missing_of: dict[str, frozenset[int]] = {}
    for tid, source in base.items():
        positions = frozenset(
            i for i, cell in enumerate(source) if cell is MISSING
        )
        if positions:
            missing_of[tid] = positions
    return missing_of


def canonicalize_null_kinds(
    tuples: Sequence[WorkTuple],
    base: dict[str, tuple[Cell, ...]],
) -> list[WorkTuple]:
    """Make output null kinds a pure function of provenance.

    A null in an output fact is *missing* (``±``) iff some supporting input
    tuple carried an explicit missing null at that attribute; otherwise it is
    *produced* (``⊥``).  This is exactly how the paper's figures annotate
    nulls, and -- because it depends only on (provenance, attribute) -- it
    makes every FD algorithm's output deterministic regardless of the order
    in which merges were discovered.

    The per-TID missing-position index (:func:`missing_positions_map`)
    makes the inner question per output null a set-membership test
    instead of a rescan of the supporting input tuple's cell vector.
    """
    missing_of = missing_positions_map(base)
    canonical = []
    for work in tuples:
        cells = list(work.cells)
        for position, cell in enumerate(cells):
            if not is_null(cell):
                continue
            kind: Cell = PRODUCED
            for tid in work.tids:
                positions = missing_of.get(tid)
                if positions is not None and position in positions:
                    kind = MISSING
                    break
            cells[position] = kind
        canonical.append(WorkTuple(cells=tuple(cells), tids=work.tids))
    return canonical


class IntegratedTable(Table):
    """A table whose rows carry provenance (the figures' OID/TIDs columns).

    ``provenance[i]`` is the frozenset of TIDs supporting row ``i``;
    ``tid_sources`` maps each TID back to its (table name, row index).
    """

    __slots__ = ("provenance", "tid_sources", "algorithm", "input_tuples")

    def __init__(
        self,
        columns: Sequence[str],
        rows: Sequence[Sequence[Cell]],
        provenance: Sequence[frozenset[str]],
        tid_sources: dict[str, tuple[str, int]],
        name: str = "integrated",
        algorithm: str = "",
        input_tuples: Sequence[WorkTuple] = (),
    ):
        super().__init__(columns, rows, name=name)
        if len(provenance) != self.num_rows:
            raise ValueError("provenance must align with rows")
        self.provenance = tuple(provenance)
        self.tid_sources = dict(tid_sources)
        self.algorithm = algorithm
        #: The original (singleton-TID) input tuples over this header --
        #: kept so integration can continue incrementally: a tuple that was
        #: subsumed away can still merge with a *future* table's rows.
        self.input_tuples = tuple(input_tuples)

    @classmethod
    def from_work_tuples(
        cls,
        header: Sequence[str],
        tuples: Sequence[WorkTuple],
        tid_sources: dict[str, tuple[str, int]],
        name: str = "integrated",
        algorithm: str = "",
        input_tuples: Sequence[WorkTuple] = (),
    ) -> "IntegratedTable":
        """Build the final table, ordering rows by their smallest TID (the
        paper's presentation order) and then by value for determinism."""

        # TIDs repeat across many output tuples' provenance sets; parse
        # each one once per call instead of once per (tuple, tid) pair.
        numbers: dict[str, int] = {}

        def tid_number(tid: str) -> int:
            number = numbers.get(tid)
            if number is None:
                number = numbers[tid] = int(tid[1:])
            return number

        def sort_key(work: WorkTuple):
            smallest = min((tid_number(t) for t in work.tids), default=1 << 30)
            return (smallest, normalized_key(work))

        ordered = sorted(tuples, key=sort_key)
        return cls(
            columns=tuple(header),
            rows=[w.cells for w in ordered],
            provenance=[w.tids for w in ordered],
            tid_sources=tid_sources,
            name=name,
            algorithm=algorithm,
            input_tuples=input_tuples,
        )

    def iter_facts(self) -> Iterator[tuple[str, frozenset[str], tuple[Cell, ...]]]:
        """Yield ``(OID, TIDs, cells)`` in presentation order."""
        for i, row in enumerate(self.rows):
            yield (f"f{i + 1}", self.provenance[i], row)

    def to_display_table(self) -> Table:
        """The figures' rendering: OID and TIDs as leading columns."""
        rows = []
        for oid, tids, cells in self.iter_facts():
            tid_text = "{" + ", ".join(sorted(tids, key=lambda t: int(t[1:]))) + "}"
            rows.append((oid, tid_text, *cells))
        return Table(("OID", "TIDs", *self.columns), rows, name=self.name)

    def find_fact(self, **values: Cell) -> frozenset[str] | None:
        """Provenance of the first row matching all given column values, or
        ``None`` -- a convenience for tests and examples."""
        positions = {self.column_index(k): v for k, v in values.items()}
        for i, row in enumerate(self.rows):
            if all(row[p] == v for p, v in positions.items()):
                return self.provenance[i]
        return None
