"""The in-memory table: the data structure every stage of DIALITE shares.

A :class:`Table` is an immutable-by-convention relation with named columns
and null-aware cells, stored **columnar**: the canonical representation is a
tuple of per-column cell tuples, with the row-major view materialized lazily
on first access.  Columnar storage is what lets the relational operators in
:mod:`repro.table.ops` run as column gathers and lets derived tables share
column arrays instead of copying rows.  It deliberately stays small:
relational operators live in :mod:`repro.table.ops`, per-column statistics
in :mod:`repro.table.stats`, CSV I/O in :mod:`repro.table.io`, and
integration provenance (tuple IDs / output IDs) in
:mod:`repro.integration.tuples` -- the table itself is just well-formed data.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from .schema import ColumnSpec, Schema
from .stats import TableStats
from .values import MISSING, Cell, is_null

__all__ = ["Table"]

# Monotonic table identities.  Cache consumers key per-table state by
# ``table.uid`` rather than ``id(table)``: CPython recycles object ids as
# soon as a table is garbage collected, so an id-keyed external cache could
# silently serve one table's statistics for an unrelated successor at the
# same address.  uids are never reused within a process.
_NEXT_UID = itertools.count(1)


class Table:
    """A named relation: ordered, equal-length column arrays.

    Cells are :data:`repro.table.values.Cell` values.  Construction validates
    shape (ragged rows and duplicate column names are rejected immediately
    rather than surfacing later as silent misalignment, the classic data-lake
    failure mode).  The ``rows`` view is built lazily from the column arrays
    and cached, so row-major consumers keep working unchanged while
    column-major consumers never pay for it.
    """

    __slots__ = (
        "_name",
        "_columns",
        "_coldata",
        "_num_rows",
        "_rows",
        "_schema",
        "_col_index",
        "_stats",
        "_uid",
    )

    def __init__(
        self,
        columns: Sequence[str],
        rows: Iterable[Sequence[Cell]] = (),
        name: str = "table",
    ):
        self._name = name
        self._columns = tuple(str(c) for c in columns)
        self._col_index = {c: i for i, c in enumerate(self._columns)}
        if len(self._col_index) != len(self._columns):
            raise ValueError(f"duplicate column names in table {name!r}: {self._columns}")
        width = len(self._columns)
        materialized = []
        for row_number, row in enumerate(rows):
            row_tuple = tuple(row)
            if len(row_tuple) != width:
                raise ValueError(
                    f"row {row_number} of table {name!r} has {len(row_tuple)} cells, "
                    f"expected {width}"
                )
            materialized.append(row_tuple)
        self._num_rows = len(materialized)
        if materialized:
            self._coldata = tuple(zip(*materialized))
        else:
            self._coldata = ((),) * width
        # The columnar arrays are canonical; the row view is rebuilt lazily
        # rather than retained (holding both would double table memory).
        self._rows: list[tuple[Cell, ...]] | None = None
        self._schema: Schema | None = None
        self._stats: TableStats | None = None
        self._uid: int = next(_NEXT_UID)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_columns(
        cls,
        columns: Sequence[str],
        arrays: Sequence[Sequence[Cell]],
        name: str = "table",
    ) -> "Table":
        """Build a table directly from column arrays (the fast path every
        columnar operator uses).  All arrays must have equal length."""
        if len(columns) != len(arrays):
            raise ValueError(
                f"table {name!r}: {len(columns)} column names for {len(arrays)} arrays"
            )
        coldata = tuple(
            array if type(array) is tuple else tuple(array) for array in arrays
        )
        lengths = {len(array) for array in coldata}
        if len(lengths) > 1:
            raise ValueError(
                f"columns of table {name!r} have unequal lengths: {sorted(lengths)}"
            )
        table = cls.__new__(cls)
        table._init_columnar(columns, coldata, lengths.pop() if lengths else 0, name)
        return table

    @classmethod
    def _from_columns_unchecked(
        cls,
        columns: Sequence[str],
        coldata: tuple[tuple[Cell, ...], ...],
        num_rows: int,
        name: str,
    ) -> "Table":
        """Internal zero-validation constructor for trusted operator output."""
        table = cls.__new__(cls)
        table._init_columnar(columns, coldata, num_rows, name)
        return table

    def _init_columnar(
        self,
        columns: Sequence[str],
        coldata: tuple[tuple[Cell, ...], ...],
        num_rows: int,
        name: str,
    ) -> None:
        self._name = name
        self._columns = tuple(str(c) for c in columns)
        self._col_index = {c: i for i, c in enumerate(self._columns)}
        if len(self._col_index) != len(self._columns):
            raise ValueError(f"duplicate column names in table {name!r}: {self._columns}")
        self._coldata = coldata
        self._num_rows = num_rows
        self._rows = None
        self._schema = None
        self._stats = None
        self._uid = next(_NEXT_UID)

    @classmethod
    def from_dict(cls, data: Mapping[str, Sequence[Cell]], name: str = "table") -> "Table":
        """Build a table from ``{column name: column values}``.

        All columns must have equal length (ragged input raises).
        """
        return cls.from_columns(list(data), list(data.values()), name=name)

    @classmethod
    def empty(cls, columns: Sequence[str], name: str = "table") -> "Table":
        """A zero-row table with the given header."""
        return cls(columns, (), name=name)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self._name

    @property
    def columns(self) -> tuple[str, ...]:
        return self._columns

    @property
    def rows(self) -> list[tuple[Cell, ...]]:
        """The row-major view (built lazily, cached); treat it as read-only."""
        if self._rows is None:
            if self._coldata:
                self._rows = list(zip(*self._coldata))
            else:
                self._rows = [()] * self._num_rows
        return self._rows

    @property
    def column_arrays(self) -> tuple[tuple[Cell, ...], ...]:
        """The canonical columnar storage: one immutable cell tuple per
        column, in header order.  Derived tables may share these arrays."""
        return self._coldata

    def column_array(self, name: str) -> tuple[Cell, ...]:
        """One column as its immutable backing array."""
        return self._coldata[self.column_index(name)]

    @property
    def num_rows(self) -> int:
        return self._num_rows

    @property
    def num_columns(self) -> int:
        return len(self._columns)

    @property
    def shape(self) -> tuple[int, int]:
        """``(rows, columns)``, pandas-style."""
        return (self._num_rows, len(self._columns))

    @property
    def schema(self) -> Schema:
        """The inferred schema (computed lazily per column and cached)."""
        if self._schema is None:
            from .infer import infer_dtype

            self._schema = Schema(
                ColumnSpec(name, infer_dtype(self._coldata[i]))
                for i, name in enumerate(self._columns)
            )
        return self._schema

    @property
    def uid(self) -> int:
        """A process-unique, monotonically increasing table identity.

        This is the cache key every table-scoped cache uses (see the
        invalidation contract in :mod:`repro.table.stats`): unlike
        ``id(table)``, a uid is never recycled after garbage collection, so
        an external cache keyed by ``(table.uid, column)`` can never serve
        one table's statistics for an unrelated successor allocated at the
        same address.  Unpickled tables receive a fresh uid -- identities
        are process-scoped, never shipped across processes.
        """
        return self._uid

    @property
    def stats(self) -> TableStats:
        """Per-column statistics (:mod:`repro.table.stats`), computed once
        per column and cached on this table for its lifetime."""
        if self._stats is None:
            self._stats = TableStats(self)
        return self._stats

    def adopt_stats(self, stats: TableStats) -> "Table":
        """Attach pre-computed statistics (a hydrated snapshot from
        :mod:`repro.store`) as this table's stats cache; returns self.

        The snapshot must describe exactly this table's columns.  Adoption
        re-keys the stats to this table's :attr:`uid` and binds any
        lazily-loading column arrays to the in-memory ones, so subsequent
        consumers read cached statistics without a single raw scan.
        """
        if stats.columns != self._columns:
            raise ValueError(
                f"stats columns {list(stats.columns)} do not match table "
                f"{self._name!r} columns {list(self._columns)}"
            )
        stats._rekey(self._uid)
        for position, name in enumerate(self._columns):
            stats.column(name)._bind_array(self._coldata[position])
        self._stats = stats
        return self

    def __setstate__(self, state: tuple[Any, dict[str, Any]]) -> None:
        # Default slots pickling, except uids are process-scoped: a table
        # arriving from another process is a *new* object here and must not
        # import an identity that may collide with locally issued uids.
        _, slots = state
        for key, value in slots.items():
            setattr(self, key, value)
        self._uid = next(_NEXT_UID)
        if getattr(self, "_stats", None) is not None:
            self._stats._rekey(self._uid)

    def column_index(self, name: str) -> int:
        """Position of column *name* (KeyError lists available columns)."""
        try:
            return self._col_index[name]
        except KeyError:
            raise KeyError(
                f"table {self._name!r} has no column {name!r}; columns: {list(self._columns)}"
            ) from None

    def has_column(self, name: str) -> bool:
        """Whether the table has a column called *name*."""
        return name in self._col_index

    def column(self, name: str) -> list[Cell]:
        """All values of one column, in row order.

        The returned list is a **cached shared view** -- the same object on
        every call -- so discovery loops stop paying a fresh copy per probe.
        It is read-only (mutators raise; copy with ``list(...)`` if needed);
        see the invalidation contract in :mod:`repro.table.stats`.
        """
        return self.stats.column(name).column_list

    def column_values(self, name: str) -> list[Cell]:
        """Non-null values of one column, in row order (cached shared
        read-only view; copy with ``list(...)`` if mutation is needed)."""
        return self.stats.column(name).values

    def distinct_values(self, name: str) -> frozenset[Cell]:
        """The set of distinct non-null values in a column (a *domain*).

        Cached and returned as a frozenset: every consumer across discovery,
        alignment and integration shares one computation per column.
        """
        return self.stats.column(name).distinct

    def cell(self, row: int, column: str) -> Cell:
        """One cell by row index and column name."""
        return self._coldata[self.column_index(column)][row]

    # ------------------------------------------------------------------
    # Iteration
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[tuple[Cell, ...]]:
        return iter(self.rows)

    def __len__(self) -> int:
        return self._num_rows

    def iter_dicts(self) -> Iterator[dict[str, Cell]]:
        """Rows as ``{column: value}`` dictionaries."""
        for row in self.rows:
            yield dict(zip(self._columns, row))

    # ------------------------------------------------------------------
    # Lightweight transforms (anything heavier lives in table.ops)
    # ------------------------------------------------------------------
    def with_name(self, name: str) -> "Table":
        """The same data under a different table name (column arrays are
        shared, not copied)."""
        return Table._from_columns_unchecked(
            self._columns, self._coldata, self._num_rows, name
        )

    def renamed(self, mapping: Mapping[str, str]) -> "Table":
        """Rename a subset of columns (old name -> new name); data is shared."""
        unknown = sorted(set(mapping) - set(self._col_index))
        if unknown:
            raise KeyError(f"cannot rename unknown columns of {self._name!r}: {unknown}")
        new_columns = [mapping.get(c, c) for c in self._columns]
        return Table._from_columns_unchecked(
            new_columns, self._coldata, self._num_rows, self._name
        )

    def head(self, n: int = 5) -> "Table":
        """The first *n* rows."""
        kept = len(range(self._num_rows)[:n])  # Python slice semantics
        return Table._from_columns_unchecked(
            self._columns,
            tuple(array[:n] for array in self._coldata),
            kept,
            self._name,
        )

    def take(self, indices: Sequence[int]) -> "Table":
        """Rows at *indices*, in that order (a columnar gather)."""
        if not indices:
            coldata: tuple[tuple[Cell, ...], ...] = ((),) * len(self._coldata)
        elif len(indices) == 1:
            i = indices[0]
            coldata = tuple((array[i],) for array in self._coldata)
        else:
            from operator import itemgetter

            getter = itemgetter(*indices)
            coldata = tuple(getter(array) for array in self._coldata)
        return Table._from_columns_unchecked(
            self._columns, coldata, len(indices), self._name
        )

    def map_column(self, name: str, func: Callable[[Cell], Cell]) -> "Table":
        """Apply *func* to every cell of one column, nulls included."""
        position = self.column_index(name)
        coldata = list(self._coldata)
        coldata[position] = tuple(func(cell) for cell in coldata[position])
        return Table._from_columns_unchecked(
            self._columns, tuple(coldata), self._num_rows, self._name
        )

    def fill_missing(self) -> "Table":
        """Replace every null by :data:`MISSING` -- used when loading input
        tables so that file-borne nulls carry the *missing* (``±``) kind."""
        coldata = tuple(
            tuple(MISSING if is_null(cell) else cell for cell in array)
            for array in self._coldata
        )
        return Table._from_columns_unchecked(
            self._columns, coldata, self._num_rows, self._name
        )

    def null_count(self) -> int:
        """Total number of null cells of either kind."""
        return sum(
            1 for array in self._coldata for cell in array if is_null(cell)
        )

    def completeness(self) -> float:
        """Fraction of non-null cells (1.0 for an empty table)."""
        total = self._num_rows * len(self._columns)
        if total == 0:
            return 1.0
        return 1.0 - self.null_count() / total

    def to_dict(self) -> dict[str, list[Cell]]:
        """Column-major view: ``{column name: list of values}`` (fresh lists,
        safe to mutate)."""
        return {
            column: list(self._coldata[i]) for i, column in enumerate(self._columns)
        }

    # ------------------------------------------------------------------
    # Comparison and display
    # ------------------------------------------------------------------
    def equals(self, other: "Table", ignore_row_order: bool = False) -> bool:
        """Structural equality on columns + cells (names ignored).

        Null kind matters: a table whose null is ``±`` is *not* equal to one
        whose null is ``⊥`` in the same cell, mirroring the paper's figures.
        """
        if self._columns != other._columns:
            return False
        if self._num_rows != other._num_rows:
            return False
        if ignore_row_order:
            return sorted(map(_row_sort_key, self.rows)) == sorted(
                map(_row_sort_key, other.rows)
            )
        return self._coldata == other._coldata

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        return self.equals(other)

    def __hash__(self) -> int:  # pragma: no cover - tables are not dict keys
        raise TypeError("Table is not hashable; key by table.name instead")

    def __repr__(self) -> str:
        return f"Table({self._name!r}, {self.num_rows}x{self.num_columns})"

    def to_pretty(self, max_rows: int = 20) -> str:
        """A fixed-width rendering with ``±``/``⊥`` null markers."""
        shown = self.rows[:max_rows]
        cells = [[_render(c) for c in self._columns]]
        cells.extend([_render(v) for v in row] for row in shown)
        widths = [max(len(r[i]) for r in cells) for i in range(self.num_columns)] or [0]
        lines = []
        for rendered in cells:
            lines.append("  ".join(value.ljust(widths[i]) for i, value in enumerate(rendered)))
        if self._num_rows > max_rows:
            lines.append(f"... ({self._num_rows - max_rows} more rows)")
        return "\n".join(lines)


def _render(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def _row_sort_key(row: tuple[Cell, ...]) -> tuple[tuple[str, str], ...]:
    """A total order over heterogeneous rows, for order-insensitive equality."""
    return tuple((type(cell).__name__, _render(cell)) for cell in row)
