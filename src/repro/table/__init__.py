"""Null-aware in-memory table engine (the pandas substitute).

This package is DIALITE's common substrate: a typed relation with the
paper's two-kind null model (*missing* ``±`` from inputs, *produced* ``⊥``
from integration), CSV I/O, type inference and the classical relational
operators.

Quick tour::

    from repro.table import Table, ops
    t = Table(["City", "Rate"], [("Berlin", 63), ("Boston", 62)], name="T1")
    joined = ops.full_outer_join(t, other)

Architecture: columnar substrate & stats cache
----------------------------------------------
A :class:`Table` stores its data **columnar** -- a tuple of immutable
per-column cell tuples (``table.column_arrays``) -- and materializes the
row-major ``table.rows`` view lazily, on first access.  The operators in
:mod:`repro.table.ops` exploit this: joins precompute per-column key
vectors and assemble output column-by-column as index gathers, projection
and renames share the parents' arrays outright, and outer union
concatenates column runs instead of padding row tuples.

On top of the arrays sits the per-column statistics cache
(:mod:`repro.table.stats`): ``table.stats.column(name)`` memoizes dtype,
null counts, the distinct-value set, the domain token set, the MinHash
sketch and normalized text values, each computed at most
once per (table object, column).  ``Table.column`` /
``Table.column_values`` / ``Table.distinct_values`` serve **cached,
read-only views** from that cache.

The invalidation contract is deliberate and simple: tables are immutable
by convention, so caches are keyed by table identity --
``(table.uid, column)`` when viewed lake-wide through
:class:`repro.datalake.stats.LakeStats` -- and are never invalidated.
``table.uid`` is a process-unique monotonic counter assigned at
construction; it replaces ``id(table)`` as the cache key because CPython
recycles object ids as soon as a table is garbage collected, so an
id-keyed cache could silently serve a dead table's statistics for an
unrelated new table at the same address.  Every operator returns a *new*
table, which starts cold under a fresh uid.  Do not mutate a table's
cells in place; beyond being outside the API contract, it now also yields
stale cached statistics.
"""

from . import ops
from .infer import infer_dtype, parse_cell
from .io import read_csv, read_lake_dir, write_csv
from .schema import ColumnSpec, Schema
from .stats import ColumnStats, TableStats
from .table import Table
from .values import (
    MISSING,
    PRODUCED,
    Cell,
    Null,
    coalesce,
    is_missing,
    is_null,
    is_produced,
    values_equal,
)

__all__ = [
    "Table",
    "TableStats",
    "ColumnStats",
    "Schema",
    "ColumnSpec",
    "Cell",
    "Null",
    "MISSING",
    "PRODUCED",
    "is_null",
    "is_missing",
    "is_produced",
    "values_equal",
    "coalesce",
    "parse_cell",
    "infer_dtype",
    "read_csv",
    "write_csv",
    "read_lake_dir",
    "ops",
]
