"""Lake profiling: the statistics a discovery deployment keeps per column.

``profile_lake`` walks a lake once and emits a per-column statistics table:
inferred dtype, null share, exact distinct count, numeric fraction and
example values.  The CLI's ``profile`` command prints it; the
synthetic-lake tests use it to sanity-check generated data.

Everything reported here is read from the shared
:class:`~repro.table.stats.ColumnStats` cache: the profiler performs no raw
column scans of its own, so profiling after (or before) index building is
free of duplicate work.
"""

from __future__ import annotations

from typing import Mapping

from ..table.table import Table

__all__ = ["profile_lake", "profile_table"]

_PROFILE_HEADER = [
    "table", "column", "dtype", "rows", "non_null", "distinct",
    "numeric_frac", "examples",
]


def profile_table(table: Table) -> Table:
    """Per-column statistics for one table (served from the stats cache)."""
    rows = []
    for stats in table.stats:
        rows.append(
            (
                table.name,
                stats.name,
                stats.dtype,
                stats.row_count,
                stats.non_null_count,
                len(stats.distinct),
                round(stats.numeric_fraction, 3),
                ", ".join(stats.example_values(3)),
            )
        )
    return Table(_PROFILE_HEADER, rows, name=f"{table.name}_profile")


def profile_lake(lake: Mapping[str, Table]) -> Table:
    """Per-column statistics for every table in *lake*, stacked."""
    rows: list[tuple] = []
    for table in lake.values():
        rows.extend(profile_table(table).rows)
    return Table(_PROFILE_HEADER, rows, name="lake_profile")
