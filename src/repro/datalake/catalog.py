"""The data-lake catalog: a named collection of tables.

A :class:`DataLake` is a ``Mapping[str, Table]`` (so every discoverer's
``fit`` accepts it directly) backed either by in-memory tables or by a
directory of CSV files.  It is deliberately small -- the lake is a
*substrate*, not a database: no transactions, no mutation of loaded files.
"""

from __future__ import annotations

from collections.abc import Mapping
from pathlib import Path
from typing import Iterable, Iterator

from ..table.io import read_csv, write_csv
from ..table.table import Table

__all__ = ["DataLake"]


class DataLake(Mapping[str, Table]):
    """An immutable-by-convention mapping of table name -> table."""

    def __init__(self, tables: Iterable[Table] = ()):
        self._tables: dict[str, Table] = {}
        for table in tables:
            self.add(table)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_tables(cls, tables: Iterable[Table]) -> "DataLake":
        return cls(tables)

    @classmethod
    def from_dir(cls, directory: str | Path, pattern: str = "*.csv") -> "DataLake":
        """Load every CSV under *directory* (table name = file stem)."""
        directory = Path(directory)
        if not directory.is_dir():
            raise FileNotFoundError(f"data lake directory not found: {directory}")
        lake = cls()
        for path in sorted(directory.glob(pattern)):
            lake.add(read_csv(path))
        return lake

    @classmethod
    def open(cls, store_path: str | Path, **open_options) -> "DataLake":
        """Open a persistent lake store (:mod:`repro.store`) as a lazy lake.

        The returned lake reads only the store manifest up front: a table's
        cell data is paged in from its columnar segment on first access,
        and every table arrives with its statistics snapshot (distinct
        sets, tokens, sketches) pre-hydrated -- a warm start that performs
        zero raw-cell scans.  Plain and sharded store layouts both open
        (:func:`repro.shard.open_any_store`); keyword options are
        forwarded to the store's ``open`` (e.g. ``sketch_config``).
        """
        from ..shard.store import open_any_store

        return open_any_store(store_path, **open_options).lake()

    def add(self, table: Table) -> None:
        """Register a table; duplicate names are an error (ambiguity in a
        lake catalog silently shadows data)."""
        if table.name in self._tables:
            raise ValueError(f"table name already in lake: {table.name!r}")
        self._tables[table.name] = table

    # ------------------------------------------------------------------
    # Mapping protocol
    # ------------------------------------------------------------------
    def __getitem__(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise KeyError(
                f"no table {name!r} in lake; {len(self._tables)} tables available"
            ) from None

    def __iter__(self) -> Iterator[str]:
        return iter(self._tables)

    def __len__(self) -> int:
        return len(self._tables)

    def __repr__(self) -> str:
        return f"DataLake({len(self._tables)} tables)"

    # ------------------------------------------------------------------
    # Conveniences
    # ------------------------------------------------------------------
    @property
    def stats(self) -> "LakeStats":
        """The lake-wide column-statistics view (see
        :mod:`repro.datalake.stats`): one shared, memoized set of per-column
        stats that the profiler, every discoverer and the aligner consume
        instead of re-scanning raw columns."""
        from .stats import LakeStats

        return LakeStats(self)

    def tables(self) -> list[Table]:
        """All tables, in registration order."""
        return list(self._tables.values())

    def total_rows(self) -> int:
        """Sum of row counts across the lake."""
        return sum(t.num_rows for t in self._tables.values())

    def save_to(self, directory: str | Path) -> None:
        """Write every table as ``<name>.csv`` under *directory*."""
        directory = Path(directory)
        for name, table in self._tables.items():
            write_csv(table, directory / f"{name}.csv")

    def subset(self, names: Iterable[str]) -> list[Table]:
        """The tables named in *names*, in that order (KeyError if absent)."""
        return [self[name] for name in names]
