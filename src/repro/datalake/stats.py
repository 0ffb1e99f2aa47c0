"""The lake-wide column-statistics cache view.

Per-column statistics are stored on each (immutable) :class:`Table` --
see :mod:`repro.table.stats` for the cache and its invalidation contract.
:class:`LakeStats` is the lake-level window onto those per-table caches: it
is what the :class:`~repro.datalake.catalog.DataLake` and
:class:`~repro.datalake.indexer.LakeIndex` own, what the profiler and every
discoverer share, and what tests interrogate to assert that a whole
discover -> integrate run scanned each column's raw data exactly once.

Cache keys are effectively ``(table.uid, column)`` scoped to the lake --
``uid`` being the process-unique monotonic identity every
:class:`~repro.table.table.Table` receives at construction, never
``id(table)`` (object ids are recycled after garbage collection; uids are
not, so a dead table's stats can never be served for an unrelated
successor).  Because stats live on the table object, replacing a table
(the only legal "mutation" -- tables are immutable by convention)
automatically starts from a cold cache under a fresh uid, and two lakes
sharing table objects share their stats.

Serving mode (:mod:`repro.service`): this view is read concurrently by
every worker thread of a lake service.  Reads of already-computed
products are safe (immutable frozensets/tuples, published by single
attribute stores); a cold column racing two readers computes its scan
twice with equal results -- which a warm service never does, since
hydrated snapshots arrive fully scanned.  The *store-side* cache behind
this view holds one hydrated snapshot per table the process has touched,
unbounded.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Sequence

from ..sketch.minhash import MinHasher, MinHashSignature
from ..table.stats import ColumnStats, TableStats
from ..table.table import Table

__all__ = ["LakeStats", "lake_stats"]


class LakeStats:
    """All column stats of every table in one lake (a live view).

    The view reads through to ``table.stats``; it performs no copies and
    holds no state beyond the lake mapping itself, so any consumer touching
    a table directly still shares the same memoized statistics.
    """

    def __init__(self, lake: Mapping[str, Table]):
        self._lake = lake

    def table(self, name: str) -> TableStats:
        """Stats of one lake table (the one read a stored lake's view
        overrides: everything below goes through it)."""
        return self._lake[name].stats

    def column(self, table_name: str, column: str) -> ColumnStats:
        """Stats of one column of one lake table."""
        return self.table(table_name).column(column)

    def minhashes(
        self, table_name: str, columns: Sequence[str], hasher: MinHasher
    ) -> list[MinHashSignature]:
        """The *hasher* signatures of *columns* of one lake table -- what
        a candidate engine stacks into a sketch ensemble, table by table
        (a stored lake's view reads them without hydrating the table)."""
        stats = self.table(table_name)
        return [stats.column(column).minhash(hasher) for column in columns]

    def token_sets(self, table_name: str) -> dict[str, frozenset[str]]:
        """Every column's token set of one lake table, in column order --
        what a candidate engine's token postings invert (a stored lake's
        view reads them without hydrating the table)."""
        stats = self.table(table_name)
        return {column: stats.column(column).tokens for column in stats.columns}

    def __iter__(self) -> Iterator[tuple[str, TableStats]]:
        for name in self._lake:
            yield name, self.table(name)

    def warm(self) -> "LakeStats":
        """Run every column's base scan now (one pass per column) so that
        index building and profiling start from a fully shared cache."""
        for _, stats in self:
            stats.warm()
        return self

    def scan_counts(self) -> dict[tuple[str, str], int]:
        """``(table name, column) -> raw base-scan passes`` for the lake.

        After any sequence of profile / fit / search / integrate calls over
        an unchanged lake, every count is at most 1 -- that is the shared-
        substrate guarantee this PR introduces, and the scan-counter tests
        pin it.
        """
        counts: dict[tuple[str, str], int] = {}
        for name, stats in self:
            for column, count in stats.scan_counts.items():
                counts[(name, column)] = count
        return counts

    def __repr__(self) -> str:
        return f"LakeStats({len(self._lake)} tables)"


def lake_stats(lake: Mapping[str, Table]) -> LakeStats:
    """The stats view of any table mapping: the lake's own when it has
    one (a stored lake's serves hydrated snapshots and decodes nothing),
    else a read-through view over the tables' memoized stats."""
    own = getattr(lake, "stats", None)
    return own if isinstance(own, LakeStats) else LakeStats(lake)
