"""Persistent lake store: versioned columnar segments + stats snapshots.

The discovery pipeline's cold-start cost -- scanning every column, building
every token set, hashing every MinHash sketch -- should be paid once
per *lake version*, not once per process.  This package is that durable
layer:

* :mod:`repro.store.codec` / :mod:`repro.store.segment` -- cell codec and
  per-table columnar segment files mirroring ``Table.column_arrays``;
* :mod:`repro.store.snapshot` -- serialized
  :class:`~repro.table.stats.ColumnStats` payloads (dtype, null counts,
  distinct/token sets, the MinHash) under a pinned
  :class:`SketchConfig` -- the one copy of every column sketch;
* :mod:`repro.store.lakestore` -- the :class:`LakeStore` itself: a
  versioned manifest with per-table content hashes (incremental ingest
  rewrites only changed tables), persisted fitted discoverer indexes, and
  the lazy :class:`StoredDataLake` / :class:`StoredLakeStats` read path
  that powers ``DataLake.open`` and ``LakeIndex.from_store`` warm starts.

Typical use::

    from repro.store import LakeStore

    store = LakeStore.create("lake.store")
    store.ingest(lake)                         # cold: scans each column once
    ...
    store = LakeStore.open("lake.store")       # later process
    warm = store.lake()                        # lazy; no cell data read
    warm.stats.scan_counts()                   # all zero, forever warm
"""

from .codec import BinaryCodecError, table_content_hash
from .lakestore import (
    IngestReport,
    LakeStore,
    SketchConfigMismatch,
    StatsCorrupted,
    StoredDataLake,
    StoredLakeStats,
    StoreError,
    StoreFormatUnsupported,
    StoreNotFound,
)
from .segment import SegmentCorrupted
from .snapshot import SketchConfig

__all__ = [
    "LakeStore",
    "StoredDataLake",
    "StoredLakeStats",
    "IngestReport",
    "SketchConfig",
    "StoreError",
    "StoreNotFound",
    "StoreFormatUnsupported",
    "SketchConfigMismatch",
    "SegmentCorrupted",
    "StatsCorrupted",
    "BinaryCodecError",
    "table_content_hash",
]
