"""The persistent lake store: versioned segments + stats snapshots.

Layout of a store directory::

    manifest.json            versioned catalog: per-table content hashes,
                             segment/stats file names, sketch
                             configuration, persisted-index roster
    segments/<t>.seg.bin     one table's cell data, binary columnar (v2):
                             fixed-width dictionary codes + per-table
                             value dictionary + null bitmaps -- the one
                             format written, always read whole
    stats/<t>.stats.json     the table's ColumnStats snapshot payloads
                             (the MinHash inside as base64 uint32
                             minima).  No normalized text domain: it is
                             derived from ``distinct``.  A hydrated
                             column keeps the MinHash as these bytes
                             until first use; a damaged snapshot raises
                             :class:`StatsCorrupted`.
                             The only copy of each column's MinHash and
                             token set: sketch ensembles stack, and the
                             token postings build, from these fields
                             (:meth:`LakeStore.minhashes`,
                             :meth:`LakeStore.token_sets`)
    indexes/<d>.pkl          one fitted discoverer index per file

A store is read in exactly the format this code writes:
``format_version`` 3 with ``.seg.bin`` segments.  :meth:`LakeStore.open`
refuses any other version (or none), and a store whose entries name
older segment files, with :class:`StoreFormatUnsupported`; such a store
is rebuilt from its source CSVs with ``repro index build``.

The design goals, in order:

* **Incremental ingest.**  Every table entry carries a content hash;
  :meth:`LakeStore.ingest` rewrites only the segments and stats of tables
  whose hash changed (or that are new), and prunes removed ones.  Adding,
  replacing or deleting one table of a 10k-table lake costs one table's
  worth of I/O plus a manifest write -- never a lake rewrite.
* **Warm starts.**  :meth:`LakeStore.lake` returns a
  :class:`StoredDataLake`: a lazy mapping whose tables materialize from
  segments on first access, each adopting a hydrated
  :class:`~repro.table.stats.TableStats` snapshot -- so a warm process
  serves discovery from persisted sketches with **zero** raw-cell scans
  (``LakeStats.scan_counts()`` stays all-zero, the tested guarantee).
* **Sketch compatibility.**  MinHash signatures only compare under one
  ``(num_perm, seed)``, so the manifest records the
  :class:`~repro.store.snapshot.SketchConfig` and :meth:`LakeStore.open`
  raises :class:`SketchConfigMismatch` rather than hydrating
  incomparable sketches.

Versioning: ``lake_version`` increments on every content-changing ingest;
persisted discoverer indexes remember the version they were fitted
against and are dropped (never silently served stale) when it moves on.

Readers and writers may share a store directory across processes: every
file the store writes -- manifest included -- is committed with an atomic
``tmp`` + ``replace``, so a reader never observes a torn manifest, and a
small ``version.json`` sibling (written on every manifest commit) lets
:meth:`LakeStore.current_version` poll the on-disk version cheaply without
re-parsing the full manifest -- the watch hook the serving layer
(:mod:`repro.service`) uses to detect foreign ingests and hot-reload.

Multi-file mutations (ingest, remove) are additionally
**crash-consistent as a unit**: the store records its intent in
``journal.json`` before the first write, fsyncs every data file (and its
directory) before the manifest replace, stamps the manifest with the
journal's deterministic ``txn`` id, and clears the journal only after the
stale files are gone.  :meth:`LakeStore.open` runs :meth:`recover` first,
which rolls an interrupted operation forward (journal txn == manifest
txn: finish deleting stale files) or back (delete the pending files the
crashed run had written) -- so a crash at *any* write point yields
exactly the old or the new ``lake_version``, with no orphan files.  See
:mod:`repro.store.journal` for the protocol.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import re
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from ..datalake.catalog import DataLake
from ..datalake.stats import LakeStats
from ..discovery.base import Discoverer
from ..faults import inject
from ..obs import metrics, trace
from ..sketch.minhash import MinHasher, MinHashSignature
from ..table.stats import TableStats
from ..table.table import Table
from ..table.values import Cell
from . import journal
from .codec import table_content_hash
from .journal import StoreError
from .lru import LRUCache
from .segment import read_columns_v2, write_segment_v2
from .snapshot import (
    SketchConfig,
    column_stats_payload,
    hydrate_table_stats,
    snapshot_field,
)

__all__ = [
    "LakeStore",
    "StoredDataLake",
    "StoredLakeStats",
    "IngestReport",
    "StoreError",
    "StoreNotFound",
    "StoreFormatUnsupported",
    "SketchConfigMismatch",
    "StatsCorrupted",
    "FORMAT_VERSION",
    "read_manifest",
]

_WRITE_SEGMENT = inject.point("store.write_segment")
_WRITE_STATS = inject.point("store.write_stats")
_WRITE_INDEX = inject.point("store.write_index")
_WRITE_MANIFEST = inject.point("store.write_manifest")
_WRITE_VERSION = inject.point("store.write_version")
_UNLINK_STALE = inject.point("store.unlink_stale")

_FORMAT = "repro-lake-store"

#: The one ``format_version`` this code writes and reads, in a plain
#: store's ``manifest.json`` and a sharded root's ``lake.json`` alike.
FORMAT_VERSION = 3

_REBUILD_HINT = (
    "rebuild it from the source CSVs into a fresh directory with "
    "`repro index build --lake <csv dir> --store <new dir>`"
)


def _read_segment(root: Path, entry: Mapping[str, Any]) -> list[tuple[Cell, ...]]:
    """The column arrays of one manifest *entry*'s segment under *root*."""
    metrics.counter("store.decode").inc()
    return read_columns_v2(root / entry["segment"], len(entry["columns"]))


def _column_loaders(
    root: Path, entry: Mapping[str, Any]
) -> list[Callable[[], tuple[Cell, ...]]]:
    """One lazy array loader per column of a hydrated snapshot.  They
    close over the manifest entry, which names a content-addressed segment
    file, never over the store that hydrated them: a snapshot outlives its
    handle (:meth:`LakeStore.reopen` carries it into the next one) and a
    retired handle dies by refcount.  The first call reads the segment
    once for all of them."""
    arrays: list[tuple[Cell, ...]] = []

    def load(position: int) -> tuple[Cell, ...]:
        if not arrays:
            arrays.extend(_read_segment(root, entry))
        return arrays[position]

    return [partial(load, position) for position in range(len(entry["columns"]))]


class StoreNotFound(StoreError):
    """The given path holds no store manifest."""


class StoreFormatUnsupported(StoreError):
    """The store on disk is of a format generation this code does not
    read: a ``format_version`` other than :data:`FORMAT_VERSION` (or
    none), or segment files of an older writer."""


def read_manifest(manifest_path: Path, fmt: str) -> dict[str, Any]:
    """The manifest at *manifest_path*, checked to be a *fmt* manifest
    of :data:`FORMAT_VERSION`: the one check :meth:`LakeStore.open` and
    the sharded store's ``open`` share.  Undecodable JSON or a non-object
    raises :class:`StoreError`, any other version
    :class:`StoreFormatUnsupported`; both name the file."""
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except ValueError as error:  # JSON and UTF-8 errors included
        raise StoreError(f"{manifest_path} is not valid JSON: {error}") from None
    if not isinstance(manifest, dict):
        raise StoreError(f"{manifest_path} does not hold a JSON object")
    if manifest.get("format") != fmt:
        raise StoreError(f"{manifest_path} is not a {fmt} manifest")
    found = manifest.get("format_version")
    if type(found) is not int or found != FORMAT_VERSION:
        held = "no format_version" if found is None else f"format_version {found!r}"
        raise StoreFormatUnsupported(
            f"{manifest_path} holds {held}, but this code reads only "
            f"format_version {FORMAT_VERSION}; {_REBUILD_HINT}"
        )
    return manifest


class SketchConfigMismatch(StoreError):
    """The snapshot's sketches were built under different parameters."""


class StatsCorrupted(StoreError):
    """A table's stats snapshot is damaged: not JSON, a field missing or
    of the wrong type, counts that contradict each other or the manifest,
    or a sketch that does not decode under the store's sketch config."""


@dataclass(frozen=True)
class IngestReport:
    """What one :meth:`LakeStore.ingest` call actually did."""

    added: tuple[str, ...] = ()
    updated: tuple[str, ...] = ()
    removed: tuple[str, ...] = ()
    unchanged: tuple[str, ...] = ()
    lake_version: int = 0

    @property
    def changed(self) -> bool:
        return bool(self.added or self.updated or self.removed)

    def summary(self) -> str:
        return (
            f"v{self.lake_version}: +{len(self.added)} ~{len(self.updated)} "
            f"-{len(self.removed)} ={len(self.unchanged)}"
        )


class LakeStore:
    """A directory-backed, versioned snapshot of a data lake."""

    def __init__(self, path: Path, manifest: dict[str, Any]):
        self._path = Path(path)
        self._manifest = manifest
        try:
            self._sketch = SketchConfig.from_json(manifest.get("sketch"))
        except ValueError as error:
            raise StoreError(f"{self._path / 'manifest.json'}: {error}") from None
        # Hydrated per-table stats, shared between :meth:`table_stats` and
        # the tables :meth:`load_table` materializes -- one object per
        # table name, so the lake-wide scan ledger is coherent.  Unbounded;
        # its lock is what lets :meth:`reopen` iterate it while service
        # threads hydrate into it.
        self._stats_cache = LRUCache()
        # Held only for the span of a journaled mutation (see _begin).
        self._writer_lock: journal.WriterLock | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        path: str | Path,
        sketch_config: SketchConfig | None = None,
        exist_ok: bool = False,
    ) -> "LakeStore":
        """Initialize an empty store at *path* (or open the existing one
        when ``exist_ok`` and the sketch configuration is compatible)."""
        path = Path(path)
        if (path / "manifest.json").exists():
            if not exist_ok:
                raise StoreError(
                    f"a lake store already exists at {path}; open() it or ingest into it"
                )
            return cls.open(path, sketch_config=sketch_config)
        path.mkdir(parents=True, exist_ok=True)
        manifest = {
            "format": _FORMAT,
            "format_version": FORMAT_VERSION,
            "lake_version": 0,
            "sketch": (sketch_config or SketchConfig()).to_json(),
            "tables": {},
            "indexes": None,
        }
        store = cls(path, manifest)
        store._write_manifest()
        return store

    @classmethod
    def open(
        cls,
        path: str | Path,
        sketch_config: SketchConfig | None = None,
        check_sketch: bool = True,
    ) -> "LakeStore":
        """Open an existing store; validates format and sketch parameters.

        *sketch_config* is what this process expects (library defaults when
        omitted).  A snapshot built under a different MinHash seed or
        permutation count raises :class:`SketchConfigMismatch` --
        hydrated sketches would silently be incomparable with freshly
        computed ones otherwise.  Pass
        ``check_sketch=False`` to adopt whatever the snapshot recorded.
        """
        path = Path(path)
        cls.recover(path)
        manifest_path = path / "manifest.json"
        if not manifest_path.exists():
            raise StoreNotFound(f"no lake store manifest at {path}")
        manifest = read_manifest(manifest_path, _FORMAT)
        for entry in manifest["tables"].values():
            if not entry["segment"].endswith(".seg.bin"):
                raise StoreFormatUnsupported(
                    f"store at {path} holds segment {entry['segment']} of an "
                    f"older format; this code reads only .seg.bin segments; "
                    f"{_REBUILD_HINT}"
                )
        store = cls(path, manifest)
        if check_sketch:
            expected = sketch_config or SketchConfig()
            if store.sketch_config != expected:
                raise SketchConfigMismatch(
                    f"lake store at {path} was built with sketch config "
                    f"{store.sketch_config}, but this process expects {expected}; "
                    f"sketches from different seeds are not comparable -- rebuild "
                    f"the store (index build) or open with the matching SketchConfig"
                )
        return store

    @classmethod
    def recover(cls, path: str | Path) -> dict[str, Any] | None:
        """Settle an interrupted multi-file operation (crash recovery).

        Runs at the top of :meth:`open`.  No journal means the last
        operation finished cleanly -- return ``None`` without touching
        anything.  Otherwise the manifest decides which side of the
        commit point the crash fell on:

        * journal ``txn`` == manifest ``txn``: the operation *committed*;
          roll forward by finishing the post-commit cleanup (delete the
          journal's ``stale`` files, refresh the version beacon);
        * mismatch: the operation never committed; roll back by deleting
          the ``pending`` files the crashed run managed to write -- the
          manifest still references only the old, intact files.

        Either way stray ``*.tmp`` files are garbage-collected and the
        journal is cleared, leaving the directory byte-for-byte equal to
        the pre- or post-operation state.

        A journal whose writer is still *alive* (advisory writer lock
        held -- readers may open while a writer mutates) is left alone:
        the committed manifest never references pending files, so the
        open proceeding without settlement still sees a consistent
        store.
        """
        path = Path(path)
        if journal.read_journal(path) is None:
            return None
        lock = journal.acquire_writer_lock(path, blocking=False)
        if lock is None:
            # Live writer mid-mutation; nothing has crashed.
            return None
        try:
            return cls._settle(path)
        finally:
            lock.release()

    @classmethod
    def _settle(cls, path: Path) -> dict[str, Any] | None:
        """The settlement body of :meth:`recover`; caller holds the
        writer lock (so the journal can no longer change under us --
        re-read it, the writer may have finished between the lock-free
        peek and the lock grant)."""
        doc = journal.read_journal(path)
        (path / (journal.JOURNAL_NAME + ".tmp")).unlink(missing_ok=True)
        if doc is None:
            return None
        manifest_path = path / "manifest.json"
        if not manifest_path.exists():
            # Crashed before the store's very first manifest write; there
            # is no store to repair, only intent to discard.
            journal.journal_path(path).unlink(missing_ok=True)
            return {"op": doc.get("op"), "action": "discarded", "removed": []}
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        committed = manifest.get("txn") == doc.get("txn")
        removed: list[str] = []
        for rel in doc.get("stale" if committed else "pending", []):
            file = path / rel
            if file.exists():
                file.unlink()
                removed.append(rel)
        for sub in ("", "segments", "stats", "indexes"):
            directory = path / sub if sub else path
            if directory.is_dir():
                for stray in directory.glob("*.tmp"):
                    stray.unlink(missing_ok=True)
        # Re-sync the cheap version beacon: a crash between the manifest
        # replace and the beacon write leaves pollers behind otherwise.
        version_path = path / "version.json"
        try:
            beacon = json.loads(version_path.read_text(encoding="utf-8"))
            beacon_version = int(beacon["lake_version"])
        except (FileNotFoundError, json.JSONDecodeError, KeyError, ValueError):
            beacon_version = None
        if beacon_version != manifest.get("lake_version"):
            journal.write_json_atomic(
                version_path, {"lake_version": manifest["lake_version"]}
            )
        journal.journal_path(path).unlink(missing_ok=True)
        journal.fsync_dir(path)
        metrics.counter("store.recoveries").inc()
        return {
            "op": doc.get("op"),
            "action": "rolled_forward" if committed else "rolled_back",
            "removed": removed,
        }

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def path(self) -> Path:
        return self._path

    @property
    def sketch_config(self) -> SketchConfig:
        return self._sketch

    @property
    def lake_version(self) -> int:
        return self._manifest["lake_version"]

    def current_version(self) -> int:
        """The lake version currently committed **on disk** (cheap poll).

        Unlike :attr:`lake_version` (this handle's in-memory manifest),
        this re-reads the tiny ``version.json`` sibling the store writes on
        every manifest commit -- no manifest re-parse, no re-hydration --
        so a serving process can poll it per request to detect a foreign
        ingest.  Falls back to parsing the manifest for stores written
        before the sibling existed.  Atomic-replace commits guarantee a
        reader sees either the old or the new file, never a torn one.
        """
        try:
            payload = json.loads(
                (self._path / "version.json").read_text(encoding="utf-8")
            )
            return int(payload["lake_version"])
        except (FileNotFoundError, json.JSONDecodeError, KeyError, ValueError):
            pass
        manifest_path = self._path / "manifest.json"
        if not manifest_path.exists():
            raise StoreNotFound(f"no lake store manifest at {self._path}")
        return int(
            json.loads(manifest_path.read_text(encoding="utf-8"))["lake_version"]
        )

    def reopen(self) -> "LakeStore":
        """A fresh handle on this store's current on-disk state (the
        hot-reload path: the old handle keeps serving its snapshot; the new
        one sees the new manifest), preserving the sketch expectation of
        this handle.

        The new handle hydrates only what moved: it is handed every
        snapshot this one has cached whose manifest entry is equal in the
        new manifest.  File names are content-addressed, so an equal entry
        names the same stats bytes and the segment the snapshot's loaders
        read; a replaced or removed table carries nothing."""
        fresh = type(self).open(self._path, sketch_config=self._sketch)
        old, new = self._manifest["tables"], fresh._manifest["tables"]
        for name in self._stats_cache:
            stats = self._stats_cache.get(name)
            if stats is not None and old.get(name) == new.get(name):
                fresh._stats_cache.put(name, stats)
        return fresh

    def refresh(self) -> None:
        """Adopt the on-disk manifest if it still describes this handle's
        lake version: a shard worker may have persisted indexes for it,
        and a handle that does not know them orphans their files."""
        manifest = json.loads(
            (self._path / "manifest.json").read_text(encoding="utf-8")
        )
        if manifest["lake_version"] == self.lake_version:
            self._manifest = manifest

    @property
    def table_names(self) -> list[str]:
        return list(self._manifest["tables"])

    def __contains__(self, name: object) -> bool:
        return name in self._manifest["tables"]

    def __len__(self) -> int:
        return len(self._manifest["tables"])

    def total_rows(self) -> int:
        """Row count of the whole lake, from the manifest (no cell reads)."""
        return sum(e["num_rows"] for e in self._manifest["tables"].values())

    def layout(self) -> dict[str, Any]:
        """The on-disk layout a serving generation reports (``stats`` op):
        nothing beyond the manifest for a plain store."""
        return {}

    def __repr__(self) -> str:
        return f"LakeStore({str(self._path)!r}, v{self.lake_version}, {len(self)} tables)"

    def info(self) -> dict[str, Any]:
        """A JSON-friendly summary (what ``repro index info`` prints)."""
        tables = {
            name: {
                "rows": entry["num_rows"],
                "columns": len(entry["columns"]),
                "content_hash": entry["content_hash"][:12],
            }
            for name, entry in self._manifest["tables"].items()
        }
        indexes = self._manifest.get("indexes") or {}
        discoverers = indexes.get("discoverers") or {}
        return {
            "path": str(self._path),
            "format_version": self._manifest["format_version"],
            "lake_version": self.lake_version,
            "sketch": self._sketch.to_json(),
            "num_tables": len(tables),
            "total_rows": self.total_rows(),
            "tables": tables,
            "indexes": sorted(discoverers),
            "indexes_lake_version": indexes.get("lake_version"),
            "candidate_specs": {
                name: entry.get("spec")
                for name, entry in discoverers.items()
                if entry.get("spec")
            },
        }

    def artifact_bytes(self) -> dict[str, int]:
        """Bytes on disk per artifact class -- the files under
        ``segments/``, ``stats/`` and ``indexes/``."""
        return {
            kind: sum(
                file.stat().st_size
                for file in (self._path / kind).glob("*")
                if file.is_file()
            )
            for kind in ("segments", "stats", "indexes")
        }

    # ------------------------------------------------------------------
    # Ingest (incremental)
    # ------------------------------------------------------------------
    def ingest(
        self,
        lake: Mapping[str, Table],
        prune: bool = True,
        adopt_stats: bool = True,
    ) -> IngestReport:
        """Bring the store up to date with *lake*, rewriting only deltas.

        Per table: content hash unchanged -> skip (and, with
        ``adopt_stats``, warm the in-memory table by adopting the stored
        stats snapshot, so a follow-up index build re-scans nothing);
        new/changed -> write that table's segment + stats snapshot.  With
        ``prune``, tables absent from *lake* are dropped.  Any change bumps
        ``lake_version`` and invalidates persisted discoverer indexes.
        """
        tables = self._manifest["tables"]
        added: list[str] = []
        updated: list[str] = []
        unchanged: list[str] = []
        removed: list[str] = []
        writes: list[tuple[str, Table, str]] = []

        for name, table in lake.items():
            digest = table_content_hash(table)
            entry = tables.get(name)
            if entry is not None and entry["content_hash"] == digest:
                unchanged.append(name)
                if adopt_stats:
                    table.adopt_stats(self.table_stats(name))
                continue
            writes.append((name, table, digest))
            (updated if entry is not None else added).append(name)

        if prune:
            removed = [n for n in tables if n not in lake]

        if not writes and not removed:
            self._write_manifest()
            return IngestReport(
                unchanged=tuple(unchanged), lake_version=self.lake_version
            )

        # Plan the whole delta up front so intent can be journaled before
        # the first write.  ``pending`` is every file this call will
        # create; ``stale`` every file that becomes garbage once the new
        # manifest commits.  File stems are content-addressed (the stem
        # embeds the content hash), so an update writes *new* segment/
        # stats files and the manifest replace is the single atomic commit
        # point: a crash at any moment leaves the old manifest describing
        # the old, intact files, and recovery rolls the journal forward or
        # back.  Stale files are unlinked only after the commit.
        stale: list[str] = []
        pending: list[str] = []
        for name, _table, digest in writes:
            entry = tables.get(name)
            if entry is not None:
                stale.extend(entry[key] for key in ("segment", "stats"))
            stem = self._file_stem(name, digest)
            pending.append(self._segment_rel(stem))
            pending.append(f"stats/{stem}.stats.json")
        for name in removed:
            stale.extend(tables[name][key] for key in ("segment", "stats"))
        stale.extend(self._artifact_files())

        txn = self._begin("ingest", pending, stale)
        try:
            for name, table, digest in writes:
                tables[name] = self._write_table(name, table, digest)
                self._stats_cache.pop(name, None)
            for name in removed:
                tables.pop(name)
                self._stats_cache.pop(name, None)
            self._manifest["lake_version"] += 1
            self._invalidate_indexes()
            self._commit(txn, stale)
        finally:
            self._end()
        return IngestReport(
            added=tuple(added),
            updated=tuple(updated),
            removed=tuple(removed),
            unchanged=tuple(unchanged),
            lake_version=self.lake_version,
        )

    def remove(self, name: str) -> None:
        """Drop one table (segment, stats and manifest entry)."""
        entry = self._manifest["tables"].get(name)
        if entry is None:
            raise KeyError(f"no table {name!r} in store {self._path}")
        stale = [entry["segment"], entry["stats"], *self._artifact_files()]
        txn = self._begin("remove", [], stale)
        try:
            self._manifest["tables"].pop(name)
            self._stats_cache.pop(name, None)
            self._manifest["lake_version"] += 1
            self._invalidate_indexes()
            self._commit(txn, stale)
        finally:
            self._end()

    @staticmethod
    def _segment_rel(stem: str) -> str:
        return f"segments/{stem}.seg.bin"

    def _write_table(self, name: str, table: Table, digest: str) -> dict[str, Any]:
        stem = self._file_stem(name, digest)
        segment_rel = self._segment_rel(stem)
        # The segment writer fsyncs the data before its tmp->replace
        # rename; the directory fsync makes the *entry* durable too, so
        # the manifest commit can never reference unsynced bytes.
        write_segment_v2(self._path / segment_rel, table)
        journal.fsync_dir((self._path / segment_rel).parent)
        _WRITE_SEGMENT.fire()
        stats_rel = f"stats/{stem}.stats.json"
        payload = {
            "columns": {
                column: column_stats_payload(table.stats.column(column), self._sketch)
                for column in table.columns
            }
        }
        self._write_json(self._path / stats_rel, payload)
        _WRITE_STATS.fire()
        return {
            "content_hash": digest,
            "segment": segment_rel,
            "stats": stats_rel,
            "columns": list(table.columns),
            "num_rows": table.num_rows,
        }

    def _unlink_all(self, relative_paths: Sequence[str]) -> None:
        for rel in relative_paths:
            file = self._path / rel
            if file.exists():
                file.unlink()
                _UNLINK_STALE.fire()

    # ------------------------------------------------------------------
    # Crash-consistent commit protocol (see repro.store.journal)
    # ------------------------------------------------------------------
    def _artifact_files(self) -> list[str]:
        """The files the persisted discoverer indexes own right now -- the
        part of a content-changing commit's stale set that
        :meth:`_invalidate_indexes` will disown.  Peek only: the manifest
        is not touched."""
        info = self._manifest.get("indexes")
        if not info:
            return []
        return [entry["file"] for entry in (info.get("discoverers") or {}).values()]

    def _begin(self, op: str, pending: Sequence[str], stale: Sequence[str]) -> str:
        """Journal intent before the first data write.  The txn id is
        content-derived (not random) so recovery of a crashed operation
        reproduces the byte-identical committed state a crash-free run
        would have produced.

        The writer lock is taken first and held until :meth:`_end` --
        it is what stops a concurrent reader's ``open()``-time recovery
        from settling this still-running operation (and serializes two
        well-behaved writers instead of letting them corrupt each
        other)."""
        self._writer_lock = journal.acquire_writer_lock(self._path)
        try:
            on_disk = self.current_version()
            if on_disk != self.lake_version:
                # This handle's manifest would erase what moved the store
                # on (a worker that fitted v while an ingest wrote v+1).
                raise StoreError(
                    f"store at {self._path} moved to v{on_disk} while this "
                    f"handle holds v{self.lake_version}; reopen() before {op}"
                )
            txn = journal.txn_id(
                op, self._manifest["lake_version"], sorted(pending), sorted(set(stale))
            )
            journal.write_journal(
                self._path,
                {
                    "op": op,
                    "txn": txn,
                    "base_version": self._manifest["lake_version"],
                    "pending": sorted(pending),
                    "stale": sorted(set(stale)),
                },
            )
        except BaseException:
            # A crash inside the journal write itself must not leave the
            # lock held -- the caller's finally never runs for it.
            self._end()
            raise
        return txn

    def _begin_artifacts(
        self, op: str, files: Iterable[str], owned: Iterable[str]
    ) -> tuple[str, list[str]]:
        """:meth:`_begin` for a save of version-pinned artifacts to the
        fixed names *files*, replacing the *owned* ones the manifest lists
        now; returns ``(txn, stale)``.  A file written over an owned one
        is neither pending nor stale: a crash leaves its old or its new
        bytes, and either serves the unchanged lake version."""
        files, owned = set(files), set(owned)
        stale = sorted(owned - files)
        return self._begin(op, sorted(files - owned), stale), stale

    def _end(self) -> None:
        """Drop the writer lock (idempotent).  Runs in ``finally`` --
        releasing on *failure* is deliberate: a died operation should be
        settleable by the next ``open()``."""
        lock, self._writer_lock = self._writer_lock, None
        if lock is not None:
            lock.release()

    def _commit(self, txn: str, stale: Sequence[str]) -> None:
        """The atomic switch: stamp the manifest with the journal's txn
        and replace it (data files are already durable), then do the
        post-commit cleanup the journal also describes -- so recovery can
        finish either half."""
        self._manifest["txn"] = txn
        self._write_manifest()
        self._unlink_all(sorted(set(stale)))
        journal.clear_journal(self._path)

    # ------------------------------------------------------------------
    # Hydration (the warm-start read path)
    # ------------------------------------------------------------------
    def lake(self) -> "StoredDataLake":
        """The store's content as a lazy, read-only :class:`DataLake`."""
        return StoredDataLake(self)

    def load_table(self, name: str) -> Table:
        """Materialize one table from its segment, with its hydrated stats
        snapshot attached (so its columns never need a raw re-scan)."""
        entry = self._entry(name)
        with trace.span("store.load_table", table=name):
            arrays = _read_segment(self._path, entry)
            table = Table.from_columns(entry["columns"], arrays, name=name)
            return table.adopt_stats(self.table_stats(name))

    def table_stats(self, name: str) -> TableStats:
        """The hydrated stats snapshot of one table (cached per name; the
        same object a materialized table adopts, keeping one scan ledger)."""
        cached = self._stats_cache.get(name)
        if cached is not None:
            metrics.counter("store.stats_cache.hits").inc()
            return cached
        metrics.counter("store.stats_cache.rehydrates").inc()
        with trace.span("store.rehydrate_stats", table=name):
            entry = self._entry(name)
            by_name = self._read_stats(
                name,
                lambda document: hydrate_table_stats(
                    name,
                    entry["columns"],
                    entry["num_rows"],
                    document,
                    self._sketch,
                    _column_loaders(self._path, entry),
                ),
            )
            cached = TableStats.hydrated(name, entry["columns"], by_name)
            self._stats_cache.put(name, cached)
        return cached

    def minhashes(
        self, name: str, columns: Sequence[str], hasher: MinHasher
    ) -> list[MinHashSignature]:
        """The *hasher* signatures of *columns* of one table.

        A table whose stats are hydrated already serves them.  Otherwise,
        under the store's own sketch config, only the ``minhash`` fields
        of its snapshot are read and decoded, and nothing is cached --
        stacking a sketch ensemble hydrates no table.  Another hasher
        hydrates.  A damaged signature raises :class:`StatsCorrupted`."""
        stats = self._stats_cache.get(name)
        config = self._sketch
        if stats is None and (hasher.num_perm, hasher.seed) == (
            config.minhash_num_perm,
            config.minhash_seed,
        ):
            signatures = self._snapshot_field(name, "minhash")
            return [signatures[column] for column in columns]
        if stats is None:
            stats = self.table_stats(name)
        return [stats.column(column).minhash(hasher) for column in columns]

    def token_sets(self, name: str) -> dict[str, frozenset[str]]:
        """Every column's token set of one table, in column order: what
        the candidate engine's token postings invert.

        A table whose stats are hydrated already serves them.  Otherwise
        only the ``tokens`` fields of its snapshot are read, and nothing
        is cached -- building the token channel hydrates no table.  A
        damaged field raises :class:`StatsCorrupted`."""
        stats = self._stats_cache.get(name)
        if stats is not None:
            return {column: stats.column(column).tokens for column in stats.columns}
        return self._snapshot_field(name, "tokens")

    def _snapshot_field(self, name: str, field: str) -> dict[str, Any]:
        """One field of every column of one table's snapshot, read alone
        (:func:`~repro.store.snapshot.snapshot_field`)."""
        columns = self._entry(name)["columns"]
        return self._read_stats(
            name, lambda document: snapshot_field(field, columns, document, self._sketch)
        )

    def _read_stats(self, name: str, decode: Callable[[str], Any]) -> Any:
        """*decode* of one table's stats document; any damage raises
        :class:`StatsCorrupted` naming the file."""
        path = self._path / self._entry(name)["stats"]
        try:
            return decode(path.read_text(encoding="utf-8"))
        except ValueError as error:  # JSON and UTF-8 errors included
            raise StatsCorrupted(f"stats snapshot {path} is damaged: {error}") from None

    def _entry(self, name: str) -> dict[str, Any]:
        try:
            return self._manifest["tables"][name]
        except KeyError:
            raise KeyError(
                f"no table {name!r} in store {self._path}; "
                f"{len(self._manifest['tables'])} tables available"
            ) from None

    # ------------------------------------------------------------------
    # Persisted discoverer indexes
    # ------------------------------------------------------------------
    def open_index(
        self,
        discoverers: Sequence[Discoverer] | None = None,
        previous: Any = None,
        persisting: Callable[[], Any] = nullcontext,
    ):
        """This store's ready-to-search :class:`LakeIndex`, by the one
        lifecycle every caller runs (``Dialite.fit``, a service reload,
        ``repro index build``, each shard of a sharded lake): hydrate what
        is persisted at this version, fit the rest of *discoverers*
        (``None``: the persisted roster), persist what had to be fitted
        (``index.fitted``), serve what was fitted.  An open that fits
        nothing writes nothing.  The saves take the writer lock and raise
        :class:`StoreError` if the store moved on meanwhile.  *previous*
        matters to a sharded store only (a moved version leaves nothing
        to keep here); *persisting* brackets the persist step with a
        shard worker's span and fault point.
        """
        from ..datalake.indexer import LakeIndex

        index = LakeIndex.from_store(self, discoverers)
        if index.fitted:
            with persisting():
                index.save_to_store(self)
        return index

    def save_indexes(self, discoverers: Sequence[Discoverer]) -> None:
        """Persist fitted discoverer indexes, pinned to the current
        ``lake_version`` (a later ingest that changes content drops them).
        The manifest records what was fitted, never how long it took, so
        two builds of one lake write the same bytes."""
        entries: dict[str, Any] = {}
        pickles: dict[str, bytes] = {}
        for discoverer in discoverers:
            if not discoverer.is_fitted:
                raise StoreError(
                    f"discoverer {discoverer.name!r} is not fitted; build before saving"
                )
            rel = f"indexes/{self._file_stem(discoverer.name)}.pkl"
            pickles[rel] = pickle.dumps(discoverer, protocol=pickle.HIGHEST_PROTOCOL)
            spec = discoverer.candidate_spec()
            entries[discoverer.name] = {
                "file": rel,
                "spec": {
                    "channels": list(spec.channels),
                    "budget": spec.budget,
                    "min_candidates": (
                        "k" if spec.min_candidates_is_k else spec.min_candidates
                    ),
                },
            }
        owned = self._invalidate_indexes()
        txn, stale = self._begin_artifacts("save_indexes", pickles, owned)
        try:
            for rel, data in pickles.items():
                self._write_bytes(self._path / rel, data)
                _WRITE_INDEX.fire()
            self._manifest["indexes"] = {
                "lake_version": self.lake_version,
                "discoverers": entries,
            }
            self._commit(txn, stale)
        finally:
            self._end()

    def load_indexes(self) -> dict[str, Discoverer]:
        """The persisted, *current* discoverer indexes (empty dict if none
        were saved or the lake has changed since they were fitted)."""
        info = self._manifest.get("indexes")
        if not info or info.get("lake_version") != self.lake_version:
            return {}
        loaded: dict[str, Discoverer] = {}
        for name, entry in info["discoverers"].items():
            file = self._path / entry["file"]
            if not file.exists():
                # A crash window (or manual tampering) can orphan manifest
                # index entries; treat the set as absent rather than dying.
                return {}
            with file.open("rb") as handle:
                discoverer = pickle.load(handle)
            if not isinstance(discoverer, Discoverer):
                raise StoreError(
                    f"{entry['file']} does not contain a Discoverer "
                    f"(got {type(discoverer).__name__})"
                )
            loaded[name] = discoverer
        return loaded

    def _invalidate_indexes(self) -> list[str]:
        """Mark persisted indexes stale in the manifest; returns their file
        paths for the caller to unlink *after* the manifest commits."""
        info = self._manifest.get("indexes")
        if not info:
            return []
        self._manifest["indexes"] = None
        return [entry["file"] for entry in (info.get("discoverers") or {}).values()]

    def load_engine(self, lake: Mapping[str, Table] | None = None, stats=None):
        """The candidate engine over *lake* (the store's lazy lake view by
        default), its token channel built from the snapshots' ``tokens``
        fields (:meth:`token_sets`): no table is hydrated and no segment
        decoded.  Its sketch ensembles stack on first use from the
        snapshots' signatures (:meth:`minhashes`)."""
        from ..candidates.engine import CandidateEngine

        return CandidateEngine(self.lake() if lake is None else lake, stats).warm(("tokens",))

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _file_stem(name: str, digest: str = "") -> str:
        # Table names are arbitrary strings; files need a safe, collision-
        # free stem: a readable slug plus a name-hash suffix.  Table data
        # files additionally embed the content hash, which content-
        # addresses them: an update writes to a *new* path, so the old
        # manifest's files survive intact until the new manifest commits.
        slug = re.sub(r"[^A-Za-z0-9._-]+", "_", name)[:48].strip("._") or "table"
        suffix = hashlib.sha1(name.encode("utf-8")).hexdigest()[:10]
        return f"{slug}-{suffix}" + (f"-{digest[:10]}" if digest else "")

    def _write_json(self, path: Path, payload: dict[str, Any]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        journal.write_json_atomic(path, payload)

    def _write_bytes(self, path: Path, data: bytes) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        journal.write_bytes_atomic(path, data)

    def _write_manifest(self) -> None:
        self._write_json(self._path / "manifest.json", self._manifest)
        _WRITE_MANIFEST.fire()
        # The cheap version beacon `current_version()` polls.  Written
        # *after* the manifest commit: a poller that races the two writes
        # sees an old version and simply reloads one poll later -- it can
        # never see a version the manifest does not yet describe (and
        # recovery re-syncs it if a crash lands between the two writes).
        self._write_json(
            self._path / "version.json",
            {"lake_version": self._manifest["lake_version"]},
        )
        _WRITE_VERSION.fire()


class StoredDataLake(DataLake):
    """A read-only :class:`DataLake` served from a :class:`LakeStore` (or
    a sharded store: the same read surface, routed to each table's shard).

    Opening the lake reads only the manifest; a table's cells materialize
    from its segment on first ``lake[name]`` access (and are then cached),
    each adopting the store's hydrated stats snapshot.  ``stats`` serves
    hydrated statistics *without* materializing any cell data, which is
    what keeps warm discovery free of raw scans.
    """

    def __init__(self, store: LakeStore):
        super().__init__(())
        self._store = store

    @property
    def store(self) -> LakeStore:
        return self._store

    @property
    def loaded_names(self) -> list[str]:
        """Tables whose cell data has actually been materialized so far."""
        return list(self._tables)

    def add(self, table: Table) -> None:
        raise TypeError(
            "StoredDataLake is read-only; ingest tables into the LakeStore instead"
        )

    def __getitem__(self, name: str) -> Table:
        table = self._tables.get(name)
        if table is None:
            if name not in self._store:
                raise KeyError(
                    f"no table {name!r} in lake; {len(self._store)} tables available"
                )
            table = self._store.load_table(name)
            self._tables[name] = table
        return table

    def __iter__(self) -> Iterator[str]:
        return iter(self._store.table_names)

    def __len__(self) -> int:
        return len(self._store)

    def tables(self) -> list[Table]:
        """All tables, materializing any that were not loaded yet."""
        return [self[name] for name in self._store.table_names]

    def total_rows(self) -> int:
        # Served from the manifest: counting rows must not page in cells.
        return self._store.total_rows()

    @property
    def stats(self) -> "StoredLakeStats":
        return StoredLakeStats(self)

    def __repr__(self) -> str:
        return (
            f"StoredDataLake({len(self)} tables, "
            f"{len(self._tables)} materialized, v{self._store.lake_version})"
        )


class StoredLakeStats(LakeStats):
    """Lake-wide stats over a stored lake, served from hydrated snapshots.

    Unlike the base view, reading statistics here never materializes cell
    data: every method goes through the store's ``table_stats``, which
    returns the same objects materialized tables adopt -- one coherent
    scan ledger either way.  (Hydrated snapshots are already warm, so
    ``warm()`` ensures without scanning.)  ``minhashes`` and
    ``token_sets`` go to the store's :meth:`LakeStore.minhashes` and
    :meth:`LakeStore.token_sets`, which read those snapshot fields without
    hydrating.
    """

    def table(self, name: str) -> TableStats:
        return self._lake.store.table_stats(name)

    def minhashes(
        self, table_name: str, columns: Sequence[str], hasher: MinHasher
    ) -> list[MinHashSignature]:
        return self._lake.store.minhashes(table_name, columns, hasher)

    def token_sets(self, table_name: str) -> dict[str, frozenset[str]]:
        return self._lake.store.token_sets(table_name)
