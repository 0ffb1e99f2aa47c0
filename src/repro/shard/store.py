"""The sharded lake store: N LakeStore shards under one manifest.

Layout on disk::

    <root>/lake.json        the manifest-of-manifests (roster + routing)
    <root>/shard-000/       a complete, independent LakeStore
    <root>/shard-001/
    ...

``lake.json`` records the shard roster and the routing rule (seed +
count); each shard keeps its own ``manifest.json`` / ``version.json`` /
segments / stats / indexes exactly as an unsharded store would.  Routing
is a stable content hash of the *table name* (sha1 of
``"<seed>:<name>"`` mod N), so a table's home shard never depends on
what else is in the lake, and an ingest or remove of one table touches
exactly one shard -- only that shard's ``lake_version`` moves and only
its persisted indexes invalidate.

The *lake epoch* is the sum of the per-shard ``lake_version`` counters.
Each counter is monotonic under its own commits, shards are disjoint,
and every mutation goes through exactly one shard -- so the sum is
monotonic too and satisfies the same ``current_version()`` polling
contract :class:`repro.service.LakeService` uses for hot reload.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import shutil
from pathlib import Path
from typing import Any, Mapping, Sequence

from ..discovery.base import Discoverer
from ..faults import inject
from ..sketch.minhash import MinHasher, MinHashSignature
from ..store import journal
from ..store.lakestore import (
    FORMAT_VERSION,
    IngestReport,
    LakeStore,
    StoredDataLake,
    StoreError,
    StoreNotFound,
    read_manifest,
)
from ..table.stats import TableStats
from ..table.table import Table

__all__ = [
    "ShardedLakeStore",
    "load_fit_state",
    "open_any_store",
    "recover_any_store",
]

_REBALANCE_STAGE = inject.point("shard.rebalance.stage")
_REBALANCE_BACKUP = inject.point("shard.rebalance.backup")
_REBALANCE_MOVE = inject.point("shard.rebalance.move")
_REBALANCE_COMMIT = inject.point("shard.rebalance.commit")

_FORMAT = "repro-sharded-lake"
_FIT_STATE_FILE = "global_fit.pkl"


def shard_route(name: str, seed: int, num_shards: int) -> int:
    """The routing rule: a stable hash of the table *name* alone.

    sha1 keyed by the routing seed, first 8 hex digits, mod N -- stable
    across processes and Python versions (never ``hash()``, which is
    salted per process), and independent of lake contents so a table
    can never migrate shards as its neighbors change.
    """
    digest = hashlib.sha1(f"{seed}:{name}".encode("utf-8")).hexdigest()
    return int(digest[:8], 16) % num_shards


def load_fit_state(root: str | Path) -> dict[str, Any] | None:
    """:meth:`ShardedLakeStore.load_fit_state` by path (a shard worker
    holds only its own shard, not the sharded store)."""
    file = Path(root) / _FIT_STATE_FILE
    if not file.exists():
        return None
    with file.open("rb") as handle:
        payload = pickle.load(handle)
    return payload if isinstance(payload, dict) else None


def open_any_store(path: str | Path, **open_options: Any):
    """Open *path* as whichever store layout lives there.

    A ``lake.json`` marks a sharded root; a ``manifest.json`` marks a
    plain :class:`LakeStore`.  Everything that accepts a store path
    (``Dialite.open``, the service, the CLI) funnels through here so
    sharded layouts are adopted transparently.
    """
    path = Path(path)
    if (path / "lake.json").exists():
        return ShardedLakeStore.open(path, **open_options)
    return LakeStore.open(path, **open_options)


def recover_any_store(path: str | Path) -> list[dict[str, Any]]:
    """Run crash recovery on whichever store layout lives at *path*,
    without fully opening it (the ``repro store recover`` verb).  Returns
    one summary dict per repair performed (empty = nothing to do).

    Opening a store runs the same recovery implicitly; this entry point
    exists for operators who want to settle a crashed writer's journal --
    and see what it did -- before pointing a service at the directory.
    """
    path = Path(path)
    repairs: list[dict[str, Any]] = []
    if (path / "lake.json").exists() or (
        journal.read_journal(path) or {}
    ).get("op") == "rebalance":
        root = ShardedLakeStore._recover(path)
        if root:
            repairs.append(root)
        manifest_path = path / "lake.json"
        if manifest_path.exists():
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
            for name in manifest.get("shards", []):
                fixed = LakeStore.recover(path / name)
                if fixed:
                    repairs.append(dict(fixed, shard=name))
        return repairs
    fixed = LakeStore.recover(path)
    if fixed:
        repairs.append(fixed)
    return repairs


class ShardedLakeStore:
    """N :class:`LakeStore` shards behind the single-store contract.

    Duck-types the surface the pipeline, serving layer and CLI consume
    (``lake_version`` / ``current_version`` / ``reopen`` / ``ingest`` /
    ``remove`` / ``lake()`` / ``open_index()`` / ``info()`` / the routed
    read surface), so callers holding "a store" never ask which layout
    it is.
    """

    def __init__(
        self, path: Path, manifest: dict[str, Any], shards: list[LakeStore]
    ):
        self._path = Path(path)
        self._manifest = manifest
        self._shards = shards

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        path: str | Path,
        num_shards: int = 4,
        routing_seed: int = 0,
        exist_ok: bool = False,
        **shard_options: Any,
    ) -> "ShardedLakeStore":
        """Initialize an empty sharded lake at *path* (or open the existing
        one when ``exist_ok`` and it has *num_shards* shards).

        *shard_options* (``sketch_config``) forward to every shard's
        :meth:`LakeStore.create`.
        """
        path = Path(path)
        if (path / "lake.json").exists():
            if not exist_ok:
                raise StoreError(
                    f"a sharded lake already exists at {path}; open() it instead"
                )
            store = cls.open(path)
            if store.num_shards != num_shards:
                raise StoreError(
                    f"{path} is already sharded into {store.num_shards}; "
                    f"rebalance (`repro store shard rebalance --shards "
                    f"{num_shards}`) to change the layout"
                )
            return store
        if (path / "manifest.json").exists():
            raise StoreError(
                f"{path} already holds an unsharded lake store; "
                f"pick a fresh directory (or rebalance into one)"
            )
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        path.mkdir(parents=True, exist_ok=True)
        shard_names = [f"shard-{i:03d}" for i in range(num_shards)]
        shards = [
            LakeStore.create(path / name, **shard_options) for name in shard_names
        ]
        manifest = {
            "format": _FORMAT,
            "format_version": FORMAT_VERSION,
            "num_shards": num_shards,
            "routing_seed": routing_seed,
            "shards": shard_names,
        }
        store = cls(path, manifest, shards)
        store._write_manifest()
        return store

    @classmethod
    def open(cls, path: str | Path, **shard_options: Any) -> "ShardedLakeStore":
        path = Path(path)
        cls._recover(path)
        manifest_path = path / "lake.json"
        if not manifest_path.exists():
            raise StoreNotFound(f"no sharded lake manifest at {path}")
        manifest = read_manifest(manifest_path, _FORMAT)
        shards = [
            LakeStore.open(path / name, **shard_options)
            for name in manifest["shards"]
        ]
        return cls(path, manifest, shards)

    @classmethod
    def _recover(cls, path: Path) -> dict[str, Any] | None:
        """Settle an interrupted :meth:`rebalance` (runs at the top of
        :meth:`open`; per-shard journals are handled by each shard's own
        :meth:`LakeStore.recover`).

        The ``lake.json`` replace is the commit point.  Journal txn ==
        manifest txn means the new layout committed: finish the cleanup
        (drop the ``.old-<txn>`` shard backups, the staging directory and
        the stale global fit state).  A mismatch means it never
        committed: restore every backed-up shard directory, delete any
        new-layout directories that were already moved in, and drop
        staging -- placement is unique again either way, never a table in
        two live shards.

        As with :meth:`LakeStore.recover`, a journal whose rebalancer is
        still alive (root writer lock held) is left untouched.
        """
        if journal.read_journal(path) is None:
            return None
        lock = journal.acquire_writer_lock(path, blocking=False)
        if lock is None:
            # Live rebalance in progress; nothing has crashed.
            return None
        try:
            return cls._settle(path)
        finally:
            lock.release()

    @classmethod
    def _settle(cls, path: Path) -> dict[str, Any] | None:
        """Settlement body of :meth:`_recover`; caller holds the root
        writer lock, so re-read the journal under it."""
        doc = journal.read_journal(path)
        (path / (journal.JOURNAL_NAME + ".tmp")).unlink(missing_ok=True)
        if doc is None:
            return None
        if doc.get("op") != "rebalance":
            # A foreign journal at a sharded root is stray intent from a
            # never-started operation; nothing was written under it.
            journal.journal_path(path).unlink(missing_ok=True)
            return None
        manifest_path = path / "lake.json"
        manifest: dict[str, Any] = {}
        if manifest_path.exists():
            try:
                manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
            except json.JSONDecodeError:  # pragma: no cover - torn writes
                manifest = {}               # are prevented by tmp+replace
        committed = manifest.get("txn") == doc.get("txn")
        staging = path.parent / doc.get("staging", path.name + ".rebalance")
        backups: dict[str, str] = doc.get("backups", {})
        if committed:
            for backup in backups.values():
                shutil.rmtree(path / backup, ignore_errors=True)
            (path / _FIT_STATE_FILE).unlink(missing_ok=True)
        else:
            old_names = set(doc.get("old_shards", []))
            for name, backup in backups.items():
                backup_dir = path / backup
                if backup_dir.exists():
                    current = path / name
                    if current.exists():
                        shutil.rmtree(current)
                    os.replace(backup_dir, current)
            for name in doc.get("new_shards", []):
                if name not in old_names and (path / name).exists():
                    shutil.rmtree(path / name)
        shutil.rmtree(staging, ignore_errors=True)
        (path / "lake.json.tmp").unlink(missing_ok=True)
        journal.journal_path(path).unlink(missing_ok=True)
        journal.fsync_dir(path)
        return {
            "op": "rebalance",
            "action": "rolled_forward" if committed else "rolled_back",
        }

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def path(self) -> Path:
        return self._path

    @property
    def num_shards(self) -> int:
        return int(self._manifest["num_shards"])

    @property
    def routing_seed(self) -> int:
        return int(self._manifest["routing_seed"])

    @property
    def shards(self) -> list[LakeStore]:
        return list(self._shards)

    @property
    def shard_names(self) -> list[str]:
        return list(self._manifest["shards"])

    @property
    def sketch_config(self):
        return self._shards[0].sketch_config

    def shard_of(self, name: str) -> int:
        """The shard index owning table *name* (routing rule)."""
        return shard_route(name, self.routing_seed, self.num_shards)

    def shard_for(self, name: str) -> LakeStore:
        return self._shards[self.shard_of(name)]

    @property
    def lake_version(self) -> int:
        """The lake epoch: sum of the shard handles' manifest versions."""
        return sum(shard.lake_version for shard in self._shards)

    def current_version(self) -> int:
        """The epoch committed on disk (cheap per-shard version.json polls
        -- the serving layer's hot-reload probe)."""
        return sum(shard.current_version() for shard in self._shards)

    def shard_versions(self) -> list[int]:
        """Per-shard manifest versions, in roster order."""
        return [shard.lake_version for shard in self._shards]

    def reopen(self) -> "ShardedLakeStore":
        """A fresh handle on the current on-disk state of every shard."""
        return type(self).open(self._path)

    @property
    def table_names(self) -> list[str]:
        """Every table name, sorted (shard-order independent)."""
        names: list[str] = []
        for shard in self._shards:
            names.extend(shard.table_names)
        names.sort()
        return names

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and name in self.shard_for(name)

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    def total_rows(self) -> int:
        return sum(shard.total_rows() for shard in self._shards)

    def layout(self) -> dict[str, Any]:
        """:meth:`LakeStore.layout` plus the shard roster's versions."""
        return {
            "num_shards": self.num_shards,
            "shard_versions": self.shard_versions(),
        }

    def __repr__(self) -> str:
        return (
            f"ShardedLakeStore({str(self._path)!r}, {self.num_shards} shards, "
            f"epoch {self.lake_version}, {len(self)} tables)"
        )

    def info(self) -> dict[str, Any]:
        """A JSON-friendly summary (what ``repro index info`` and
        ``repro store shard info`` print)."""
        shard_infos = [shard.info() for shard in self._shards]
        return {
            "path": str(self._path),
            "format_version": self._manifest["format_version"],
            "sharded": True,
            "num_shards": self.num_shards,
            "routing_seed": self.routing_seed,
            "lake_version": self.lake_version,
            "num_tables": len(self),
            "total_rows": sum(i["total_rows"] for i in shard_infos),
            "sketch": self.sketch_config.to_json(),
            "shards": [
                {
                    "name": name,
                    "lake_version": info["lake_version"],
                    "num_tables": info["num_tables"],
                    "total_rows": info["total_rows"],
                    "indexes": info["indexes"],
                }
                for name, info in zip(self.shard_names, shard_infos)
            ],
            "indexes": sorted(
                {d for info in shard_infos for d in info["indexes"]}
            ),
        }

    def artifact_bytes(self) -> dict[str, int]:
        """Bytes on disk per artifact class, summed over the shards; the
        lake-global fit state counts as an index."""
        totals = {kind: 0 for kind in ("segments", "stats", "indexes")}
        for shard in self._shards:
            for kind, size in shard.artifact_bytes().items():
                totals[kind] += size
        fit_state = self._path / _FIT_STATE_FILE
        if fit_state.exists():
            totals["indexes"] += fit_state.stat().st_size
        return totals

    # ------------------------------------------------------------------
    # Mutation (each table's writes land on exactly one shard)
    # ------------------------------------------------------------------
    def ingest(
        self,
        lake: Mapping[str, Table],
        prune: bool = True,
        adopt_stats: bool = True,
    ) -> IngestReport:
        """Route *lake* through the shards; merge the per-shard reports.

        With ``prune`` every shard also drops its tables absent from
        *lake* (routing is stable, so a surviving table is always present
        in its own shard's slice); without it, shards receiving no tables
        are not touched at all -- the single-table service ingest rewrites
        exactly one shard.
        """
        groups: list[dict[str, Table]] = [{} for _ in self._shards]
        for name, table in lake.items():
            groups[self.shard_of(name)][name] = table
        added: list[str] = []
        updated: list[str] = []
        unchanged: list[str] = []
        removed: list[str] = []
        for shard, group in zip(self._shards, groups):
            if not group and not prune:
                continue
            report = shard.ingest(group, prune=prune, adopt_stats=adopt_stats)
            added.extend(report.added)
            updated.extend(report.updated)
            unchanged.extend(report.unchanged)
            removed.extend(report.removed)
        return IngestReport(
            added=tuple(sorted(added)),
            updated=tuple(sorted(updated)),
            removed=tuple(sorted(removed)),
            unchanged=tuple(sorted(unchanged)),
            lake_version=self.lake_version,
        )

    def remove(self, name: str) -> None:
        """Drop one table from its home shard (only that shard's version
        moves and only its artifacts invalidate)."""
        self.shard_for(name).remove(name)

    # ------------------------------------------------------------------
    # Reads (routed)
    # ------------------------------------------------------------------
    def load_table(self, name: str) -> Table:
        return self.shard_for(name).load_table(name)

    def table_stats(self, name: str) -> TableStats:
        return self.shard_for(name).table_stats(name)

    def minhashes(
        self, name: str, columns: Sequence[str], hasher: MinHasher
    ) -> list[MinHashSignature]:
        return self.shard_for(name).minhashes(name, columns, hasher)

    def token_sets(self, name: str) -> dict[str, frozenset[str]]:
        return self.shard_for(name).token_sets(name)

    def lake(self) -> StoredDataLake:
        """The combined contents as a lazy, read-only :class:`DataLake`
        (iterated sorted by name: independent of shard count and order)."""
        return StoredDataLake(self)

    def open_index(
        self,
        discoverers: Sequence[Discoverer] | None = None,
        previous: Any = None,
    ):
        """This lake's ready-to-search scatter-gather index: every shard
        runs :meth:`LakeStore.open_index` where its index lives; *previous*
        (a still-serving one) donates each shard whose version did not move."""
        from .index import ShardedLakeIndex

        return ShardedLakeIndex.from_store(self, discoverers, previous=previous)

    # ------------------------------------------------------------------
    # Global fit state (lake-wide discoverer products, shared by shards)
    # ------------------------------------------------------------------
    def save_fit_state(self, products: Mapping[str, Any]) -> None:
        """Persist lake products by discoverer name (SANTOS's synthesized
        KB, TUS's corpus IDF, any plug-in's), pinned to the epoch they
        were computed at.  Every shard's fit adopts these, so each scores
        with lake-wide statistics -- the byte-identity requirement (see
        :mod:`repro.shard.index`)."""
        payload = {"epoch": self.lake_version, "products": dict(products)}
        journal.write_bytes_atomic(
            self._path / _FIT_STATE_FILE,
            pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL),
        )

    def has_fit_state(self) -> bool:
        return (self._path / _FIT_STATE_FILE).exists()

    def load_fit_state(self) -> dict[str, Any] | None:
        """The persisted global fit products, or None.  The payload's
        ``epoch`` records when it was computed; a partial refit after a
        single-shard ingest deliberately reuses the pinned state (all
        shards stay mutually consistent) -- rebuild or rebalance to
        refresh it (the drift caveat in README's "Sharded lakes")."""
        return load_fit_state(self._path)

    # ------------------------------------------------------------------
    # Rebalance (re-route everything under a new shard count/seed)
    # ------------------------------------------------------------------
    def rebalance(
        self, num_shards: int, routing_seed: int | None = None
    ) -> "ShardedLakeStore":
        """Rewrite the lake under a new shard count (and optionally a new
        routing seed), returning a fresh handle on the result.

        Builds the new layout in a sibling staging directory, then swaps
        it in under the root intent journal: old shard directories are
        *renamed aside* (``<name>.old-<txn>``), the staged ones moved in,
        and the ``lake.json`` replace commits the swap -- a crash at any
        point recovers to exactly the old or the new placement (never a
        table visible in two live shards; see :meth:`_recover`).  Do not
        rebalance under live writers or concurrent opens, and expect to
        rebuild discoverer indexes afterwards -- every shard's version
        restarts, so all persisted indexes and the global fit state are
        invalidated (the fit-state file is dropped at commit).
        """
        if routing_seed is None:
            routing_seed = self.routing_seed
        staging = self._path.parent / (self._path.name + ".rebalance")
        if staging.exists():
            shutil.rmtree(staging)
        old_names = self.shard_names
        new_names = [f"shard-{i:03d}" for i in range(num_shards)]
        txn = journal.txn_id(
            "rebalance", old_names, new_names, routing_seed, self.shard_versions()
        )
        backups = {name: f"{name}.old-{txn[:8]}" for name in old_names}
        # Root writer lock for the whole swap: a concurrent open()'s
        # recovery must see this journal as live, not crashed.
        lock = journal.acquire_writer_lock(self._path)
        try:
            journal.write_journal(
                self._path,
                {
                    "op": "rebalance",
                    "txn": txn,
                    "staging": staging.name,
                    "old_shards": old_names,
                    "new_shards": new_names,
                    "backups": backups,
                },
            )
            fresh = type(self).create(
                staging, num_shards=num_shards, routing_seed=routing_seed
            )
            for name in self.table_names:
                fresh.ingest({name: self.load_table(name)}, prune=False)
            _REBALANCE_STAGE.fire()
            # Swap: rename old shard dirs aside (revertible), move staged in.
            for name, backup in backups.items():
                os.replace(self._path / name, self._path / backup)
                _REBALANCE_BACKUP.fire()
            for name in new_names:
                os.replace(staging / name, self._path / name)
                _REBALANCE_MOVE.fire()
            manifest = dict(fresh._manifest)
            manifest["txn"] = txn
            self._manifest = manifest
            self._write_manifest()
            _REBALANCE_COMMIT.fire()
            # Committed: the cleanup below is exactly what roll-forward
            # recovery would finish after a crash from here on.
            (self._path / _FIT_STATE_FILE).unlink(missing_ok=True)
            for backup in backups.values():
                shutil.rmtree(self._path / backup, ignore_errors=True)
            shutil.rmtree(staging, ignore_errors=True)
            journal.clear_journal(self._path)
        finally:
            if lock is not None:
                lock.release()
        return self.reopen()

    # ------------------------------------------------------------------
    def _write_manifest(self) -> None:
        file = self._path / "lake.json"
        temp = file.with_name(file.name + ".tmp")
        temp.write_text(
            json.dumps(self._manifest, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        journal.fsync_file(temp)
        temp.replace(file)
        journal.fsync_dir(self._path)
