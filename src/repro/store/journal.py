"""Intent journal + durable-write helpers for crash-consistent stores.

The protocol (used by :class:`~repro.store.lakestore.LakeStore` for
ingest/remove and by
:class:`~repro.shard.store.ShardedLakeStore` for rebalance):

1. before touching any file, the store writes ``journal.json`` at its
   root: the operation name, a deterministic ``txn`` id derived from the
   operation's content (:func:`txn_id`), the ``pending`` files it is
   about to create and the ``stale`` files it will delete after commit;
2. data files are written tmp+replace and fsynced, and their directories
   are fsynced, *before* the manifest rename -- so a manifest can never
   point at unsynced bytes;
3. the manifest replace is the commit point: the manifest carries the
   journal's ``txn``;
4. after commit the store deletes the stale files and clears the journal.

Recovery on ``open()`` compares the journal's ``txn`` against the
manifest's: equal means the crash happened after commit (roll forward:
finish deleting ``stale``), different means before (roll back: delete
``pending``).  Either way the store lands byte-for-byte on exactly the
pre- or post-operation state and the journal is cleared.

``txn`` ids are content-derived (not random) on purpose: recovery of a
crashed operation must reproduce the identical committed bytes a crash-
free run would have produced, which is what the crash-at-every-write-
point property test asserts.

Recovery must never settle a *live* writer's journal -- readers may
``open()`` (and therefore attempt recovery) while a writer is mid-
mutation, and rolling back an operation that is still running would
delete files out from under it.  Writers therefore hold an advisory
exclusive ``flock`` on ``.writer.lock`` for the whole journaled span
(:func:`acquire_writer_lock`), released even when the operation dies
(a dead operation *should* be settled); recovery takes the same lock
non-blocking and simply skips settlement while a writer is alive --
the committed manifest it proceeds to read never references pending
files, so the reader still sees a consistent store.

fsync is on by default and can be disabled for benchmarks with
``REPRO_FSYNC=0`` (atomicity via tmp+replace is kept either way; only
power-loss durability is traded).

:class:`StoreError`, the root of every store failure, lives here too:
this is the one store module the segment reader and the lake store both
build on.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any

try:  # pragma: no cover - fcntl is always present on the POSIX targets
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback: unlocked
    fcntl = None  # type: ignore[assignment]

from ..faults import inject

__all__ = [
    "JOURNAL_NAME",
    "LOCK_NAME",
    "StoreError",
    "WriterLock",
    "acquire_writer_lock",
    "clear_journal",
    "fsync_dir",
    "fsync_enabled",
    "fsync_file",
    "journal_path",
    "read_journal",
    "set_fsync_enabled",
    "txn_id",
    "write_bytes_atomic",
    "write_journal",
    "write_json_atomic",
]

_WRITE_JOURNAL = inject.point("store.write_journal")
_CLEAR_JOURNAL = inject.point("store.clear_journal")


class StoreError(RuntimeError):
    """Any structural problem with a lake store on disk."""


JOURNAL_NAME = "journal.json"
LOCK_NAME = ".writer.lock"

_fsync_on = os.environ.get("REPRO_FSYNC", "1").lower() not in ("0", "false", "no")


def fsync_enabled() -> bool:
    return _fsync_on


def set_fsync_enabled(on: bool) -> None:
    """Benchmark escape hatch (equivalent to ``REPRO_FSYNC=0``)."""
    global _fsync_on
    _fsync_on = bool(on)


def fsync_file(path: Path) -> None:
    if not _fsync_on:
        return
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def fsync_dir(path: Path) -> None:
    """Flush a directory's entry table (the rename itself).  Best-effort:
    some filesystems refuse O_RDONLY fsync on directories."""
    if not _fsync_on:
        return
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


def write_bytes_atomic(path: Path, data: bytes) -> None:
    """tmp + fsync + replace + directory fsync: after this returns the
    new bytes are durable and a crash at any instant shows either the old
    file or the new one, never a torn mix."""
    temp = path.with_name(path.name + ".tmp")
    with temp.open("wb") as handle:
        handle.write(data)
        handle.flush()
        if _fsync_on:
            os.fsync(handle.fileno())
    temp.replace(path)
    fsync_dir(path.parent)


def write_json_atomic(path: Path, payload: Any) -> None:
    """:func:`write_bytes_atomic` of *payload* as compact UTF-8 JSON."""
    text = json.dumps(payload, ensure_ascii=False, separators=(",", ":"))
    write_bytes_atomic(path, text.encode("utf-8"))


class WriterLock:
    """A held advisory writer lock; ``release()`` is idempotent.  The
    OS drops the flock automatically if the holding process dies, which
    is exactly what lets recovery distinguish a crashed writer (lock
    free, journal present -> settle) from a live one (lock held ->
    leave the journal alone)."""

    __slots__ = ("_fd",)

    def __init__(self, fd: int) -> None:
        self._fd = fd

    def release(self) -> None:
        fd, self._fd = self._fd, -1
        if fd < 0:
            return
        if fcntl is not None:
            # Explicit unlock, not just close: a process-pool worker
            # forked while the lock was held inherits a duplicate of
            # this open file description, and a flock lives until
            # *every* duplicate closes -- LOCK_UN releases it now
            # regardless of who else still holds a dup.
            try:
                fcntl.flock(fd, fcntl.LOCK_UN)
            except OSError:  # pragma: no cover - already-dead fd
                pass
        os.close(fd)


def acquire_writer_lock(root: Path, blocking: bool = True) -> WriterLock | None:
    """Exclusive advisory lock marking a live writer at *root*.

    Writers take it blocking around the whole journaled mutation (two
    well-behaved writers serialize instead of corrupting each other);
    recovery takes it non-blocking and returns ``None`` when a live
    writer holds it.  ``flock`` is per open-file-description, so the
    exclusion works between threads of one process as well as between
    processes.  Platforms without ``fcntl`` degrade to unlocked --
    single-writer discipline is then the caller's contract, as it was
    before the journal existed.
    """
    fd = os.open(Path(root) / LOCK_NAME, os.O_CREAT | os.O_RDWR, 0o644)
    if fcntl is None:  # pragma: no cover - non-POSIX fallback
        return WriterLock(fd)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | (0 if blocking else fcntl.LOCK_NB))
    except OSError:
        os.close(fd)
        return None
    return WriterLock(fd)


def txn_id(*parts: Any) -> str:
    """Deterministic transaction id from the operation's content."""
    blob = json.dumps(parts, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha1(blob).hexdigest()


def journal_path(root: Path) -> Path:
    return root / JOURNAL_NAME


def write_journal(root: Path, doc: dict[str, Any]) -> None:
    """Record intent durably before the first data write."""
    write_json_atomic(journal_path(root), doc)
    _WRITE_JOURNAL.fire()


def read_journal(root: Path) -> dict[str, Any] | None:
    try:
        with journal_path(root).open("r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return None


def clear_journal(root: Path) -> None:
    """Drop the journal once the operation is fully settled."""
    journal_path(root).unlink(missing_ok=True)
    fsync_dir(root)
    _CLEAR_JOURNAL.fire()
