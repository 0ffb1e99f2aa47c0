"""Crash-at-every-write-point recovery (the fault-tolerance tentpole).

The intent-journal protocol (:mod:`repro.store.journal`) promises that a
writer killed at *any* instant leaves a store that ``open()`` repairs to
**byte-for-byte** either the pre-operation state or the post-operation
state -- never a torn mix -- with zero orphan files.

These tests make that promise exhaustive rather than anecdotal: the
fault plane's recorder (:func:`repro.faults.inject.record`) enumerates
every write-point fire of a crash-free run of the operation, then the
operation is re-run on a fresh copy of the pre-state with a simulated
crash (:class:`FaultInjected`) armed at each ``(point, nth)`` in turn.
After recovery:

* the directory's full file set and every file's bytes equal exactly
  the pre- or the post-state snapshot (txn ids are content-derived, so a
  recovered-then-retried operation converges on the *identical* bytes a
  crash-free run produces);
* no ``*.tmp`` droppings and no ``journal.json`` survive;
* a rolled-back operation can simply be retried and lands on the
  post-state.

Covered operations: ``LakeStore.ingest`` (adds + an update, so both
``pending`` and ``stale`` paths run), ``LakeStore.remove``, the artifact
save ``LakeStore.save_indexes`` (index pickles), and the journaled
``ShardedLakeStore.rebalance`` (whose crash windows include
whole-directory backup renames and moves -- the "table in two shards"
hazard the journal exists to close).
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from repro.faults import FaultInjected, inject
from repro.shard.store import ShardedLakeStore
from repro.store import journal
from repro.store.lakestore import LakeStore
from repro.table.table import Table


@pytest.fixture(autouse=True)
def _fast_and_clean():
    # The protocol under test is the journal + tmp/replace ordering;
    # skipping the physical fsyncs keeps the crash matrix fast without
    # changing any byte the assertions see.
    was_on = journal.fsync_enabled()
    journal.set_fsync_enabled(False)
    inject.reset()
    yield
    inject.reset()
    journal.set_fsync_enabled(was_on)


def table(name: str, seed: int, rows: int = 6) -> Table:
    return Table(
        ["City", "State", "Pop"],
        [(f"c{seed}_{j}", f"s{j % 3}", seed * 10 + j) for j in range(rows)],
        name=name,
    )


def snapshot(root: Path) -> dict[str, bytes]:
    """Every file under *root* with its exact bytes.

    The advisory ``.writer.lock`` sidecars are excluded: they are
    contentless liveness markers, deliberately never unlinked (removing
    a flock file races fresh lockers against stale holders), so their
    mere existence says nothing about store state."""
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name != journal.LOCK_NAME
    }


def assert_no_orphans(root: Path) -> None:
    leftovers = [
        p.relative_to(root).as_posix()
        for p in root.rglob("*")
        if p.name.endswith(".tmp") or p.name == journal.JOURNAL_NAME
    ]
    assert leftovers == [], f"orphans survived recovery: {leftovers}"


def crash_matrix(pre_dir, operation, reopen, tmp_path, extra_roots=()):
    """Run *operation* crash-free to learn its write points, then crash
    at every (point, nth) and assert recovery lands on pre or post bytes.

    Returns ``(cases, rollbacks, rollforwards)`` so callers can assert
    both directions were actually exercised.
    """
    pre = snapshot(pre_dir)

    clean = tmp_path / "clean"
    shutil.copytree(pre_dir, clean)
    with inject.record() as counts:
        operation(clean)
    post = snapshot(clean)
    points = {
        point: n
        for point, n in sorted(counts.items())
        if point.startswith(("store.", "shard.rebalance."))
    }
    assert points, "operation fired no write points -- the matrix is empty"

    cases = rollbacks = rollforwards = 0
    for point, total in points.items():
        for nth in range(1, total + 1):
            work = tmp_path / f"crash-{point.replace('.', '_')}-{nth}"
            shutil.copytree(pre_dir, work)
            inject.crash_after(point, nth=nth)
            try:
                with pytest.raises(FaultInjected):
                    operation(work)
            finally:
                inject.reset()
            reopen(work)  # recovery runs inside open()
            state = snapshot(work)
            assert state == pre or state == post, (
                f"crash after {point}#{nth}: recovered state is neither "
                f"pre nor post (files {sorted(set(state) ^ set(pre))} vs pre, "
                f"{sorted(set(state) ^ set(post))} vs post)"
            )
            assert_no_orphans(work)
            for sibling in extra_roots:
                staged = work.parent / (work.name + sibling)
                assert not staged.exists(), f"staging dir {staged} survived"
            cases += 1
            if state == pre:
                rollbacks += 1
                # A rolled-back operation is simply retried -- and must
                # converge on the identical post bytes.
                operation(work)
                assert snapshot(work) == post, (
                    f"retry after rolled-back crash at {point}#{nth} "
                    f"diverged from the crash-free bytes"
                )
            else:
                rollforwards += 1
    return cases, rollbacks, rollforwards


# ----------------------------------------------------------------------
# LakeStore: ingest (add + update) and remove
# ----------------------------------------------------------------------
@pytest.fixture
def plain_store(tmp_path):
    path = tmp_path / "pre"
    store = LakeStore.create(path)
    store.ingest({"alpha": table("alpha", 1), "beta": table("beta", 2)})
    return path


def test_ingest_crash_at_every_write_point(plain_store, tmp_path):
    def operation(path):
        LakeStore.open(path).ingest(
            # beta changes (stale segment+stats), gamma is new (pending).
            {"beta": table("beta", 7, rows=4), "gamma": table("gamma", 3)},
            prune=False,
        )

    cases, rollbacks, rollforwards = crash_matrix(
        plain_store, operation, LakeStore.open, tmp_path
    )
    assert cases >= 7  # journal, 2 segments, 2 stats, manifest, version, ...
    assert rollbacks and rollforwards  # both recovery directions exercised


def test_remove_crash_at_every_write_point(plain_store, tmp_path):
    def operation(path):
        LakeStore.open(path).remove("beta")

    cases, rollbacks, rollforwards = crash_matrix(
        plain_store, operation, LakeStore.open, tmp_path
    )
    assert cases >= 4
    assert rollbacks and rollforwards


def test_artifact_saves_crash_at_every_write_point(plain_store, tmp_path):
    """Index pickles are journaled like table data: a crash between any
    two of their writes leaves no file the manifest does not name, and
    the save can simply be run again."""
    from repro.datalake.indexer import LakeIndex
    from repro.discovery import JosieJoinSearch, LSHEnsembleJoinSearch

    index = LakeIndex(
        LakeStore.open(plain_store).lake(), [JosieJoinSearch(), LSHEnsembleJoinSearch()]
    ).build()

    def save_indexes(path):
        LakeStore.open(path).save_indexes(index.discoverers)

    cases, rollbacks, rollforwards = crash_matrix(
        plain_store, save_indexes, LakeStore.open, tmp_path / "indexes"
    )
    assert cases >= 6  # journal, 2 pickles, manifest, version, clear
    assert rollbacks and rollforwards


def test_recovery_is_idempotent(plain_store, tmp_path):
    """Crashing *during recovery's own cleanup* must not make things
    worse: recovery uses raw unlinks (no fault points), so opening twice
    is byte-stable."""
    work = tmp_path / "work"
    shutil.copytree(plain_store, work)
    inject.crash_after("store.write_segment", nth=1)
    with pytest.raises(FaultInjected):
        LakeStore.open(work).ingest({"gamma": table("gamma", 3)}, prune=False)
    inject.reset()
    LakeStore.open(work)
    first = snapshot(work)
    LakeStore.open(work)
    assert snapshot(work) == first


def test_recovery_leaves_a_live_writers_journal_alone(plain_store, tmp_path):
    """Readers may open() while a writer is mid-mutation; recovery must
    settle only *crashed* writers (advisory lock free), never roll back
    an operation that is still running."""
    work = tmp_path / "work"
    shutil.copytree(plain_store, work)
    lock = journal.acquire_writer_lock(work)
    journal.write_journal(
        work,
        {"op": "ingest", "txn": "tx", "pending": ["segments/bogus.seg"],
         "stale": []},
    )
    pre = snapshot(work)
    assert LakeStore.recover(work) is None  # live writer: untouched
    assert journal.read_journal(work) is not None
    assert snapshot(work) == pre
    lock.release()
    repaired = LakeStore.recover(work)  # dead writer: settled
    assert repaired is not None and repaired["action"] == "rolled_back"
    assert journal.read_journal(work) is None


# ----------------------------------------------------------------------
# ShardedLakeStore: rebalance
# ----------------------------------------------------------------------
@pytest.fixture
def sharded_store(tmp_path):
    path = tmp_path / "pre"
    store = ShardedLakeStore.create(path, num_shards=2)
    store.ingest({f"t{i:02d}": table(f"t{i:02d}", i) for i in range(6)})
    return path


def test_rebalance_crash_at_every_write_point(sharded_store, tmp_path):
    def operation(path):
        ShardedLakeStore.open(path, check_sketch=False).rebalance(3)

    def reopen(path):
        ShardedLakeStore.open(path, check_sketch=False)

    cases, rollbacks, rollforwards = crash_matrix(
        sharded_store, operation, reopen, tmp_path, extra_roots=(".rebalance",)
    )
    assert cases >= 10  # staging ingests + backup renames + moves + commit
    assert rollbacks and rollforwards


def test_interrupted_rebalance_never_leaves_a_table_in_two_shards(
    sharded_store, tmp_path
):
    """The satellite guarantee, asserted directly: crash at every move
    of the new layout into place, recover, and check placement is a
    partition -- each table lives in exactly one live shard."""
    clean = tmp_path / "clean"
    shutil.copytree(sharded_store, clean)
    with inject.record() as counts:
        ShardedLakeStore.open(clean, check_sketch=False).rebalance(3)
    for nth in range(1, counts.get("shard.rebalance.move", 0) + 1):
        work = tmp_path / f"move-{nth}"
        shutil.copytree(sharded_store, work)
        inject.crash_after("shard.rebalance.move", nth=nth)
        with pytest.raises(FaultInjected):
            ShardedLakeStore.open(work, check_sketch=False).rebalance(3)
        inject.reset()
        recovered = ShardedLakeStore.open(work, check_sketch=False)
        placements: dict[str, list[str]] = {}
        for shard in recovered.shards:
            for name in shard.table_names:
                placements.setdefault(name, []).append(shard.path.name)
        doubled = {t: s for t, s in placements.items() if len(s) > 1}
        assert not doubled, f"tables in two shards after recovery: {doubled}"
        assert sorted(placements) == [f"t{i:02d}" for i in range(6)]


def test_cli_recover_settles_what_a_crashed_writer_left(sharded_store, tmp_path, capsys):
    """``repro store recover`` is the recovery an ``open()`` would run,
    reported: the root's rebalance journal first, then every shard's."""
    from repro.cli import main

    def recover(path):
        assert main(["store", "recover", "--store", str(path)]) == 0
        return capsys.readouterr().out

    for point, action, shards in (
        ("shard.rebalance.move", "rolled back", 2),
        ("shard.rebalance.commit", "rolled forward", 3),
    ):
        work = tmp_path / point
        shutil.copytree(sharded_store, work)
        inject.crash_after(point, nth=1)
        with pytest.raises(FaultInjected):
            ShardedLakeStore.open(work, check_sketch=False).rebalance(3)
        inject.reset()
        assert recover(work) == f"rebalance: {action}\n"
        assert_no_orphans(work)
        assert not (tmp_path / (work.name + ".rebalance")).exists()
        assert recover(work) == "clean: no interrupted operation found\n"
        settled = ShardedLakeStore.open(work, check_sketch=False)
        assert settled.num_shards == shards and len(settled) == 6

    # A writer killed inside one shard's ingest: that shard's journal.
    store = ShardedLakeStore.open(sharded_store)
    inject.crash_after("store.write_stats", nth=1)
    with pytest.raises(FaultInjected):
        store.ingest({"new": table("new", 9)}, prune=False)
    inject.reset()
    home = store.shard_names[store.shard_of("new")]
    assert recover(sharded_store) == (
        f"ingest (shard {home}): rolled back, 2 orphan file(s) removed\n"
    )
    assert_no_orphans(sharded_store)
    assert "new" not in ShardedLakeStore.open(sharded_store)
