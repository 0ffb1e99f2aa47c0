"""What :class:`ShardedLakeIndex` supervision covers, and what it leaves
alone.

Supervision is for what happens *to* a shard worker (it died, it hung);
``tests/unit/test_faults.py`` kills workers and watches them come back.
These tests pin the two edges of that: an exception a worker's task
*raises* is the caller's, exactly as a plain :class:`LakeIndex` would
raise it, and a hung worker is replaced without ever being waited on.

Before any worker exists, a sharded root of another format generation,
or with an undecodable ``lake.json``, is refused at open.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import pytest

import repro
from repro.datalake import DataLake, LakeIndex
from repro.discovery import JosieJoinSearch, LSHEnsembleJoinSearch, SantosUnionSearch
from repro.obs import metrics as obs_metrics
from repro.service import LakeService
from repro.shard import ShardedLakeIndex, ShardedLakeStore
from repro.shard import worker as shard_worker
from repro.store import StoreError, StoreFormatUnsupported
from repro.table import Table

from deltas import deltas
from old_store import OTHER_FORMAT_VERSIONS, READS_ONLY, as_format_1


def roster():
    return [SantosUnionSearch(), LSHEnsembleJoinSearch(), JosieJoinSearch()]


def make_lake() -> DataLake:
    tables = []
    for i in range(8):
        rows = [(f"city{i}_{j}", f"state{j % 3}", i * j) for j in range(6)]
        tables.append(Table(["City", "State", "Pop"], rows, name=f"t{i:02d}"))
    return DataLake(tables)


QUERY = Table(["City"], [("city3_2",), ("city3_4",)], name="q")


def sharded_index(tmp_path, num_shards: int, **options) -> ShardedLakeIndex:
    store = ShardedLakeStore.create(tmp_path / "lake", num_shards=num_shards)
    store.ingest(make_lake())
    return ShardedLakeIndex(store, roster(), **options).build()


@pytest.mark.parametrize("file", ["lake.json", "shard-001/manifest.json"])
@pytest.mark.parametrize("version", OTHER_FORMAT_VERSIONS)
def test_any_other_format_version_is_refused(tmp_path, file, version):
    """The root's ``lake.json`` and every shard's ``manifest.json`` pass
    the one check a plain store's manifest does."""
    ShardedLakeStore.create(tmp_path / "lake", num_shards=2).ingest(make_lake())
    path = tmp_path / "lake" / file
    manifest = json.loads(path.read_text(encoding="utf-8"))
    if version is None:
        del manifest["format_version"]
    else:
        manifest["format_version"] = version
    path.write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(StoreFormatUnsupported) as refused:
        ShardedLakeStore.open(tmp_path / "lake")
    found = "no format_version" if version is None else f"format_version {version},"
    assert found in str(refused.value)
    assert READS_ONLY in str(refused.value)
    assert str(path) in str(refused.value)


def test_a_format_1_store_is_refused_by_its_version(tmp_path):
    """The root is refused first, before any shard's three-field sketch
    block is read."""
    ShardedLakeStore.create(tmp_path / "lake", num_shards=2).ingest(make_lake())
    as_format_1(tmp_path / "lake")
    with pytest.raises(StoreFormatUnsupported, match="format_version 1,") as refused:
        ShardedLakeStore.open(tmp_path / "lake")
    assert str(tmp_path / "lake" / "lake.json") in str(refused.value)
    assert "index build" in str(refused.value)


@pytest.mark.parametrize("damage", ["truncated", "not an object"])
def test_an_undecodable_lake_json_is_a_store_error(tmp_path, damage):
    ShardedLakeStore.create(tmp_path / "lake", num_shards=2).ingest(make_lake())
    path = tmp_path / "lake" / "lake.json"
    text = path.read_text(encoding="utf-8")
    path.write_text(text[: len(text) // 2] if damage == "truncated" else '"lake"')
    with pytest.raises(StoreError) as refused:
        ShardedLakeStore.open(tmp_path / "lake")
    assert str(path) in str(refused.value)


@pytest.mark.parametrize("damage", ["extra field", "not an object"])
def test_a_malformed_shard_sketch_block_is_a_store_error(tmp_path, damage, capsys):
    from repro.cli import main

    ShardedLakeStore.create(tmp_path / "lake", num_shards=2).ingest(make_lake())
    path = tmp_path / "lake" / "shard-001" / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    if damage == "extra field":
        manifest["sketch"]["extra"] = 1
    else:
        manifest["sketch"] = list(manifest["sketch"].values())
    path.write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(StoreError) as refused:
        ShardedLakeStore.open(tmp_path / "lake")
    assert str(path) in str(refused.value) and "sketch block" in str(refused.value)
    assert main(["index", "info", "--store", str(tmp_path / "lake")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}")


def answer(index, column: str = "City"):
    found = index.search(QUERY, k=3, query_column=column)
    return {
        name: [(r.table_name, round(r.score, 9)) for r in results]
        for name, results in found.items()
    }


@pytest.mark.parametrize("num_shards", [2, 4])
def test_a_tasks_own_exception_is_the_callers_not_a_worker_death(tmp_path, num_shards):
    """An unknown query column is the caller's ``KeyError``, not the
    death of every worker (2 x N respawns, then ``StoreError: discover
    scatter failed on every shard``)."""
    plain = LakeIndex(make_lake(), roster()).build()
    with pytest.raises(KeyError) as expected:
        answer(plain, "no_such_column")
    healthy = answer(plain)

    index = sharded_index(tmp_path, num_shards)
    try:
        assert answer(index) == healthy
        workers = {p.pid for p in multiprocessing.active_children()}
        supervision = deltas("shard.worker.respawns", "shard.scatter.failures")
        with pytest.raises(KeyError) as raised:
            answer(index, "no_such_column")
        assert type(raised.value) is type(expected.value)
        assert str(raised.value) == str(expected.value)
        assert not any(supervision().values())
        # ... and the workers that raised it serve the next query.
        assert answer(index) == healthy
        assert workers <= {p.pid for p in multiprocessing.active_children()}
        assert all(shard["alive"] for shard in index.health()["shards"])
    finally:
        index.close()


def test_unknown_discoverer_names_raise_what_the_plain_index_raises(tmp_path):
    """The roster check is the workers' ``LakeIndex.select``, so a
    sharded index raises the plain index's ``KeyError``, and no worker
    dies of it."""
    names = ["josie", "nope"]
    with pytest.raises(KeyError) as expected:
        LakeIndex(make_lake(), roster()).search(QUERY, k=3, discoverer_names=names)
    index = sharded_index(tmp_path, 2)
    try:
        respawns = deltas("shard.worker.respawns")
        with pytest.raises(KeyError) as raised:
            index.search(QUERY, k=3, discoverer_names=names)
        assert str(raised.value) == str(expected.value)
        assert respawns() == {"shard.worker.respawns": 0}
        assert answer(index)
    finally:
        index.close()


def test_a_hung_worker_is_replaced_and_never_waited_on(tmp_path):
    """Shard 0's worker is busy for *hang* seconds; a scatter with a
    short deadline respawns it, retries and answers long before that, and
    neither the respawn nor the close of an older generation that still
    shared the lease waits for the hung process."""
    hang = 30.0
    first = sharded_index(tmp_path, 2)
    second = ShardedLakeIndex.from_store(first._store, roster(), previous=first)
    second._scatter_timeout = 0.3
    hung_pid = None
    try:
        healthy = answer(second)
        lease = second._leases[0]
        assert lease is first._leases[0]  # donated: two generations share it
        hung_pid = lease.submit(os.getpid).result(timeout=10)
        lease.submit(time.sleep, hang)
        started = time.monotonic()
        respawns = deltas("shard.worker.respawns")
        assert answer(second) == healthy
        assert second.last_degraded_shards == ()
        assert respawns() == {"shard.worker.respawns": 1}
        first.close()  # drops the last reference to the hung lease
        assert time.monotonic() - started < hang / 3
    finally:
        second.close()
        first.close()
        if hung_pid is not None:
            os.kill(hung_pid, signal.SIGKILL)


# ----------------------------------------------------------------------
# A shard's worker outlives its versions
# ----------------------------------------------------------------------
NEWCOMER = Table(["City", "State", "Pop"], [("city3_2", "state9", 1)], name="newcomer")


def worker_pids(index) -> list[int]:
    return [lease.submit(os.getpid).result(timeout=30) for lease in index._leases]


def open_versions(lease) -> int:
    snapshot = lease.submit(shard_worker.process_worker_metrics, None).result(timeout=30)
    return snapshot["gauges"]["shard.worker.open_versions"]


def ingest_into_shard(root, shard: int, tag: str) -> Table:
    """Ingest one table routed to *shard* through a foreign handle."""
    store = ShardedLakeStore.open(root)
    name = next(
        f"{tag}{n}" for n in range(1000) if store.shard_of(f"{tag}{n}") == shard
    )
    table = Table(NEWCOMER.columns, [tuple(row) for row in NEWCOMER.rows], name=name)
    store.ingest({name: table}, prune=False)
    return table


def test_never_stale_under_the_overlap(tmp_path):
    """Two generations share every worker while the old one is open: each
    is answered from the version it serves, the moved shard included, and
    the old version is dropped when its last generation closes."""
    old = sharded_index(tmp_path, 2)
    new = None
    respawns = deltas("shard.worker.respawns")
    try:
        before = answer(old)
        pids = worker_pids(old)
        added = ingest_into_shard(tmp_path / "lake", 0, "moved")
        new = ShardedLakeIndex.from_store(
            ShardedLakeStore.open(tmp_path / "lake"), roster(), previous=old
        )
        assert new._leases == old._leases and worker_pids(new) == pids
        assert open_versions(new._leases[0]) == 2
        assert open_versions(new._leases[1]) == 1
        listed = {name for name, _ in answer(new)["josie"]}
        assert added.name in listed
        assert answer(old) == before  # not the newest: the one it was built for
        assert added.name not in {name for name, _ in answer(old)["josie"]}
        old.close()
        assert open_versions(new._leases[0]) == 1
        assert added.name in {name for name, _ in answer(new)["josie"]}
        assert worker_pids(new) == pids
        assert respawns() == {"shard.worker.respawns": 0}
    finally:
        old.close()
        if new is not None:
            new.close()


def test_closing_a_generation_never_calls_into_the_pool(tmp_path):
    """A retired generation is closed from ``__del__``, and the collector
    may run that anywhere -- inside the shared pool's own ``submit``,
    under the pool's lock, for one.  So the close only notes the version;
    the worker is told to drop it ahead of the next task."""
    old = sharded_index(tmp_path, 2)
    ingest_into_shard(tmp_path / "lake", 0, "moved")
    new = ShardedLakeIndex.from_store(
        ShardedLakeStore.open(tmp_path / "lake"), roster(), previous=old
    )
    try:
        lease = new._leases[0]
        with lease._pool._shutdown_lock:
            closer = threading.Thread(target=old.close)
            closer.start()
            closer.join(timeout=10)
            assert not closer.is_alive()
        assert open_versions(lease) == 1
    finally:
        old.close()
        new.close()


def test_a_forked_copy_of_a_generation_owns_no_pool(tmp_path):
    """A process forked from the driver (the next shard worker, say)
    inherits its generations and may finalize them; that must not reach
    the driver's pools."""
    index = sharded_index(tmp_path, 2)
    respawns = deltas("shard.worker.respawns")
    try:
        healthy = answer(index)
        context = multiprocessing.get_context("fork")
        receiver, sender = context.Pipe(duplex=False)

        def child():
            index.close()
            sender.send([lease._pool is not None for lease in leases])

        leases = list(index._leases)
        process = context.Process(target=child)
        process.start()
        assert receiver.poll(30) and receiver.recv() == [True, True]
        process.join(timeout=30)
        assert answer(index) == healthy
        assert respawns() == {"shard.worker.respawns": 0}
    finally:
        index.close()


def test_a_reopen_at_a_version_the_shard_left_is_refused_and_the_worker_lives(tmp_path):
    old = sharded_index(tmp_path, 2)
    late = current = None
    try:
        before = answer(old)
        pids = worker_pids(old)
        ingest_into_shard(tmp_path / "lake", 0, "first")
        stale_handle = ShardedLakeStore.open(tmp_path / "lake")
        added = ingest_into_shard(tmp_path / "lake", 0, "second")
        # Shard 0 is two versions on; the handle asks for the one between.
        respawns = deltas("shard.worker.respawns")
        late = ShardedLakeIndex.from_store(stale_handle, roster(), previous=old)
        assert late._leases[0] is None and late._leases[1] is old._leases[1]
        assert respawns() == {"shard.worker.respawns": 0}
        assert worker_pids(old) == pids and answer(old) == before
        assert open_versions(old._leases[0]) == 1
        # What a lost pin race maps to: that generation serves without
        # the shard, annotated, until a reload builds the next one.
        assert answer(late) != before and late.last_degraded_shards == (0,)
        current = ShardedLakeIndex.from_store(
            ShardedLakeStore.open(tmp_path / "lake"), roster(), previous=old
        )
        assert added.name in {name for name, _ in answer(current)["josie"]}
        assert worker_pids(current) == pids
    finally:
        for index in (old, late, current):
            if index is not None:
                index.close()


def test_a_forked_worker_counts_from_zero(tmp_path):
    """What the driver counted before it forked a worker is the driver's:
    no worker reports it, so the merged view counts it once."""
    obs_metrics.counter("test.parent_only").inc(80)
    index = sharded_index(tmp_path, 2)
    try:
        answer(index)
        for lease in index._leases:
            counters = lease.submit(
                shard_worker.process_worker_metrics, None
            ).result(timeout=30)["counters"]
            assert "test.parent_only" not in counters
            assert counters["engine.retrievals"] > 0
    finally:
        index.close()


def test_worker_counters_are_monotone_across_service_ingests(tmp_path):
    sharded_index(tmp_path, 2).close()
    with LakeService(store=tmp_path / "lake", workers=2, reload_check_interval=0.0) as service:
        service.discover(QUERY, k=3)
        seen = service.pipeline.index.worker_metrics()["counters"]
        for n in range(3):
            table = Table(NEWCOMER.columns, [tuple(r) for r in NEWCOMER.rows], name=f"new{n}")
            service.ingest([table])
            service.discover(Table(["City"], [(f"city{n}_1",)], name="q"), k=3)
            now = service.pipeline.index.worker_metrics()["counters"]
            assert all(now.get(name, 0) >= value for name, value in seen.items())
            assert now["engine.retrievals"] > seen["engine.retrievals"]
            seen = now


class TestRetiredGenerationsDieByRefcount:
    """No cycle ties a retired store handle or index to anything that
    outlives it: with the collector off, dropping the last reference
    frees them."""

    @pytest.fixture(autouse=True)
    def _collector_off(self):
        gc.collect()
        gc.disable()
        yield
        gc.enable()

    def test_plain_store(self, tmp_path):
        from repro.store import LakeStore

        store = LakeStore.create(tmp_path / "store")
        store.ingest(make_lake())
        index = store.open_index(roster())
        assert index.search(QUERY, k=3, query_column="City")
        store.reopen().ingest({NEWCOMER.name: NEWCOMER}, prune=False)
        fresh = store.reopen()
        successor = fresh.open_index(roster())
        retired = [weakref.ref(store), weakref.ref(index)]
        del store, index
        assert [ref() for ref in retired] == [None, None]
        assert successor.search(QUERY, k=3, query_column="City")

    def test_shard_worker(self, tmp_path, monkeypatch):
        """The worker's own sequence -- open, re-open, drop -- run here."""
        sharded_index(tmp_path, 2).close()
        monkeypatch.setattr(shard_worker, "_WORKER", {})
        shard = ShardedLakeStore.open(tmp_path / "lake").shards[0]
        shard_worker.process_worker_init(str(shard.path), shard.lake_version, roster())
        retired = [
            weakref.ref(shard_worker._WORKER["store"]),
            weakref.ref(shard_worker._WORKER["indexes"][shard.lake_version]),
        ]
        ingest_into_shard(tmp_path / "lake", 0, "moved")
        shard_worker.process_worker_open(shard.lake_version + 1, roster())
        assert all(ref() is not None for ref in retired)
        shard_worker.process_worker_drop(shard.lake_version)
        assert [ref() for ref in retired] == [None, None]


_REFIT_LOOP = """
import sys
from pathlib import Path
from repro.shard import ShardedLakeStore, worker
from repro.table import Table
from test_shard_index import roster

root = Path(sys.argv[1])
shard = ShardedLakeStore.open(root).shards[0]
name = next(n for n in shard.table_names)
worker.process_worker_init(str(shard.path), shard.lake_version, roster())
version = shard.lake_version
for n in range(8):
    rows = [(f"city{n}_{j}", f"state{j % 3}", n * j) for j in range(6)]
    replaced = Table(["City", "State", "Pop"], rows, name=name)
    ShardedLakeStore.open(root).ingest({name: replaced}, prune=False)
    worker.process_worker_open(version + 1, roster())
    worker.process_worker_drop(version)
    version += 1
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmRSS:"):
            print(int(line.split()[1]))
"""


def test_eight_in_place_refits_do_not_grow_the_worker(tmp_path):
    """One table replaced eight times, the shard re-opened in place each
    time: resident memory after the eighth refit is where it was after
    the third (the retired generations are gone, not waiting for a
    collection)."""
    store = ShardedLakeStore.create(tmp_path / "lake", num_shards=2)
    store.ingest(
        {
            f"t{i:02d}": Table(
                ["City", "State", "Pop"],
                [(f"city{i}_{j}", f"state{j % 3}", i * j) for j in range(16)],
                name=f"t{i:02d}",
            )
            for i in range(80)  # ~40 a shard: a retained generation is ~0.5 MiB
        }
    )
    ShardedLakeIndex(store, roster()).build().close()
    env = dict(os.environ)
    here = Path(__file__).resolve()
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(repro.__file__).resolve().parents[1]), str(here.parent), str(here.parents[1])]
    )
    done = subprocess.run(
        [sys.executable, "-c", _REFIT_LOOP, str(tmp_path / "lake")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    rss_kib = [int(line) for line in done.stdout.split()]
    assert len(rss_kib) == 8
    assert abs(rss_kib[7] - rss_kib[2]) <= 1024
