"""What :class:`ShardedLakeIndex` supervision covers, and what it leaves
alone.

Supervision is for what happens *to* a shard worker (it died, it hung);
``tests/unit/test_faults.py`` kills workers and watches them come back.
These tests pin the two edges of that: an exception a worker's task
*raises* is the caller's, exactly as a plain :class:`LakeIndex` would
raise it, and a hung worker is replaced without ever being waited on.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

import pytest

from repro.datalake import DataLake, LakeIndex
from repro.discovery import JosieJoinSearch, LSHEnsembleJoinSearch, SantosUnionSearch
from repro.obs import metrics as obs_metrics
from repro.shard import ShardedLakeIndex, ShardedLakeStore
from repro.table import Table


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


def answer(index, column: str = "City"):
    found = index.search(QUERY, k=3, query_column=column)
    return {
        name: [(r.table_name, round(r.score, 9)) for r in results]
        for name, results in found.items()
    }


def supervision_counters() -> dict[str, int]:
    counters = obs_metrics.global_registry().snapshot()["counters"]
    return {
        name: counters.get(name, 0)
        for name in ("shard.worker.respawns", "shard.scatter.failures")
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
        before = supervision_counters()
        with pytest.raises(KeyError) as raised:
            answer(index, "no_such_column")
        assert type(raised.value) is type(expected.value)
        assert str(raised.value) == str(expected.value)
        assert index.worker_respawns == 0
        assert supervision_counters() == before
        # ... and the workers that raised it serve the next query.
        assert answer(index) == healthy
        assert workers <= {p.pid for p in multiprocessing.active_children()}
        assert all(shard["alive"] for shard in index.health()["shards"])
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
        assert answer(second) == healthy
        assert second.last_degraded_shards == ()
        assert second.worker_respawns == 1
        first.close()  # drops the last reference to the hung lease
        assert time.monotonic() - started < hang / 3
    finally:
        second.close()
        first.close()
        if hung_pid is not None:
            os.kill(hung_pid, signal.SIGKILL)
