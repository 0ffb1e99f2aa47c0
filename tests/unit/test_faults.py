"""Unit tests for the fault-tolerance layer (repro.faults + its call sites).

What is pinned here:

* the injection plane's semantics -- arming, ``nth``/``times`` trigger
  windows, recording, reset -- and that unknown points are loud errors
  (silent typos would un-test the chaos suite);
* :class:`RetryPolicy`: bounded exponential growth, jitter bounds, the
  server's ``retry_after`` hint flooring a delay;
* the retrying :class:`ServiceClient`: transparent recovery from dropped
  connections, :class:`ServiceUnavailable` when drops outlast the
  budget, **no** retry of the non-idempotent ``ingest`` op, and the
  overload hint crossing the wire;
* shard-worker supervision end to end over a real process pool: one
  worker kill is invisible (respawn + retry, byte-identical answer), a
  kill that also takes the retry degrades the answer -- annotated with
  ``degraded_shards``, reported by ``health``, and **never cached**;
* the same supervision around a worker that *fits*: a death between fit
  and persist (``shard.worker.fit``, in a live worker re-opening in
  place or in a replacement) or mid-persist (``store.write_index``,
  inherited through the fork) ends in a correct answer, or a degraded
  one that is never cached, and a settled store.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import threading

import pytest

from repro.core.pipeline import Dialite
from repro.datalake import DataLake
from repro.datalake.fixtures import (
    covid_joinable_table,
    covid_query_table,
    covid_unionable_table,
)
from repro.datalake.indexer import LakeIndex
from repro.faults import FaultInjected, RetryPolicy, inject
from repro.service import (
    LakeServer,
    LakeService,
    ServiceClient,
    ServiceOverloaded,
    ServiceUnavailable,
    oracle_discover_payload,
)
from repro.service import protocol
from repro.shard import ShardedLakeStore, open_any_store
from repro.shard import index as shard_index
from repro.store import LakeStore, lakestore
from repro.table.table import Table

from deltas import deltas, values


@pytest.fixture(autouse=True)
def _clean_faults():
    inject.reset()
    yield
    inject.reset()


# ----------------------------------------------------------------------
# The injection plane itself
# ----------------------------------------------------------------------
class TestInject:
    def test_unarmed_fire_is_free(self):
        lakestore._WRITE_MANIFEST.fire()  # no error, no bookkeeping

    def test_unknown_point_is_loud(self):
        with pytest.raises(ValueError):
            inject.crash_after("store.no_such_point")

    def test_point_refuses_unknown_and_duplicate_names(self):
        # Declaring is what makes a name fireable, so a typo'd or second
        # declaration fails the importing module, not a chaos run later.
        with pytest.raises(ValueError, match="unknown fault point"):
            inject.point("store.no_such_point")
        with pytest.raises(ValueError, match="already declared"):
            inject.point("store.write_manifest")

    def test_declared_points_equal_the_registry(self):
        import importlib
        import pkgutil

        import repro

        for module in pkgutil.walk_packages(repro.__path__, "repro."):
            if not module.name.endswith("__main__"):
                importlib.import_module(module.name)
        assert set(inject._declared) == inject.FAULT_POINTS

    def test_crash_after_nth_and_times(self):
        inject.crash_after("store.write_segment", nth=2)
        lakestore._WRITE_SEGMENT.fire()  # first fire passes
        with pytest.raises(FaultInjected) as err:
            lakestore._WRITE_SEGMENT.fire()
        assert err.value.point == "store.write_segment"
        lakestore._WRITE_SEGMENT.fire()  # spent: armed once only

    def test_fail_at_custom_error_and_times(self):
        inject.fail_at("client.connect", ConnectionError("boom"), times=2)
        for _ in range(2):
            with pytest.raises(ConnectionError):
                protocol._CONNECT.fire()
        protocol._CONNECT.fire()  # window exhausted

    def test_record_counts_fires(self):
        with inject.record() as counts:
            lakestore._WRITE_MANIFEST.fire()
            lakestore._WRITE_MANIFEST.fire()
            lakestore._WRITE_VERSION.fire()
        assert counts["store.write_manifest"] == 2
        assert counts["store.write_version"] == 1

    def test_reset_disarms(self):
        inject.crash_after("store.write_manifest")
        inject.reset()
        lakestore._WRITE_MANIFEST.fire()
        assert not inject.active()

    def test_worker_kill_consumed_once_per_shard(self):
        inject.kill_worker(1, times=1)
        with inject.record() as counts:
            assert not shard_index._SCATTER_KILL.take_worker_kill(0)
            assert shard_index._SCATTER_KILL.take_worker_kill(1)
            assert not shard_index._SCATTER_KILL.take_worker_kill(1)  # consumed
        assert counts["shard.scatter.kill"] == 3


class TestRetryPolicy:
    def test_bounded_exponential_with_jitter(self):
        policy = RetryPolicy(
            attempts=5, base_delay=0.1, multiplier=2.0, max_delay=0.5, jitter=0.25
        )
        for attempt, base in enumerate([0.1, 0.2, 0.4, 0.5]):
            for _ in range(20):
                delay = policy.delay(attempt)
                assert base <= delay <= 0.5 * 1.25 + 1e-9

    def test_floor_from_server_hint(self):
        policy = RetryPolicy(attempts=3, base_delay=0.01, jitter=0.0, max_delay=2.0)
        assert policy.delay(0) == pytest.approx(0.01)
        assert policy.delay(0, floor=0.75) >= 0.75

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1.0)


# ----------------------------------------------------------------------
# Client resilience over a live (unsharded) server
# ----------------------------------------------------------------------
def build_store(tmp_path):
    lake = DataLake([covid_unionable_table(), covid_joinable_table()])
    store = LakeStore.create(tmp_path / "lake.store")
    store.ingest(lake)
    roster = Dialite(DataLake()).discoverers.components()
    LakeIndex.from_store(store, roster).save_to_store(store)
    return tmp_path / "lake.store"


@pytest.fixture
def server(tmp_path):
    service = LakeService(
        store=build_store(tmp_path),
        workers=2,
        reload_check_interval=0.0,
    )
    server = LakeServer(service)
    server.start()
    yield server
    server.close()


def fast_client(server, **kwargs):
    host, port = server.address
    kwargs.setdefault(
        "retry", RetryPolicy(attempts=4, base_delay=0.01, max_delay=0.05)
    )
    return ServiceClient(f"{host}:{port}", timeout=30.0, **kwargs)


class TestClientResilience:
    def test_retries_through_dropped_connections(self, server):
        client = fast_client(server)
        inject.drop_connection(times=2)
        response = client.discover(covid_query_table(), k=3, column="City")
        assert response["ok"] and response["payload"]["results"]

    def test_unavailable_when_drops_outlast_budget(self, server):
        client = fast_client(server, retry=RetryPolicy(attempts=2, base_delay=0.01))
        inject.drop_connection(times=5)
        with pytest.raises(ServiceUnavailable):
            client.ping()

    def test_ingest_is_never_retried(self, server):
        client = fast_client(server)
        inject.drop_connection(times=1)
        with pytest.raises(ServiceUnavailable):
            client.ingest([Table(["A"], [("x",)], name="fresh")])
        # One armed drop, one attempt: the fault is spent, proving the
        # client did not burn retries on a non-idempotent op.
        assert not inject.active()
        # The read path retries fine afterwards.
        assert client.ping()

    def test_dead_endpoint_is_unavailable_not_oserror(self, tmp_path):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # nobody listening here now
        client = ServiceClient(
            ("127.0.0.1", port),
            timeout=0.2,
            retry=RetryPolicy(attempts=2, base_delay=0.01),
        )
        with pytest.raises(ServiceUnavailable):
            client.ping()

    def test_overload_hint_crosses_the_wire(self, server):
        server.service.queue_depth = 0
        client = fast_client(server, retry=None)
        with pytest.raises(ServiceOverloaded) as err:
            client.discover(covid_query_table(), k=3)
        assert err.value.retry_after == LakeService.overload_retry_after

    def test_overload_retried_with_hint_floor(self, server):
        server.service.queue_depth = 0
        client = fast_client(server)
        with pytest.raises(ServiceOverloaded):
            client.discover(covid_query_table(), k=3)
        # All attempts consumed (the server stays at depth 0), each
        # floored at the hint; restoring capacity heals the client.
        server.service.queue_depth = 64
        assert client.discover(covid_query_table(), k=3)["ok"]

    def test_health_op(self, server):
        client = fast_client(server)
        health = client.health()
        assert health["status"] == "ok"
        assert health["lake_version"] == server.service.version
        assert health["degraded_shards"] == []
        assert "shards" not in health  # unsharded lake

    def test_server_handle_fault_becomes_error_response(self, server):
        client = fast_client(server, retry=None)
        inject.fail_at("server.handle", ServiceUnavailable("injected"), times=1)
        with pytest.raises(ServiceUnavailable):
            client.ping()
        assert client.ping()


# ----------------------------------------------------------------------
# Shard-worker supervision over a real process pool
# ----------------------------------------------------------------------
def tiny_sharded_store(tmp_path, num_shards=3):
    tables = {}
    for i in range(9):
        rows = [(f"city{i}_{j}", f"state{j % 3}", i * j) for j in range(6)]
        tables[f"t{i:02d}"] = Table(["City", "State", "Pop"], rows, name=f"t{i:02d}")
    store = ShardedLakeStore.create(tmp_path / "lake", num_shards=num_shards)
    store.ingest(tables)
    return tmp_path / "lake"


@pytest.fixture(scope="class")
def sharded_service(tmp_path_factory):
    path = tiny_sharded_store(tmp_path_factory.mktemp("chaos"))
    service = LakeService(
        store=path, workers=2, reload_check_interval=0.0
    )
    yield service
    service.close()


def fresh_query(tag):
    return Table(
        ["City", "State"],
        [(f"city{tag}_2", "state1"), (f"city{tag}_4", "state2")],
        name=f"q{tag}",
    )


class TestSupervision:
    def test_single_kill_is_transparent(self, sharded_service):
        query = fresh_query(3)
        baseline = sharded_service.discover(query, k=5)
        respawns = deltas("shard.worker.respawns")
        inject.kill_worker(1, times=1)
        # Fresh content so the cache cannot absorb the scatter.
        survived = sharded_service.discover(fresh_query(4), k=5)
        assert "degraded_shards" not in survived.payload
        healthy_again = sharded_service.discover(query, k=5)
        assert json.dumps(healthy_again.payload, sort_keys=True) == json.dumps(
            baseline.payload, sort_keys=True
        )
        assert respawns()["shard.worker.respawns"] > 0

    def test_double_kill_degrades_and_never_caches(self, sharded_service):
        query = fresh_query(5)
        respawns = values("shard.worker.respawns")["shard.worker.respawns"]
        inject.kill_worker(1, times=2)  # original submit AND the retry
        degraded = sharded_service.discover(query, k=5)
        assert degraded.payload["degraded_shards"] == [1]
        assert not degraded.cached
        assert sharded_service.stats_snapshot()["degraded"] >= 1

        health = sharded_service.health_snapshot()
        assert health["status"] == "degraded"
        assert health["degraded_shards"] == [1]
        assert health["worker_respawns"] - respawns >= 2
        assert [s["alive"] for s in health["shards"]].count(True) == len(
            health["shards"]
        )

        inject.reset()
        # The degraded payload was not cached: the same request now
        # recomputes against the respawned worker and comes back whole.
        recovered = sharded_service.discover(query, k=5)
        assert not recovered.cached
        assert "degraded_shards" not in recovered.payload
        # Shard-level health is whole again.  Overall status may still be
        # warn/degraded for a while: the SLO monitor's rolling windows
        # legitimately remember the injected failure (PR 10), so a non-ok
        # status must be explained by a firing objective, not shard loss.
        health = sharded_service.health_snapshot()
        assert health["degraded_shards"] == []
        assert all(shard["alive"] for shard in health.get("shards", []))
        if health["status"] != "ok":
            assert health["slo"]["firing"]
        # ... and the healthy recompute is cacheable as usual.
        assert sharded_service.discover(query, k=5).cached


class TestConcurrentSearchOutcomes:
    """A search's outcome reaches the caller that ran it: the pool runs
    discovers side by side, and one losing a shard must not have its
    annotation taken -- or a healthy neighbour's answer stamped -- by
    whichever search finished last."""

    def test_only_the_degraded_one_of_two_concurrent_discovers_says_so(
        self, tmp_path, monkeypatch
    ):
        path = tiny_sharded_store(tmp_path)
        with LakeService(store=path, workers=2, reload_check_interval=0.0) as service:
            service.discover(fresh_query(1), k=5)  # every worker is up
            index = service.pipeline.index
            real_search = index.search
            turn = threading.Lock()
            both_searched = threading.Barrier(2)

            def staged_search(*args, **kwargs):
                # One search at a time, so the first takes both armed kills
                # (its submit and its retry) and the second runs healthy;
                # neither caller reads its outcome before both have searched.
                with turn:
                    results = real_search(*args, **kwargs)
                both_searched.wait(timeout=30)
                return results

            monkeypatch.setattr(index, "search", staged_search)
            inject.kill_worker(1, times=2)
            queries = [fresh_query(6), fresh_query(7)]
            responses: list = [None, None]

            def ask(i):
                responses[i] = service.discover(queries[i], k=5)

            threads = [threading.Thread(target=ask, args=(i,)) for i in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            monkeypatch.undo()
            inject.reset()

            annotated = [r.payload.get("degraded_shards") for r in responses]
            assert sorted(annotated, key=bool) == [None, [1]]
            assert service.stats_snapshot()["degraded"] == 1
            for query, lost in zip(queries, annotated):
                again = service.discover(query, k=5)
                # "Degraded is never cached": only the whole answer was kept.
                assert again.cached == (lost is None)
                assert "degraded_shards" not in again.payload
                fresh = Dialite.open(path).fit()
                try:
                    assert json.dumps(again.payload, sort_keys=True) == json.dumps(
                        oracle_discover_payload(fresh, query, k=5), sort_keys=True
                    )
                finally:
                    fresh.index.close()


# ----------------------------------------------------------------------
# A shard's refit lives in its worker: deaths mid-fit and mid-persist
# ----------------------------------------------------------------------
def _indexes_current(path) -> list[bool]:
    return [
        shard.info()["indexes_lake_version"] == shard.lake_version
        for shard in open_any_store(path).shards
    ]


def _assert_shards_settled(path) -> None:
    """No journal left behind, and no artifact file the manifest does not
    name (opening ran recovery)."""
    for shard in open_any_store(path).shards:
        assert not (shard.path / "journal.json").exists()
        owned = set(shard._artifact_files())
        on_disk = {
            f"{kind}/{file.name}"
            for kind in ("indexes",)
            if (shard.path / kind).is_dir()
            for file in (shard.path / kind).iterdir()
        }
        assert on_disk == owned


class TestWorkerFitSupervision:
    @pytest.fixture
    def service(self, tmp_path):
        path = tiny_sharded_store(tmp_path)
        service = LakeService(
            store=path, workers=2, reload_check_interval=0.0
        )
        yield service
        service.close()

    @staticmethod
    def newcomer():
        rows = [(f"city3_{j}", f"state{j % 3}", j) for j in range(6)]
        return Table(["City", "State", "Pop"], rows, name="newcomer")

    def oracle(self, service, query):
        fresh = Dialite.open(service.store_path).fit()
        try:
            return json.dumps(oracle_discover_payload(fresh, query, k=5), sort_keys=True)
        finally:
            fresh.index.close()

    def test_one_death_between_fit_and_persist_is_retried(self, service):
        home = service._gen.store.shard_of("newcomer")
        inject.kill_worker(home, times=1)
        respawns = deltas("shard.worker.respawns")
        service.ingest([self.newcomer()])
        # The replacement fitted and persisted before the ack.
        assert respawns() == {"shard.worker.respawns": 1}
        assert all(_indexes_current(service.store_path))
        answer = service.discover(fresh_query(3), k=5)
        assert "degraded_shards" not in answer.payload
        assert "newcomer" in answer.payload["integration_set"]
        assert json.dumps(answer.payload, sort_keys=True) == self.oracle(
            service, fresh_query(3)
        )

    def test_a_kill_consumed_by_an_in_place_reopen_is_a_real_death(self, service):
        """The moved shard's worker is alive and re-opens in place; the
        armed kill dies with it -- a process death, not an exception --
        and supervision respawns that one shard at the new version."""
        index = service.pipeline.index
        pids = [lease.submit(os.getpid).result(timeout=30) for lease in index._leases]
        home = service._gen.store.shard_of("newcomer")
        inject.kill_worker(home, times=1)
        respawns = deltas("shard.worker.respawns")
        report = service.ingest([self.newcomer()])
        index = service.pipeline.index
        assert respawns() == {"shard.worker.respawns": 1}
        after = [lease.submit(os.getpid).result(timeout=30) for lease in index._leases]
        assert [a == b for a, b in zip(after, pids)] == [
            i != home for i in range(len(pids))
        ]
        assert index.health()["shards"][home]["version"] == (
            open_any_store(service.store_path).shards[home].lake_version
        )
        answer = service.discover(fresh_query(3), k=5)
        assert answer.lake_version == report["lake_version"]
        assert "degraded_shards" not in answer.payload
        assert json.dumps(answer.payload, sort_keys=True) == self.oracle(
            service, fresh_query(3)
        )
        assert all(_indexes_current(service.store_path))
        _assert_shards_settled(service.store_path)

    def test_a_respawn_still_counts_after_a_reload(self, service):
        """``worker_respawns`` is the process's ``shard.worker.respawns``
        counter, so the generation a reload builds does not start it over
        -- as it already did not start ``last_respawn_age_s`` over."""
        respawns = values("shard.worker.respawns")["shard.worker.respawns"]
        service.discover(fresh_query(1), k=5)  # every worker is up
        inject.kill_worker(1, times=1)
        assert "degraded_shards" not in service.discover(fresh_query(2), k=5).payload
        service.ingest([self.newcomer()])
        health = service.health_snapshot()
        assert health["shards"][1]["last_respawn_age_s"] is not None
        assert health["worker_respawns"] == respawns + 1

    def test_two_deaths_leave_the_fit_to_the_first_scatter(self, service):
        home = service._gen.store.shard_of("newcomer")
        inject.kill_worker(home, times=2)  # the fitting worker AND its retry
        report = service.ingest([self.newcomer()])
        assert service.version == report["lake_version"]
        assert _indexes_current(service.store_path).count(False) == 1
        answer = service.discover(fresh_query(3), k=5)
        assert "degraded_shards" not in answer.payload
        assert "newcomer" in answer.payload["integration_set"]
        assert all(_indexes_current(service.store_path))
        _assert_shards_settled(service.store_path)

    def test_death_mid_persist_degrades_then_recovers(self, service):
        home = service._gen.store.shard_of("newcomer")
        # A live worker re-opens in place and inherits nothing armed after
        # its fork, so the home shard's is killed first: its refit then
        # runs in replacements.  The driver never writes an index pickle;
        # every worker forked while this is armed dies right after
        # writing its first one.
        lease = service.pipeline.index._leases[home]
        os.kill(lease.submit(os.getpid).result(timeout=30), signal.SIGKILL)
        inject.crash_after("store.write_index")
        respawns = deltas("shard.worker.respawns")
        service.ingest([self.newcomer()])
        assert respawns() == {"shard.worker.respawns": 2}  # retry, then lazy lease
        degraded = service.discover(fresh_query(3), k=5)
        assert degraded.payload["degraded_shards"] == [home]
        assert not degraded.cached
        inject.reset()
        _assert_shards_settled(service.store_path)  # rolled back, no orphan pickle
        whole = service.discover(fresh_query(3), k=5)
        assert not whole.cached and "degraded_shards" not in whole.payload
        assert json.dumps(whole.payload, sort_keys=True) == self.oracle(
            service, fresh_query(3)
        )
        assert all(_indexes_current(service.store_path))
        _assert_shards_settled(service.store_path)

    def test_worker_pinned_to_a_version_the_shard_left_exits(self, service):
        from concurrent.futures.process import BrokenProcessPool

        from repro.shard import worker as shard_worker
        from repro.shard.index import _PoolLease

        shard = service._gen.store.shards[0]
        pinned = shard.lake_version + 1
        lease = _PoolLease(str(shard.path), pinned)
        try:
            with pytest.raises(BrokenProcessPool):
                lease.submit(shard_worker.process_worker_ready, None).result(timeout=60)
        finally:
            lease.release(pinned)
