"""Unit tests for the concurrent serving layer (repro.service).

The load-bearing guarantees pinned here:

* cache correctness under concurrency -- a threaded stress mix of
  discover / integrate / ingest produces only responses that are
  byte-identical to a sequential oracle pipeline opened at the exact
  lake version each response is stamped with (zero staleness);
* admission control -- overload is an explicit :class:`ServiceOverloaded`
  rejection, deadlines surface :class:`DeadlineExceeded` for both the
  waiting caller and queued work a worker reaches too late;
* single-flight -- identical concurrent requests of any cacheable op
  execute exactly once and fan out; distinct ones run side by side;
* hot-swap reload -- in-process and foreign ingests move the serving
  version, the next process hydrates warm (it fits nothing and
  rehydrates no table), and in-flight work is never dropped.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time

import pytest

from repro.core.pipeline import Dialite
from repro.datalake import DataLake
from repro.datalake.fixtures import (
    covid_joinable_table,
    covid_query_table,
    covid_unionable_table,
)
from repro.datalake.indexer import LakeIndex
from repro.integration.alite import AliteFD
from repro.obs import metrics as obs_metrics
from repro.obs import trace as tracing
from repro.service import (
    DeadlineExceeded,
    LakeServer,
    LakeService,
    ServiceClient,
    ServiceClosed,
    ServiceError,
    ServiceOverloaded,
    encode_table,
    oracle_discover_payload,
)
from repro.service.protocol import _service_line
from repro.service.service import _table_payload
from repro.shard import ShardedLakeStore, open_any_store
from repro.store import LakeStore
from repro.table.table import Table

from deltas import deltas, values


def canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


def build_store(tmp_path, extra=()):
    lake = DataLake([covid_unionable_table(), covid_joinable_table(), *extra])
    store = LakeStore.create(tmp_path / "lake.store")
    store.ingest(lake)
    roster = Dialite(DataLake()).discoverers.components()
    LakeIndex.from_store(store, roster).save_to_store(store)
    return tmp_path / "lake.store"


@pytest.fixture
def store_path(tmp_path):
    return build_store(tmp_path)


@pytest.fixture
def service(store_path):
    svc = LakeService(
        store=store_path, workers=2, reload_check_interval=0.0
    )
    yield svc
    svc.close()


def oracle_integrate_payload(store_path, query, k=10, column=None):
    """The integrate payload a fresh pipeline at the store's current
    version serves (mirrors the service handler's canonicalization)."""
    pipeline = Dialite.open(store_path).fit()
    outcome = pipeline.discover(
        LakeService._service_query(query), k=k, query_column=column
    )
    result = pipeline.integrate(outcome)
    return {
        "integration_set": [t.name for t in outcome.integration_set[1:]],
        "table": _table_payload(result.to_display_table()),
    }


class TestBasics:
    def test_discover_matches_oracle_and_caches(self, store_path, service):
        query = covid_query_table()
        first = service.discover(query, k=5, query_column="City")
        oracle = oracle_discover_payload(
            Dialite.open(store_path).fit(), query, k=5, query_column="City"
        )
        assert canonical(first.payload) == canonical(oracle)
        assert first.lake_version == 1 and not first.cached

        again = service.discover(query, k=5, query_column="City")
        assert again.cached and canonical(again.payload) == canonical(first.payload)
        snapshot = service.stats_snapshot()
        assert snapshot["hits"] == 1 and snapshot["misses"] == 1

    def test_same_content_different_name_shares_cache_entry(self, service):
        query = covid_query_table()
        service.discover(query, k=5, query_column="City")
        renamed = query.with_name("another_caller_name")
        response = service.discover(renamed, k=5, query_column="City")
        assert response.cached

    def test_different_options_do_not_share_entries(self, service):
        query = covid_query_table()
        service.discover(query, k=5, query_column="City")
        assert not service.discover(query, k=3, query_column="City").cached
        assert not service.discover(query, k=5).cached

    def test_integrate_and_align(self, store_path, service):
        query = covid_query_table()
        response = service.integrate(query=query, k=5, query_column="City")
        oracle = oracle_integrate_payload(store_path, query, k=5, column="City")
        assert canonical(response.payload) == canonical(oracle)
        assert service.integrate(query=query, k=5, query_column="City").cached

        aligned = service.align([covid_query_table(), covid_joinable_table()])
        assert aligned.payload["num_ids"] >= 1
        assert any(".City" in ref for ref in aligned.payload["assignments"])

    def test_dialite_serve_wraps_pipeline(self):
        lake = DataLake([covid_unionable_table(), covid_joinable_table()])
        with Dialite(lake).fit().serve(workers=1) as svc:
            response = svc.discover(covid_query_table(), k=3, query_column="City")
            assert response.lake_version == 0  # storeless sessions serve v0
            assert not svc.reload_if_stale()
            with pytest.raises(ServiceError):
                svc.ingest([covid_query_table()])

    def test_unknown_op_and_closed_service(self, service):
        with pytest.raises(ServiceError):
            service.request("no_such_op", {})
        service.close()
        with pytest.raises(ServiceClosed):
            service.discover(covid_query_table(), k=3)

    def test_generic_request_path_accepts_list_discoverers(self, service):
        # The documented generic entry point may pass JSON-shaped params
        # (lists, not tuples); the cache key must normalize them.
        response = service.request(
            "discover",
            {"query": covid_query_table(), "k": 3, "column": "City",
             "discoverers": ["josie"]},
        )
        assert all(r["discoverer"] == "josie" for r in response.payload["results"])
        again = service.discover(
            covid_query_table(), k=3, query_column="City", discoverers=("josie",)
        )
        assert again.cached  # list and tuple spellings share one entry

    def test_custom_handler(self, service):
        service.add_handler(
            "echo", lambda gen, params: {"version": gen.version, **params}
        )
        response = service.request("echo", {"x": 1})
        assert response.payload == {"version": 1, "x": 1}
        assert not response.cached  # custom ops have no canonical key

    def test_latency_quantiles_reported(self, service):
        query = covid_query_table()
        for _ in range(3):
            service.discover(query, k=5, query_column="City")
        latency = service.stats_snapshot()["latency"]["discover"]
        assert latency["count"] == 3
        assert latency["p50_ms"] <= latency["p95_ms"] <= latency["max_ms"]


class TestVersioning:
    def test_in_process_ingest_swaps_warm_generation(self, store_path, service):
        query = covid_query_table()
        before = service.discover(query, k=5, query_column="City")
        report = service.ingest(
            [Table(["City", "Mayor"], [("Berlin", "A"), ("Boston", "B")], name="mayors")]
        )
        assert report["added"] == ["mayors"] and report["lake_version"] == 2
        assert service.version == 2

        after = service.discover(query, k=5, query_column="City")
        assert after.lake_version == 2 and not after.cached
        assert "mayors" in [r["table"] for r in after.payload["results"]]
        assert before.lake_version == 1  # old response keeps its stamp

        # The contract behind the ack: everything the reload fitted is on
        # disk at the served version, so the next process only hydrates.
        info = LakeStore.open(store_path).info()
        assert info["indexes_lake_version"] == info["lake_version"] == 2
        moved = deltas("store.stats_cache.rehydrates", "store.decode")
        index = Dialite.open(store_path).index
        assert index.fitted == {}
        assert moved() == {"store.stats_cache.rehydrates": 0, "store.decode": 0}

    def test_traced_ingest_fits_each_discoverer_once(self, service):
        """The plain reload is one ``open_index``: every roster member is
        fitted exactly once under ``service.reload`` and nothing that was
        just written is read back (the one hydrate finds no index at the
        new version)."""
        tracer = tracing.Tracer()
        with tracing.activate(tracer), tracer.span("test.ingest"):
            service.ingest([Table(["City"], [("Oslo",)], name="cities")])
        reload_span = tracer.root.child("service.reload")
        names = [child.name for child in reload_span.children]
        roster = service.pipeline.index.fitted
        assert set(roster) == {"santos", "lsh_ensemble", "josie"}
        for discoverer in roster:
            assert names.count(f"index.fit.{discoverer}") == 1
        assert names.count("index.hydrate") == 1
        assert reload_span.child("index.hydrate").counters["indexes"] == 0

    def test_foreign_ingest_detected_by_version_poll(self, store_path, service):
        query = covid_query_table()
        service.discover(query, k=5, query_column="City")
        # Another process's incremental ingest: a separate store handle.
        writer = LakeStore.open(store_path)
        writer.ingest(
            {"extra": Table(["City", "Zone"], [("Berlin", "EU")], name="extra")},
            prune=False,
        )
        assert service.reload_if_stale(force=True)
        response = service.discover(query, k=5, query_column="City")
        assert response.lake_version == 2 and not response.cached

    def test_reload_never_mutates_serving_generation_state(self, service):
        """The generation rebuild refits clone_unfitted() twins; fit-time
        KB synthesis must land on the twin's copied knowledge base, never
        the one the still-serving SANTOS instance reads concurrently."""
        import pickle

        old_santos = service.pipeline.discoverers.get("santos")
        kb_before = pickle.dumps(old_santos.kb)
        service.ingest(
            [Table(["City", "Landmark"], [("Berlin", "Gate"), ("Boston", "Harbor")],
                   name="landmarks")]
        )
        new_santos = service.pipeline.discoverers.get("santos")
        assert new_santos is not old_santos
        assert new_santos.kb is not old_santos.kb
        assert pickle.dumps(old_santos.kb) == kb_before, (
            "builder refit mutated the serving generation's knowledge base"
        )

    def test_cached_entries_are_version_scoped(self, service):
        query = covid_query_table()
        service.discover(query, k=5, query_column="City")
        service.ingest([Table(["City"], [("Oslo",)], name="cities")])
        assert not service.discover(query, k=5, query_column="City").cached
        assert service.discover(query, k=5, query_column="City").cached


_KB_VOCAB = [
    "Berlin", "Boston", "Paris", "Tokyo", "Lima",
    "Pfizer", "Moderna", "Sinovac", "Covaxin", "Sputnik V",
    "Germany", "Japan", "Peru", "France", "China",
]


def _kb_lake(seed: int) -> list[Table]:
    """Eight small tables over one city / vaccine / country vocabulary, so
    SANTOS's synthesized types cluster differently as tables arrive."""
    rng = random.Random(seed)
    tables = []
    for t in range(8):
        columns = ["Key"] + [f"c{i}" for i in range(rng.randint(1, 3))]
        rows = [
            tuple(rng.choice(_KB_VOCAB) for _ in columns)
            for _ in range(rng.randint(3, 8))
        ]
        tables.append(Table(columns, rows, name=f"t{t}"))
    return tables


def _kb_query(seed: int) -> Table:
    rng = random.Random(seed + 100)
    rows = [(rng.choice(_KB_VOCAB), rng.choice(_KB_VOCAB)) for _ in range(5)]
    return Table(["Key", "Other"], rows, name="q")


class TestReloadRefitsFromTheSeed:
    """A reload refits clones of the serving roster.  SANTOS's KB is a
    product of the lake it is fitted to, so a clone of a fitted SANTOS
    must synthesize from the seed KB, not on top of the previous
    version's synthesized types (seeds 5 and 6 of this lake served a
    different top-5 when it did)."""

    @pytest.mark.parametrize("seed", [5, 6])
    def test_served_answers_equal_a_fresh_store(self, tmp_path, seed):
        tables, query = _kb_lake(seed), _kb_query(seed)
        store = LakeStore.create(tmp_path / "served")
        store.ingest({t.name: t for t in tables[:6]})
        options = {"k": 5, "discoverers": ("santos",)}
        with LakeService(
            store=tmp_path / "served", workers=1, reload_check_interval=0.0
        ) as service:
            service.discover(query, **options)
            service.ingest([tables[6]])
            service.ingest([tables[7]])
            served = service.discover(query, **options)
        assert served.lake_version == 3
        fresh = LakeStore.create(tmp_path / "fresh")
        fresh.ingest({t.name: t for t in tables})
        oracle = oracle_discover_payload(Dialite.open(fresh.path).fit(), query, **options)
        assert canonical(served.payload) == canonical(oracle)
        # What the reload persisted is what the next process serves.
        reopened = Dialite.open(tmp_path / "served").fit()
        assert reopened.index.fitted == {}
        assert canonical(oracle_discover_payload(reopened, query, **options)) == canonical(
            oracle
        )

    @pytest.mark.parametrize("seed", [5, 6])
    def test_an_unfitted_clone_refits_like_a_fresh_instance(self, seed):
        import pickle

        from repro.discovery import SantosUnionSearch

        tables = _kb_lake(seed)
        before = {t.name: t for t in tables[:6]}
        after = {t.name: t for t in tables}
        serving = SantosUnionSearch().fit(before)
        refit = serving.clone_unfitted().fit(after)
        fresh = SantosUnionSearch().fit(after)
        assert pickle.dumps(refit.kb) == pickle.dumps(fresh.kb)
        assert refit._annotations == fresh._annotations
        assert pickle.dumps(refit) == pickle.dumps(fresh)


def _wide_tables(tag: int) -> list[Table]:
    """Two joinable 60-row tables whose *cells* are the same for every
    tag (so nothing value-keyed accretes between calls) under names that
    differ (so every tag is its own cache entry)."""
    left = [(f"key{j}", f"city {j}", f"region {j % 7}") for j in range(60)]
    right = [(f"key{j}", f"vaccine {j % 5}", j * 3) for j in range(60)]
    return [
        Table(["Key", "City", "Region"], left, name=f"left{tag}"),
        Table(["Key", "Vaccine", "Doses"], right, name=f"right{tag}"),
    ]


class _CountingJson:
    """Stands in for the ``json`` module inside the ``repro.service``
    modules and counts what goes through it."""

    def __init__(self):
        self.dumps_calls = 0
        self.loads_calls = 0

    def dumps(self, *args, **kwargs):
        self.dumps_calls += 1
        return json.dumps(*args, **kwargs)

    def loads(self, *args, **kwargs):
        self.loads_calls += 1
        return json.loads(*args, **kwargs)


class TestEncodeOnce:
    """The cached, fanned-out and written unit is the payload's canonical
    JSON bytes: encoded once per computed payload, never on a hit."""

    def test_a_wire_hit_neither_encodes_nor_decodes(self, service, monkeypatch):
        from repro.service import cache, protocol
        from repro.service import service as service_module

        server = LakeServer(service)
        document = {
            "op": "integrate",
            "query": encode_table(covid_query_table()),
            "k": 5,
            "column": "City",
        }
        counting = _CountingJson()
        for module in (cache, protocol, service_module):
            monkeypatch.setattr(module, "json", counting)
        miss = server.dispatch(document)
        assert (counting.dumps_calls, counting.loads_calls) == (1, 0)
        hit = server.dispatch(document)
        assert (counting.dumps_calls, counting.loads_calls) == (1, 0)
        assert hit == miss.replace(b'"cached":false', b'"cached":true', 1)
        # In process, a hit decodes on first access only, a miss never.
        response = service.integrate(query=covid_query_table(), k=5, query_column="City")
        assert response.cached and counting.loads_calls == 0
        assert response.payload is response.payload
        assert (counting.dumps_calls, counting.loads_calls) == (1, 1)

    def test_cache_memory_is_the_replies_own_bytes(self, service):
        import gc
        import tracemalloc

        def integrate(tag: int) -> int:
            return len(service.integrate(tables=_wide_tables(tag), align=True).wire)

        tracemalloc.start()
        try:
            # What the last few requests leave referenced (their tables'
            # stats, the flight-recorder ring) is the same before and after.
            warm = [integrate(tag) for tag in range(8)]
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            sizes = [integrate(tag) for tag in range(8, 32)]
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        gauges = service.metrics_snapshot()["gauges"]
        assert gauges["service.cache.entries"] == 32
        assert gauges["service.cache.bytes"] == sum(warm) + sum(sizes)
        assert min(sizes) > 4000  # replies big enough for the bound to mean something
        # As an object graph an entry cost ~6x its wire size.
        assert grown <= 2 * sum(sizes), (grown, sum(sizes))

    def test_unserialisable_payload_is_a_typed_error_line(self, store_path):
        import socket

        svc = LakeService(store=store_path, workers=1)
        svc.add_handler("align", lambda gen, params: {"ids": {1, 2}}, replace=True)
        server = LakeServer(svc)
        server.start()
        try:
            align = {"op": "align", "tables": [encode_table(covid_query_table())]}
            with socket.create_connection(server.address, timeout=10) as conn:
                reader = conn.makefile("rb")
                conn.sendall(json.dumps(align).encode("utf-8") + b"\n")
                failed = json.loads(reader.readline())
                # ... and the connection is still there for the next request.
                conn.sendall(b'{"op":"ping"}\n')
                pong = json.loads(reader.readline())
            assert failed["ok"] is False and failed["kind"] == "TypeError"
            assert "set" in failed["error"]
            assert pong == {"ok": True, "op": "ping", "payload": {"pong": True}}
            # The client sees one typed failure, not retries on a dead socket.
            with pytest.raises(ServiceError, match="not JSON serializable"):
                ServiceClient(server.address).align([covid_query_table()])
            assert svc.stats_snapshot()["errors"] == 2
        finally:
            server.close()

    def test_cache_gauges_reach_the_metrics_ops(self, service):
        from repro.obs.export import parse_prometheus_text

        server = LakeServer(service)
        first = service.discover(covid_query_table(), k=3)
        second = service.align([covid_query_table(), covid_joinable_table()])
        held = len(first.wire) + len(second.wire)
        metrics = json.loads(server.dispatch({"op": "metrics"}))["payload"]
        assert metrics["gauges"]["service.cache.entries"] == 2
        assert metrics["gauges"]["service.cache.bytes"] == held
        text = json.loads(server.dispatch({"op": "metrics_text"}))["payload"]["text"]
        assert parse_prometheus_text(text)["repro_service_cache_bytes"] == held


class TestWireRepliesAreLayoutBlind:
    """``health`` / ``stats`` keep their keys whichever layout the store
    has: the service asks the store and the index, never which kind."""

    HEALTH = {
        "status", "lake_version", "lake_epoch", "inflight", "workers",
        "degraded_shards", "worker_respawns", "slo",
    }
    STATS = {
        "requests", "hits", "misses", "errors", "rejected_overload",
        "rejected_deadline", "batches", "batched_requests", "reloads",
        "ingests", "degraded",
        "queue_depth", "latency", "lake_version", "cache_entries",
        "cache_evictions", "cache_expirations", "workers",
    }

    @pytest.mark.parametrize("shards", [None, 2])
    def test_keys(self, tmp_path, shards):
        respawns = values("shard.worker.respawns")["shard.worker.respawns"]
        path = tmp_path / "lake"
        if shards is None:
            store = LakeStore.create(path)
        else:
            store = ShardedLakeStore.create(path, num_shards=shards)
        store.ingest(DataLake([covid_unionable_table(), covid_joinable_table()]))
        server = LakeServer(LakeService(store=path, workers=1))
        server.start()
        try:
            client = ServiceClient(server.address)
            assert client.discover(covid_query_table(), k=3)["payload"]["results"]
            health, stats = client.health(), client.stats()
        finally:
            server.close()
        sharded = shards is not None
        assert health.keys() == self.HEALTH | ({"shards"} if sharded else set())
        assert stats.keys() == self.STATS | (
            {"num_shards", "shard_versions"} if sharded else set()
        )
        if sharded:
            assert stats["num_shards"] == shards == len(health["shards"])
            assert stats["shard_versions"] == [
                entry["version"] for entry in health["shards"]
            ]
        assert health["degraded_shards"] == []
        # The process's respawn count, which this test did not move.
        assert health["worker_respawns"] == (respawns if sharded else 0)
        # What the service fitted to start is what the next process hydrates.
        hydrated = open_any_store(path).open_index()
        hydrated.close()
        assert hydrated.fitted == {}


class TestOverloadAndDeadlines:
    @pytest.fixture
    def blocked_service(self, store_path):
        svc = LakeService(
            store=store_path, workers=1, queue_depth=2,
            reload_check_interval=0.0,
        )
        gate = threading.Event()
        svc.add_handler("block", lambda gen, params: {"ok": gate.wait(10)})
        yield svc, gate
        gate.set()
        svc.close()

    def test_overload_rejection(self, blocked_service):
        svc, gate = blocked_service
        started, errors = [], []

        def submit():
            started.append(True)
            try:
                svc.request("block", {})
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        threads = [threading.Thread(target=submit) for _ in range(2)]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 5
        while svc.inflight < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        with pytest.raises(ServiceOverloaded):
            svc.request("block", {})
        assert svc.stats_snapshot()["rejected_overload"] == 1
        gate.set()
        for thread in threads:
            thread.join(timeout=5)
        assert not errors

    def test_caller_deadline(self, blocked_service):
        svc, gate = blocked_service
        occupier = threading.Thread(target=lambda: svc.request("block", {}))
        occupier.start()
        deadline = time.monotonic() + 5
        while svc.inflight < 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        with pytest.raises(DeadlineExceeded):
            svc.request("block", {}, deadline=0.05)
        assert svc.stats_snapshot()["rejected_deadline"] >= 1
        gate.set()
        occupier.join(timeout=5)


class _Gated:
    """Stands in for a service's *op* handler: counts executions, names
    the pool threads they ran on, and holds each one at a gate (open it
    with ``gate.set()``) before handing over to *inner* (default: the
    handler it replaced)."""

    def __init__(self, svc, op, inner=None):
        self.inner = inner if inner is not None else svc._handlers[op]
        self.threads: list[str] = []
        self.entered = threading.Event()
        self.gate = threading.Event()
        self._lock = threading.Lock()
        svc.add_handler(op, self, replace=True)

    @property
    def calls(self) -> int:
        return len(self.threads)

    def __call__(self, gen, params):
        with self._lock:
            self.threads.append(threading.current_thread().name)
        self.entered.set()
        assert self.gate.wait(10), "gate never opened"
        return self.inner(gen, params)


class _Call(threading.Thread):
    """One caller on its own thread; ``outcome`` is what it returned or
    the exception it raised."""

    def __init__(self, fn, *args, **kwargs):
        super().__init__()
        self.fn, self.args, self.kwargs = fn, args, kwargs
        self.outcome = None
        self.start()

    def run(self):
        try:
            self.outcome = self.fn(*self.args, **self.kwargs)
        except Exception as error:  # noqa: BLE001 - the test inspects it
            self.outcome = error

    def result(self):
        self.join(timeout=10)
        assert not self.is_alive(), "caller hung"
        return self.outcome


def _wait_until(predicate, what):
    deadline = time.monotonic() + 5
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.005)


def _numbered_query(i: int) -> Table:
    return Table(["City", "Round"], [("Berlin", i), ("Boston", i)], name=f"query_{i}")


def _span_names(node) -> list[str]:
    return [node["name"]] + [
        name for child in node.get("children", []) for name in _span_names(child)
    ]


class TestSingleFlight:
    """A request that misses the cache joins the in-flight execution of
    its ``(lake_version, key)`` or leads a new one on the pool."""

    def followers(self, service, gated, lead, join, n):
        """*lead* on one thread, held mid-execution at the gate, then *n*
        callers of *join* queued up behind it as admitted requests."""
        leader = _Call(lead)
        assert gated.entered.wait(5)
        joined = [_Call(join) for _ in range(n)]
        _wait_until(lambda: service.inflight == 1 + n, "followers to be admitted")
        return leader, joined

    def test_constructing_a_service_starts_no_thread(self, store_path):
        before = set(threading.enumerate())
        svc = LakeService(store=store_path, workers=3)
        try:
            assert set(threading.enumerate()) == before
            for i in range(6):
                svc.discover(_numbered_query(i), k=2)
            started = {t.name for t in set(threading.enumerate()) - before}
            assert started and len(started) <= 3
            assert all(name.startswith("repro-service_") for name in started)
        finally:
            svc.close()

    @pytest.mark.parametrize("op", ["discover", "integrate"])
    def test_identical_concurrent_requests_run_exactly_one_execution(
        self, store_path, service, op
    ):
        query = covid_query_table()
        if op == "discover":
            ask = lambda: service.discover(query, k=5, query_column="City")  # noqa: E731
            oracle = oracle_discover_payload(
                Dialite.open(store_path).fit(), query, k=5, query_column="City"
            )
        else:
            ask = lambda: service.integrate(query=query, k=5, query_column="City")  # noqa: E731
            oracle = oracle_integrate_payload(store_path, query, k=5, column="City")
        gated = _Gated(service, op)
        retrievals = deltas("engine.retrievals")
        leader, joined = self.followers(service, gated, ask, ask, 5)
        gated.gate.set()
        responses = [call.result() for call in (leader, *joined)]
        assert all(canonical(r.payload) == canonical(oracle) for r in responses)
        assert len({r.wire for r in responses}) == 1 and not any(r.cached for r in responses)
        assert gated.calls == 1
        # The engine's retrieval counter is the ground truth: each
        # discoverer of the roster retrieved once.
        roster = service.pipeline.index.discoverers
        assert retrievals() == {"engine.retrievals": len(roster)}
        snapshot = service.stats_snapshot()
        assert (snapshot["batches"], snapshot["batched_requests"]) == (1, 6)
        assert (snapshot["misses"], snapshot["hits"]) == (6, 0)
        assert snapshot["latency"][op]["count"] == 6 and service.inflight == 0
        assert ask().cached and gated.calls == 1

    def test_unsynchronised_identical_requests_never_execute_twice(self, service):
        """No gate: whether a caller joins the flight or arrives after it
        landed and hits the cache, nobody recomputes."""
        gated = _Gated(service, "discover")
        gated.gate.set()
        calls = [
            _Call(service.discover, covid_query_table(), k=5, query_column="City")
            for _ in range(8)
        ]
        assert len({call.result().wire for call in calls}) == 1
        assert gated.calls == 1

    def test_distinct_queries_run_side_by_side_with_defaults(self, store_path):
        """Bare ``{"query": ...}`` requests get the typed path's defaults,
        and four distinct ones are on four pool threads at once: each
        handler waits at the barrier for the other three."""
        svc = LakeService(store=store_path, workers=4, reload_check_interval=0.0)
        try:
            barrier = threading.Barrier(4)
            inner = svc._handlers["discover"]

            def meet_then_discover(gen, params):
                barrier.wait(timeout=5)
                return inner(gen, params)

            gated = _Gated(svc, "discover", inner=meet_then_discover)
            gated.gate.set()
            queries = [_numbered_query(i) for i in range(4)]
            calls = [_Call(svc.request, "discover", {"query": q}) for q in queries]
            oracle_pipeline = Dialite.open(store_path).fit()
            for query, call in zip(queries, calls):
                assert canonical(call.result().payload) == canonical(
                    oracle_discover_payload(oracle_pipeline, query)
                )
            assert len(set(gated.threads)) == 4
            snapshot = svc.stats_snapshot()
            assert (snapshot["batches"], snapshot["batched_requests"]) == (0, 0)
        finally:
            svc.close()

    def test_a_followers_deadline_lapses_without_cancelling_the_flight(self, service):
        query = covid_query_table()
        gated = _Gated(service, "discover")
        leader, [follower] = self.followers(
            service, gated,
            lambda: service.discover(query, k=3),
            lambda: service.discover(query, k=3, deadline=0.05),
            1,
        )
        assert isinstance(follower.result(), DeadlineExceeded)
        assert service.stats_snapshot()["rejected_deadline"] == 1
        assert service.inflight == 2  # its slot is held until the work is dealt with
        gated.gate.set()
        assert leader.result().payload["results"]
        assert service.inflight == 0 and gated.calls == 1
        assert service.discover(query, k=3).cached

    def test_a_flight_nobody_waits_for_is_skipped(self, store_path):
        svc = LakeService(store=store_path, workers=1, reload_check_interval=0.0)
        try:
            blocker = _Gated(svc, "align")
            discovers = _Gated(svc, "discover")
            discovers.gate.set()
            occupier = _Call(svc.align, [covid_query_table(), covid_joinable_table()])
            assert blocker.entered.wait(5)
            with pytest.raises(DeadlineExceeded):
                svc.discover(covid_query_table(), k=3, deadline=0.05)
            blocker.gate.set()
            assert occupier.result().payload["num_ids"] >= 1
            _wait_until(lambda: svc.inflight == 0, "the abandoned flight to land")
            assert discovers.calls == 0
            assert svc.stats_snapshot()["rejected_deadline"] == 1
            # Off the table: the next identical request leads a new flight.
            assert not svc.discover(covid_query_table(), k=3).cached
            assert discovers.calls == 1
        finally:
            svc.close()

    def test_a_leaders_error_reaches_every_follower(self, service):
        def boom(gen, params):
            raise ValueError("no such column")

        gated = _Gated(service, "discover", inner=boom)
        ask = lambda: service.discover(covid_query_table(), k=3)  # noqa: E731
        leader, joined = self.followers(service, gated, ask, ask, 3)
        gated.gate.set()
        errors = [call.result() for call in (leader, *joined)]
        assert all(type(e) is ValueError and str(e) == "no such column" for e in errors)
        assert gated.calls == 1 and len(service.cache) == 0
        snapshot = service.stats_snapshot()
        assert snapshot["errors"] == 4 and service.inflight == 0
        # The failed flight left the table: the next caller leads afresh.
        assert isinstance(_Call(ask).result(), ValueError) and gated.calls == 2

    def test_followers_of_a_degraded_flight_get_the_annotation_uncached(self, service):
        inner = service._handlers["discover"]
        gated = _Gated(
            service, "discover",
            inner=lambda gen, params: {**inner(gen, params), "degraded_shards": [1]},
        )
        ask = lambda: service.discover(covid_query_table(), k=3)  # noqa: E731
        leader, joined = self.followers(service, gated, ask, ask, 2)
        gated.gate.set()
        for call in (leader, *joined):
            assert call.result().payload["degraded_shards"] == [1]
        assert gated.calls == 1 and service.stats_snapshot()["degraded"] == 1
        assert len(service.cache) == 0
        assert not ask().cached and gated.calls == 2

    def test_a_request_after_a_reload_never_joins_the_older_flight(self, service):
        query = covid_query_table()
        gated = _Gated(service, "discover")
        old = _Call(service.discover, query, k=5, query_column="City")
        assert gated.entered.wait(5)
        service.ingest(
            [Table(["City", "Mayor"], [("Berlin", "A"), ("Boston", "B")], name="mayors")]
        )
        new = _Call(service.discover, query, k=5, query_column="City")
        _wait_until(lambda: gated.calls == 2, "the v2 request to lead its own flight")
        gated.gate.set()
        old, new = old.result(), new.result()
        assert (old.lake_version, new.lake_version) == (1, 2)
        assert "mayors" in [r["table"] for r in new.payload["results"]]
        assert "mayors" not in [r["table"] for r in old.payload["results"]]
        assert service.stats_snapshot()["batches"] == 0

    def test_close_refuses_queued_flights_and_does_not_hang(self, store_path):
        svc = LakeService(store=store_path, workers=1, reload_check_interval=0.0)
        gated = _Gated(svc, "discover")
        running = _Call(svc.discover, _numbered_query(0), k=2)
        assert gated.entered.wait(5)
        queued = [_Call(svc.discover, _numbered_query(1), k=2) for _ in range(2)]
        queued.append(_Call(svc.discover, _numbered_query(2), k=2))
        _wait_until(lambda: svc.inflight == 4, "flights to queue behind the worker")
        closer = _Call(svc.close)
        # Leader and follower alike are refused while the pool is still busy.
        assert all(isinstance(call.result(), ServiceClosed) for call in queued)
        assert closer.is_alive() and gated.calls == 1
        gated.gate.set()
        assert running.result().payload["results"]  # what was running finishes
        assert closer.result() is None
        assert svc.inflight == 0
        with pytest.raises(ServiceClosed):
            svc.discover(_numbered_query(3), k=2)

    def test_a_traced_follower_shows_its_wait_a_traced_leader_is_unchanged(self, service):
        gated = _Gated(service, "discover")
        ask = lambda: service.discover(covid_query_table(), k=2, trace=True)  # noqa: E731
        leader, [follower] = self.followers(service, gated, ask, ask, 1)
        gated.gate.set()
        led, followed = _span_names(leader.result().trace), _span_names(follower.result().trace)
        assert led[:4] == [
            "service.discover", "service.cache", "service.queue_wait", "service.execute",
        ]
        assert "service.flight_wait" not in led
        assert followed == ["service.discover", "service.cache", "service.flight_wait"]
        wait = follower.result().trace["children"][1]
        assert wait["wall_ms"] > 0
        assert leader.result().wire == follower.result().wire


class TestConcurrencyStress:
    """The satellite's threaded stress: N workers, mixed discover /
    integrate / one mid-run ingest; every response must match the
    sequential oracle of the exact version it is stamped with."""

    def test_version_consistent_byte_identical_responses(self, store_path):
        queries = [
            covid_query_table(),
            Table(["City", "Death Rate"], [("Berlin", 147), ("Barcelona", 275)],
                  name="stress_q1"),
            Table(["Country", "City"], [("Spain", "Barcelona"), ("USA", "Boston")],
                  name="stress_q2"),
        ]
        plant = Table(
            ["City", "Total Cases"], [("Berlin", "2M"), ("Manchester", "0.9M")],
            name="stress_plant",
        )
        svc = LakeService(
            store=store_path, workers=4,
            reload_check_interval=0.01,
        )
        try:
            results = []
            errors = []
            lock = threading.Lock()
            ingested = threading.Event()

            def clients(worker_id):
                try:
                    for round_number in range(6):
                        query = queries[(worker_id + round_number) % len(queries)]
                        if worker_id == 0 and round_number == 3:
                            svc.ingest([plant])
                            ingested.set()
                        if worker_id % 2 == 0:
                            response = svc.discover(query, k=4, query_column="City")
                            kind = "discover"
                        else:
                            response = svc.integrate(
                                query=query, k=4, query_column="City"
                            )
                            kind = "integrate"
                        with lock:
                            results.append((kind, query.name, response))
                except Exception as error:  # noqa: BLE001
                    with lock:
                        errors.append(error)

            threads = [
                threading.Thread(target=clients, args=(i,)) for i in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not errors
            assert ingested.is_set()
            versions = {response.lake_version for _, _, response in results}
            assert versions == {1, 2}, "both generations must have served"

            # Sequential oracles, one pipeline per observed version: the
            # v1 oracle runs against a store rebuilt without the plant.
            oracle_payloads = {}
            v1_store = build_store(store_path.parent / "oracle_v1")
            v1_pipeline = Dialite.open(v1_store).fit()
            v2_pipeline = Dialite.open(store_path).fit()
            for version, pipeline in ((1, v1_pipeline), (2, v2_pipeline)):
                for query in queries:
                    oracle_payloads[(version, "discover", query.name)] = canonical(
                        oracle_discover_payload(
                            pipeline, query, k=4, query_column="City"
                        )
                    )
                    outcome = pipeline.discover(
                        LakeService._service_query(query), k=4, query_column="City"
                    )
                    integrated = pipeline.integrate(outcome)
                    oracle_payloads[(version, "integrate", query.name)] = canonical({
                        "integration_set": [
                            t.name for t in outcome.integration_set[1:]
                        ],
                        "table": _table_payload(integrated.to_display_table()),
                    })

            for kind, query_name, response in results:
                expected = oracle_payloads[(response.lake_version, kind, query_name)]
                assert canonical(response.payload) == expected, (
                    f"stale/divergent {kind} response for {query_name} "
                    f"at v{response.lake_version}"
                )
            assert svc.stats_snapshot()["errors"] == 0
        finally:
            svc.close()


def find_span(node: dict, name: str) -> dict | None:
    """The first node called *name* in a reply's span-tree dict."""
    if node["name"] == name:
        return node
    for child in node.get("children", []):
        hit = find_span(child, name)
        if hit is not None:
            return hit
    return None


class TestServiceModeBounds:
    def test_fd_integrator_accretes_nothing(self, store_path, service):
        """A Full Disjunction call owns its interner: the ``domain`` on a
        traced reply's ``integrate.fd`` span is what a fresh ``AliteFD``
        reports for the same aligned set under a local tracer, however
        many *different* fragments the service integrated before it, and
        a reload changes nothing -- the one registered integrator carries
        no state across requests or generations."""
        cities = ("Berlin", "Barcelona", "Boston", "Toronto")

        def fragment(i: int) -> Table:
            rows = [(city, f"note-{i}-{j}") for j, city in enumerate(cities)]
            return Table(["City", f"Note{i}"], rows, name=f"fragment{i}")

        def assert_domains_are_per_call(indices) -> None:
            oracle = Dialite.open(store_path).fit()
            for i in indices:
                reply = service.integrate(
                    query=fragment(i), k=5, query_column="City", trace=True
                )
                assert not reply.cached
                outcome = oracle.discover(
                    LakeService._service_query(fragment(i)), k=5, query_column="City"
                )
                tables = outcome.integration_set
                aligned = oracle.aligner.align(tables).apply(tables)
                tracer = tracing.Tracer()
                with tracing.activate(tracer):
                    AliteFD().integrate(aligned)
                served = find_span(reply.trace, "integrate.fd")["counters"]
                assert served == tracer.root.counters, (i, served)
            assert vars(service.pipeline.integrators.get("alite_fd")) == {}

        assert_domains_are_per_call(range(12))
        service.ingest(
            [Table(["City", "Mayor"], [("Berlin", "A"), ("Boston", "B")], name="mayors")]
        )
        assert service.version == 2
        assert_domains_are_per_call(range(12, 24))


class TestServerLifecycle:
    def test_close_without_serving_does_not_hang(self, store_path):
        from repro.service import LakeServer

        svc = LakeService(store=store_path, workers=1)
        server = LakeServer(svc, port=0)
        closer = threading.Thread(target=server.close)
        closer.start()
        closer.join(timeout=5)
        assert not closer.is_alive(), "close() on a never-served LakeServer hung"
        assert svc._closed

    def test_concurrent_closes_both_exit_clean(self, store_path):
        """The shutdown op's closer thread and run()'s finally-close both
        reach close(); neither may raise, whoever unlinks the beacon."""
        from repro.service import LakeServer

        svc = LakeService(store=store_path, workers=1)
        server = LakeServer(svc, port=0)
        server.start()
        assert (store_path / "service.json").exists()
        barrier = threading.Barrier(2)
        errors: list[BaseException] = []

        def close():
            barrier.wait(timeout=5)
            try:
                server.close()
            except BaseException as error:  # noqa: BLE001 - the assertion below reports it
                errors.append(error)

        closers = [threading.Thread(target=close) for _ in range(2)]
        for closer in closers:
            closer.start()
        for closer in closers:
            closer.join(timeout=10)
        assert not any(closer.is_alive() for closer in closers)
        assert errors == []
        assert not (store_path / "service.json").exists()
        assert svc._closed

    def test_close_after_the_beacon_was_removed_externally(self, store_path, monkeypatch):
        from repro.service import LakeServer

        svc = LakeService(store=store_path, workers=1)
        server = LakeServer(svc, port=0)
        server.start()
        beacon = store_path / "service.json"
        beacon.unlink()
        # What the loser of a close/close race sees: the beacon was still
        # there when it looked, and gone when it came to unlink it.
        exists = type(beacon).exists
        monkeypatch.setattr(
            type(beacon), "exists", lambda path: path == beacon or exists(path)
        )
        server.close()
        assert svc._closed


class TestObservability:
    """ISSUE 7: tracing + metrics threaded through the serving layer."""

    def test_stats_snapshot_shape_unchanged(self, service):
        service.discover(covid_query_table(), k=2)
        service.discover(covid_query_table(), k=2)
        snapshot = service.stats_snapshot()
        for key in (
            "requests", "hits", "misses", "errors", "rejected_overload",
            "rejected_deadline", "batches", "batched_requests", "reloads",
            "ingests", "queue_depth", "latency",
        ):
            assert key in snapshot, key
        assert snapshot["requests"] == 2
        assert snapshot["hits"] == 1 and snapshot["misses"] == 1
        discover_latency = snapshot["latency"]["discover"]
        assert set(discover_latency) == {"count", "p50_ms", "p95_ms", "max_ms"}
        assert discover_latency["count"] == 2
        assert discover_latency["p50_ms"] <= discover_latency["p95_ms"]
        assert discover_latency["p95_ms"] <= discover_latency["max_ms"] + 1e-9

    def test_traced_discover_returns_span_tree(self, service):
        response = service.discover(covid_query_table(), k=2, trace=True)
        assert response.trace is not None
        tree = response.trace
        assert tree["name"] == "service.discover"

        def names(node):
            yield node["name"]
            for child in node.get("children", []):
                yield from names(child)

        flat = list(names(tree))
        # Admission -> cache -> queue -> execute -> engine -> discoverers.
        for expected in (
            "service.cache", "service.queue_wait", "service.execute",
            "pipeline.discover", "discover.santos", "discover.candidates",
            "discover.score",
        ):
            assert expected in flat, (expected, flat)
        # The span tree is the only thing a traced reply line adds.
        envelope = {"ok", "op", "lake_version", "cached", "payload"}
        assert set(json.loads(_service_line(response))) == envelope | {"trace"}
        # The untraced twin is unaffected (and serveable from cache).
        untraced = service.discover(covid_query_table(), k=2)
        assert untraced.trace is None
        assert set(json.loads(_service_line(untraced))) == envelope

    def test_traced_response_not_cached_with_trace(self, service):
        first = service.discover(covid_query_table(), k=2, trace=True)
        second = service.discover(covid_query_table(), k=2)
        assert second.cached and second.trace is None
        assert canonical(first.payload) == canonical(second.payload)

    def test_trace_sink_writes_jsonl(self, store_path, tmp_path):
        sink = tmp_path / "traces.jsonl"
        svc = LakeService(
            store=store_path, workers=1, trace_path=sink
        )
        try:
            svc.discover(covid_query_table(), k=2)
            svc.discover(covid_query_table(), k=2)
        finally:
            svc.close()
        lines = sink.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        for line in lines:
            document = json.loads(line)
            assert document["name"] == "service.discover"
            assert "wall_ms" in document

    def test_metrics_snapshot_merges_service_and_global(self, service):
        service.discover(covid_query_table(), k=2)
        snapshot = service.metrics_snapshot()
        assert "counters" in snapshot and "histograms" in snapshot
        assert snapshot["counters"]["service.requests"] >= 1
        latency = snapshot["histograms"]["service.latency.discover"]
        assert latency["count"] >= 1

    def test_metrics_wire_op(self, store_path):
        from repro.service import LakeServer, ServiceClient

        svc = LakeService(store=store_path, workers=1)
        server = LakeServer(svc, port=0)
        server.start()
        try:
            client = ServiceClient(server.address)
            client.discover(covid_query_table(), k=2)
            payload = client.metrics()
            assert payload["counters"]["service.requests"] >= 1
            traced = client.discover(covid_query_table(), k=2, trace=True)
            # Distributed propagation: the wire client owns the root span
            # and the server's tree grafts under it, stamped with the id
            # the client minted.
            tree = traced["trace"]
            assert tree["name"] == "client.discover"
            assert tree["trace_id"]
            child_names = [child["name"] for child in tree["children"]]
            assert "client.connect" in child_names
            assert "client.serialize" in child_names
            assert "service.discover" in child_names
        finally:
            server.close()


class TestTelemetry:
    """ISSUE 10: the production telemetry plane around the service."""

    def test_trace_sink_size_rotation_keeps_n(self, store_path, tmp_path):
        """trace_path_max_bytes=1 forces a rotation before every append,
        so five requests through keep=2 leave exactly the live sink plus
        two backups holding the three newest trees."""
        sink_dir = tmp_path / "obs"
        sink_dir.mkdir()
        sink = sink_dir / "traces.jsonl"
        svc = LakeService(
            store=store_path, workers=1,
            trace_path=sink, trace_path_max_bytes=1, trace_path_keep=2,
        )
        try:
            for _ in range(5):
                svc.discover(covid_query_table(), k=2)
        finally:
            svc.close()
        names = sorted(p.name for p in sink_dir.iterdir())
        assert names == ["traces.jsonl", "traces.jsonl.1", "traces.jsonl.2"]
        for name in names:
            [line] = (sink_dir / name).read_text(encoding="utf-8").splitlines()
            document = json.loads(line)
            assert document["name"] == "service.discover"
            assert document["trace_id"]

    def test_trace_sink_unbounded_by_default(self, store_path, tmp_path):
        sink_dir = tmp_path / "obs"
        sink_dir.mkdir()
        sink = sink_dir / "traces.jsonl"
        svc = LakeService(
            store=store_path, workers=1, trace_path=sink
        )
        try:
            for _ in range(3):
                svc.discover(covid_query_table(), k=2)
        finally:
            svc.close()
        assert sorted(p.name for p in sink_dir.iterdir()) == ["traces.jsonl"]
        assert len(sink.read_text(encoding="utf-8").splitlines()) == 3

    def test_health_snapshot_epoch_and_slo(self, service):
        before = service.health_snapshot()
        assert before["status"] == "ok"
        assert before["lake_epoch"] == 1
        slo = before["slo"]
        assert slo["status"] == "ok" and slo["firing"] == []
        assert {"availability", "latency_p99", "degraded_rate"} <= set(
            slo["objectives"]
        )
        service.ingest([Table(["City"], [("Oslo",)], name="epoch_bump")])
        after = service.health_snapshot()
        assert after["lake_version"] == 2
        assert after["lake_epoch"] == 2  # every generation swap bumps it

    def test_slo_degrades_health_on_error_burn(self, store_path):
        svc = LakeService(
            store=store_path, workers=1,
            reload_check_interval=0.0,
        )
        try:
            svc.add_handler("boom", lambda gen, params: 1 / 0)
            for _ in range(8):
                with pytest.raises(Exception):
                    svc.request("boom", {})
            health = svc.health_snapshot()
            assert health["status"] == "degraded"
            firing = {f["objective"] for f in health["slo"]["firing"]}
            assert "availability" in firing
        finally:
            svc.close()

    def test_postmortem_on_error(self, store_path, tmp_path):
        sink = tmp_path / "postmortem.jsonl"
        svc = LakeService(
            store=store_path, workers=1,
            reload_check_interval=0.0, postmortem_path=sink,
        )
        try:
            svc.add_handler("boom", lambda gen, params: 1 / 0)
            svc.discover(covid_query_table(), k=2)  # healthy ring context
            with pytest.raises(Exception):
                svc.request("boom", {})
        finally:
            svc.close()
        [doc] = [json.loads(l) for l in sink.read_text(encoding="utf-8").splitlines()]
        assert doc["kind"] == "postmortem" and doc["reason"] == "error"
        assert doc["summary"]["op"] == "boom"
        assert doc["summary"]["error"] == "ZeroDivisionError"
        assert doc["trace"], "postmortem must carry the tripping span tree"
        assert doc["trace"]["trace_id"] == doc["trace_id"]
        assert [entry["op"] for entry in doc["ring"]] == ["discover"]
        assert svc.recorder.postmortem_count == 1

    def test_postmortem_on_deadline(self, store_path, tmp_path):
        sink = tmp_path / "postmortem.jsonl"
        svc = LakeService(
            store=store_path, workers=1, queue_depth=4,
            reload_check_interval=0.0, postmortem_path=sink,
        )
        gate = threading.Event()
        try:
            svc.add_handler("block", lambda gen, params: {"ok": gate.wait(10)})
            occupier = threading.Thread(target=lambda: svc.request("block", {}))
            occupier.start()
            deadline = time.monotonic() + 5
            while svc.inflight < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            with pytest.raises(DeadlineExceeded):
                svc.request("block", {}, deadline=0.05)
            gate.set()
            occupier.join(timeout=5)
        finally:
            gate.set()
            svc.close()
        docs = [json.loads(l) for l in sink.read_text(encoding="utf-8").splitlines()]
        assert any(doc["reason"] == "deadline" for doc in docs)

    def test_latency_threshold_trips_recorder(self, store_path, tmp_path):
        sink = tmp_path / "postmortem.jsonl"
        svc = LakeService(
            store=store_path, workers=1,
            reload_check_interval=0.0, postmortem_path=sink,
            latency_threshold_ms=0.0,  # everything is "slow": always trips
        )
        try:
            svc.discover(covid_query_table(), k=2)
        finally:
            svc.close()
        [doc] = [json.loads(l) for l in sink.read_text(encoding="utf-8").splitlines()]
        assert doc["reason"] == "latency"
        assert doc["summary"]["latency_ms"] >= 0.0

    def test_exporter_flushes_on_close(self, store_path, tmp_path):
        sink = tmp_path / "telemetry.jsonl"
        svc = LakeService(
            store=store_path, workers=1,
            reload_check_interval=0.0,
            export_path=sink, export_interval_s=3600.0,  # only the close flush
        )
        try:
            svc.discover(covid_query_table(), k=2, trace=True)
            svc.discover(covid_query_table(), k=2)
        finally:
            svc.close()
        docs = [json.loads(l) for l in sink.read_text(encoding="utf-8").splitlines()]
        metrics_docs = [d for d in docs if d["kind"] == "metrics"]
        trace_docs = [d for d in docs if d["kind"] == "trace"]
        assert metrics_docs and trace_docs
        assert metrics_docs[0]["identity"]["role"] == "service"
        assert metrics_docs[0]["metrics"]["counters"]["service.requests"] >= 2
        assert trace_docs[0]["trace"]["trace_id"]
        assert trace_docs[0]["summary"]["op"] == "discover"

    def test_metrics_text_wire_op(self, store_path):
        from repro.obs.export import parse_prometheus_text
        from repro.service import LakeServer, ServiceClient

        svc = LakeService(store=store_path, workers=1)
        server = LakeServer(svc, port=0)
        server.start()
        try:
            client = ServiceClient(server.address)
            client.discover(covid_query_table(), k=2)
            text = client.metrics_text()
            parsed = parse_prometheus_text(text)
            assert parsed["repro_service_requests"] >= 1
            assert "# TYPE repro_service_requests counter" in text
            # The JSON metrics op and the text rendering agree.
            assert (
                parsed["repro_service_requests"]
                == client.metrics()["counters"]["service.requests"]
            )
        finally:
            server.close()


# ----------------------------------------------------------------------
# Sharded lake: the serving process is a router
# ----------------------------------------------------------------------
def _keyed_table(name: str, tag: int) -> Table:
    rows = [(f"city{tag}_{j}", f"state{j % 3}", tag * j) for j in range(6)]
    return Table(["City", "State", "Pop"], rows, name=name)


def _driver_store_reads() -> dict[str, int]:
    """What this process has decoded or re-hydrated from any store so
    far (exact counts: the store bumps them once per table read)."""
    counters = obs_metrics.global_registry().snapshot()["counters"]
    return {
        name: value
        for name, value in counters.items()
        if name.startswith("store.decode") or name == "store.stats_cache.rehydrates"
    }


class TestShardedRouter:
    #: Matches t03's cities, and a ``_keyed_table(..., 3)`` newcomer's.
    PROBE = Table(["City"], [(f"city3_{j}",) for j in range(6)], name="probe")

    @pytest.fixture
    def sharded_path(self, tmp_path, request):
        # Four shards, unless a test asks (indirectly) for another count.
        num_shards = getattr(request, "param", 4)
        store = ShardedLakeStore.create(tmp_path / "lake", num_shards=num_shards)
        store.ingest({f"t{i:02d}": _keyed_table(f"t{i:02d}", i) for i in range(12)})
        Dialite(store=store).index.close()  # fit + persist every shard
        return tmp_path / "lake"

    def test_driver_decodes_hydrates_and_fits_nothing(self, sharded_path):
        newcomer = _keyed_table("newcomer", 3)
        reads_before = _driver_store_reads()
        respawns = deltas("shard.worker.respawns")
        with LakeService(
            store=sharded_path, workers=2, reload_check_interval=0.0
        ) as service:
            for tag in range(5):
                query = Table(["City"], [(f"city{tag}_2",), (f"city{tag}_4",)], name="q")
                assert service.discover(query, k=5).payload["results"]
            report = service.ingest([newcomer])
            # At the ack, every shard -- the moved one included -- holds
            # indexes fitted at its own version: its worker persisted them
            # before reporting ready.
            on_disk = open_any_store(sharded_path)
            assert on_disk.lake_version == report["lake_version"]
            for shard in on_disk.shards:
                assert shard.info()["indexes_lake_version"] == shard.lake_version
            answer = service.discover(self.PROBE, k=5)
            assert answer.lake_version == report["lake_version"]
            assert "newcomer" in answer.payload["integration_set"]
            assert service.pipeline.lake.loaded_names == []
            assert respawns() == {"shard.worker.respawns": 0}
            served = canonical(answer.payload)
        assert _driver_store_reads() == reads_before
        fresh = Dialite.open(sharded_path).fit()
        try:
            assert served == canonical(oracle_discover_payload(fresh, self.PROBE, k=5))
        finally:
            fresh.index.close()

    @pytest.mark.parametrize("sharded_path", [1, 2], indirect=True)
    def test_driver_is_a_router_at_every_shard_count(self, sharded_path):
        """One executor: a 1- or 2-shard lake is served by workers too, so
        its driver decodes and hydrates nothing either."""
        self.test_driver_decodes_hydrates_and_fits_nothing(sharded_path)

    def test_index_build_decodes_nothing_in_the_driver(self, tmp_path, shards="4"):
        """`repro index build --shards N`: the driver ingests, computes the
        lake-global fit state from hydrated stats (the synthesized KB's
        domains are ``text_values()``), and the workers fit their shards."""
        from repro.cli import main

        DataLake(
            [_keyed_table(f"t{i:02d}", i) for i in range(12)]
        ).save_to(tmp_path / "csv")
        reads_before = _driver_store_reads()
        assert main([
            "index", "build", "--lake", str(tmp_path / "csv"),
            "--store", str(tmp_path / "lake"), "--shards", shards,
        ]) == 0
        moved = {
            name: count - reads_before.get(name, 0)
            for name, count in _driver_store_reads().items()
            if count != reads_before.get(name, 0)
        }
        assert moved == {"store.stats_cache.rehydrates": 12}
        built = open_any_store(tmp_path / "lake")
        assert built.has_fit_state()
        for shard in built.shards:
            assert shard.info()["indexes_lake_version"] == shard.lake_version

    @pytest.mark.parametrize("shards", ["1", "2"])
    def test_index_build_decodes_nothing_at_every_shard_count(self, tmp_path, shards):
        self.test_index_build_decodes_nothing_in_the_driver(tmp_path, shards)

    def test_a_removed_table_leaves_the_next_epochs_answers(self, sharded_path):
        with LakeService(
            store=sharded_path, workers=2, reload_check_interval=0.0
        ) as service:
            before = service.discover(self.PROBE, k=5)
            assert "t03" in before.payload["integration_set"]
            foreign = open_any_store(sharded_path)
            versions = foreign.shard_versions()
            foreign.remove("t03")
            # Exactly the table's home shard moved, by one.
            moved = [b - a for a, b in zip(versions, foreign.shard_versions())]
            assert sum(moved) == 1 and moved[foreign.shard_of("t03")] == 1
            assert "t03" not in foreign and len(foreign) == 11
            after = service.discover(self.PROBE, k=5)
            assert after.lake_version == before.lake_version + 1
            assert "t03" not in after.payload["integration_set"]
        with pytest.raises(KeyError, match="no table 't03'"):
            open_any_store(sharded_path).remove("t03")

    @pytest.mark.parametrize("sharded_path", [1, 2, 4], indirect=True)
    def test_in_place_is_cold_at_every_version(self, sharded_path):
        """Add, replace, remove, add through one live service: every shard
        -- the moved one included -- is served by the worker it started
        with, which re-opens the new version in place; each reply is what
        cold workers over the same store answer at that version."""
        fits = obs_metrics.histogram("shard.worker.fit_seconds")

        def pids(service):
            return [
                lease.submit(os.getpid).result(timeout=30)
                for lease in service.pipeline.index._leases
            ]

        respawns = deltas("shard.worker.respawns")
        with LakeService(
            store=sharded_path, workers=2, reload_check_interval=0.0
        ) as service:
            assert service.discover(self.PROBE, k=5).payload["results"]
            workers = pids(service)
            steps = [
                lambda: service.ingest([_keyed_table("newcomer", 3)]),
                lambda: service.ingest([_keyed_table("t03", 5)]),
                lambda: open_any_store(sharded_path).remove("t07"),
                lambda: service.ingest([_keyed_table("t07", 3)]),
            ]
            for step in steps:
                fits_before = fits.count
                step()
                served = service.discover(self.PROBE, k=5)
                assert served.lake_version == open_any_store(sharded_path).lake_version
                assert fits.count == fits_before + 1
                assert pids(service) == workers
                assert respawns() == {"shard.worker.respawns": 0}
                fresh = Dialite.open(sharded_path).fit()
                try:
                    assert canonical(served.payload) == canonical(
                        oracle_discover_payload(fresh, self.PROBE, k=5)
                    )
                finally:
                    fresh.index.close()
                assert fits.count == fits_before + 1  # the cold side hydrated

    def test_metrics_op_folds_in_the_workers_registries(self, sharded_path):
        """Retrieval runs in the shard workers, so its counters live in
        their registries; the ``metrics`` op reports driver + workers."""

        def driver_retrievals():
            counters = obs_metrics.global_registry().snapshot()["counters"]
            return counters.get("engine.retrievals", 0)

        with LakeService(store=sharded_path, workers=2) as service:
            before = driver_retrievals()
            assert service.discover(self.PROBE, k=5).payload["results"]
            workers = service.pipeline.index.worker_metrics()
            wire = json.loads(LakeServer(service).dispatch({"op": "metrics"}))["payload"]
        assert driver_retrievals() == before
        assert workers["counters"]["engine.retrievals"] >= 4  # one a shard, at least
        assert (
            wire["counters"]["engine.retrievals"]
            == before + workers["counters"]["engine.retrievals"]
        )

    def test_traced_ingest_shows_where_the_refit_went(self, sharded_path):
        fits_before = obs_metrics.histogram("shard.worker.fit_seconds").count
        tracer = tracing.Tracer()
        with LakeService(
            store=sharded_path, workers=2, reload_check_interval=0.0
        ) as service:
            with tracing.activate(tracer), tracer.span("test.ingest"):
                service.ingest([_keyed_table("newcomer", 3)])
            fitted = service.pipeline.index.fitted
        reload_span = tracer.root.child("service.reload")
        fit = reload_span.child("shard.worker.fit")
        assert fit is not None and fit.counters["fitted"] == len(fitted)
        names = [child.name for child in fit.children]
        assert "index.hydrate" in names and "shard.worker.persist" in names
        for discoverer, seconds in fitted.items():
            assert f"index.fit.{discoverer}" in names and seconds > 0.0
        # One worker fitted (the moved shard's); the other three leases
        # were donated by the previous generation.
        assert obs_metrics.histogram("shard.worker.fit_seconds").count == fits_before + 1
