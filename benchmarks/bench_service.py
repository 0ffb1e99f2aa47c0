"""Serving-layer benchmark: cached + shared concurrency vs cold calls.

The claims under test (ISSUE 5 acceptance):

1. **Throughput.**  A warm :class:`repro.service.LakeService` (result
   cache + single-flight, closed-loop concurrent clients)
   serves a mixed **80/20 repeated/unique** discover workload at
   **>= 3x** the throughput of the pre-service shape: sequential calls
   that each open a cold ``Dialite`` from the store.
2. **Byte identity.**  Every service response payload is byte-identical
   (``json.dumps(..., sort_keys=True)``) to the sequential baseline's
   payload for the same request.
3. **Version consistency.**  Across a mid-run concurrent ingest, every
   response's stamped ``lake_version`` matches the payload an oracle
   pipeline opened at that exact version produces -- zero stale
   responses -- and the ingest actually changes a hot query's answer
   (so staleness would be detected, not vacuously absent).

Two entry points:

* standalone -- ``python benchmarks/bench_service.py [--smoke]
  [--json out.json] [--check]``; ``--smoke`` is what ``make serve-smoke``
  runs in CI: small scale, no speed gate, plus an **end-to-end socket
  smoke** (LakeServer + ServiceClient: discover/cache-hit/ingest/
  re-query/stats assertions over TCP);
* ``make bench-service`` runs full scale with the >= 3x gate.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import sys
import tempfile
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.pipeline import Dialite  # noqa: E402
from repro.datalake import DataLake, seeds  # noqa: E402
from repro.service import (  # noqa: E402
    LakeServer,
    LakeService,
    ServiceClient,
    oracle_discover_payload,
)
from repro.store import LakeStore  # noqa: E402
from repro.table import MISSING, Table  # noqa: E402

K = 8
COLUMN = "key"


# ----------------------------------------------------------------------
# Workload: like bench_candidates -- single-token join keys + a city
# column -- with *planted* joinable tables behind each hot query, plus a
# plant-on-ingest table that changes hot query 0's answer mid-run.
# ----------------------------------------------------------------------
def make_workload(
    num_tables: int, num_hot: int = 4, num_unique: int = 12, rows: int = 20, seed: int = 23
):
    rng = random.Random(seed)
    cities = list(seeds.CITIES)

    def random_rows(keys):
        return [
            (
                key,
                rng.choice(cities),
                rng.randrange(10_000) if rng.random() > 0.05 else MISSING,
            )
            for key in keys
        ]

    def query(name):
        keys = [f"e{rng.randrange(num_tables * 5)}" for _ in range(rows)]
        table = Table(
            ["key", "city", "score"],
            [(key, rng.choice(cities), round(rng.random(), 4)) for key in keys],
            name=name,
        )
        return table, keys

    hot, hot_keys = [], []
    for i in range(num_hot):
        table, keys = query(f"hot_{i}")
        hot.append(table)
        hot_keys.append(keys)
    unique = [query(f"uniq_{i}")[0] for i in range(num_unique)]

    tables = []
    for i, keys in enumerate(hot_keys):
        for j in range(3):  # three joinable tables per hot query
            shared = keys[: (rows * 3) // 5]
            fresh = [f"e{rng.randrange(num_tables * 5)}" for _ in range(rows - len(shared))]
            tables.append(
                Table(["key", "city", f"metric_{j}"], random_rows(shared + fresh),
                      name=f"join_{i}_{j}")
            )
    for t in range(num_tables - len(tables)):
        keys = [f"e{rng.randrange(num_tables * 5)}" for _ in range(rows)]
        tables.append(
            Table(["key", "city", f"metric_{t % 7}"], random_rows(keys), name=f"t{t:05d}")
        )
    # The mid-run ingest payload: joins hot query 0 hard (80% of its
    # keys), so v_new answers for hot_0 must differ from v_old answers.
    plant = Table(
        ["key", "city", "planted_metric"],
        random_rows(hot_keys[0][: (rows * 4) // 5]
                    + [f"e{rng.randrange(num_tables * 5)}" for _ in range(rows // 5)]),
        name="join_planted",
    )
    return DataLake(tables), hot, unique, plant


def request_sequence(hot, unique, total: int, seed: int = 7):
    """The 80/20 repeated/unique closed-loop schedule (seeded)."""
    rng = random.Random(seed)
    sequence = []
    unique_cycle = iter(unique * ((total // max(1, len(unique))) + 2))
    for _ in range(total):
        if rng.random() < 0.8:
            sequence.append(rng.choice(hot))
        else:
            sequence.append(next(unique_cycle))
    return sequence


def build_store(lake: DataLake, directory: Path) -> Path:
    store = LakeStore.create(directory)
    store.ingest(lake)
    roster = Dialite(DataLake()).discoverers.components()
    store.open_index(roster)  # hydrate -> fit -> persist
    return directory


def payload_bytes(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


# ----------------------------------------------------------------------
# The two paths
# ----------------------------------------------------------------------
def run_service(store_path: Path, requests, clients: int = 8, ingest_at: int | None = None,
                plant: Table | None = None):
    """Closed-loop concurrent clients against one warm service; returns
    (seconds, responses in request order, stats snapshot, metrics snapshot)."""
    service = LakeService(
        store=store_path,
        workers=clients,
        queue_depth=max(64, clients * 4),
        cache_capacity=4096,
        reload_check_interval=0.05,
    )
    try:
        responses = [None] * len(requests)
        schedule = iter(enumerate(requests))
        lock = threading.Lock()
        # The mid-run ingest is a barrier in the schedule: the worker that
        # draws request `ingest_at` ingests first, and later requests wait
        # for it -- so the run provably serves under both lake versions
        # (earlier requests still in flight finish on the old generation,
        # correctly stamped with its version).
        ingest_done = threading.Event()

        def worker():
            while True:
                with lock:
                    try:
                        index, query = next(schedule)
                    except StopIteration:
                        return
                if ingest_at is not None:
                    if index == ingest_at:
                        service.ingest([plant])
                        ingest_done.set()
                    elif index > ingest_at:
                        ingest_done.wait()
                responses[index] = service.discover(query, k=K, query_column=COLUMN)

        threads = [threading.Thread(target=worker) for _ in range(clients)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        seconds = time.perf_counter() - start
        return seconds, responses, service.stats_snapshot(), service.metrics_snapshot()
    finally:
        service.close()


def run_cold_sequential(store_path: Path, requests):
    """The pre-service shape: every request pays a fresh Dialite open."""
    payloads = []
    start = time.perf_counter()
    for query in requests:
        pipeline = Dialite.open(store_path).fit()
        payloads.append(
            oracle_discover_payload(pipeline, query, k=K, query_column=COLUMN)
        )
    return time.perf_counter() - start, payloads


# ----------------------------------------------------------------------
# Phases
# ----------------------------------------------------------------------
def phase_throughput(store_path: Path, hot, unique, total: int, clients: int) -> dict:
    requests = request_sequence(hot, unique, total)
    service_s, responses, stats, metrics = run_service(store_path, requests, clients=clients)
    cold_s, cold_payloads = run_cold_sequential(store_path, requests)
    identical = all(
        payload_bytes(response.payload) == payload_bytes(cold)
        for response, cold in zip(responses, cold_payloads)
    )
    return {
        "requests": total,
        "clients": clients,
        "service_s": round(service_s, 4),
        "cold_s": round(cold_s, 4),
        "speedup": round(cold_s / max(service_s, 1e-12), 2),
        "identical": identical,
        "hits": stats["hits"],
        "misses": stats["misses"],
        "batches": stats["batches"],
        "batched_requests": stats["batched_requests"],
        "p95_discover_ms": stats["latency"].get("discover", {}).get("p95_ms"),
        "metrics": metrics,
    }


def phase_consistency(store_path: Path, hot, unique, plant, total: int, clients: int) -> dict:
    """Mixed workload with a mid-run ingest; zero-staleness verification."""
    requests = request_sequence(hot, unique, total, seed=13)
    version_0 = LakeStore.open(store_path).lake_version
    distinct = hot + unique
    oracle_v0_pipeline = Dialite.open(store_path).fit()
    # Per-version oracle: query name -> the payload a fresh pipeline
    # opened at that exact version serves for it.
    oracle_by_query = {
        version_0: {
            q.name: payload_bytes(
                oracle_discover_payload(oracle_v0_pipeline, q, k=K, query_column=COLUMN)
            )
            for q in distinct
        }
    }

    seconds, responses, stats, _metrics = run_service(
        store_path, requests, clients=clients, ingest_at=total // 2, plant=plant
    )

    version_1 = LakeStore.open(store_path).lake_version
    oracle_v1_pipeline = Dialite.open(store_path).fit()
    oracle_by_query[version_1] = {
        q.name: payload_bytes(
            oracle_discover_payload(oracle_v1_pipeline, q, k=K, query_column=COLUMN)
        )
        for q in distinct
    }

    stale = 0
    versions_seen = set()
    for query, response in zip(requests, responses):
        versions_seen.add(response.lake_version)
        expected = oracle_by_query[response.lake_version][query.name]
        if payload_bytes(response.payload) != expected:
            stale += 1
    hot0_changed = (
        oracle_by_query[version_0][hot[0].name]
        != oracle_by_query[version_1][hot[0].name]
    )
    return {
        "requests": total,
        "seconds": round(seconds, 4),
        "stale_responses": stale,
        "versions_observed": sorted(versions_seen),
        "both_versions_served": versions_seen == {version_0, version_1},
        "ingest_changes_hot_answer": hot0_changed,
        "reloads": stats["reloads"],
        "ingests": stats["ingests"],
    }


def socket_smoke(store_path: Path, hot, plant) -> dict:
    """End-to-end over TCP: the `make serve-smoke` client session."""
    service = LakeService(store=store_path, workers=2, reload_check_interval=0.05)
    server = LakeServer(service, port=0)
    server.start()
    try:
        client = ServiceClient(server.address)
        assert client.ping()
        version_0 = client.version()
        first = client.discover(hot[0], k=K, column=COLUMN)
        again = client.discover(hot[0], k=K, column=COLUMN)
        assert not first["cached"] and again["cached"], "second call must hit the cache"
        assert first["payload"] == again["payload"]
        assert first["lake_version"] == version_0

        report = client.ingest([plant])
        assert report["added"] == [plant.name]
        requery = client.discover(hot[0], k=K, column=COLUMN)
        assert requery["lake_version"] == report["lake_version"] > version_0
        assert requery["payload"] != first["payload"], (
            "planted ingest must change the hot answer"
        )

        integrated = client.integrate(query=hot[0], k=3, column=COLUMN)
        assert integrated["payload"]["table"]["rows"], "integrate served no facts"

        stats = client.stats()
        assert stats["hits"] >= 1 and stats["misses"] >= 2
        assert stats["reloads"] >= 1 and stats["ingests"] == 1
        assert stats["requests"] >= 4
        client.shutdown()
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline and not service._closed:
            time.sleep(0.02)
        assert service._closed, "wire shutdown must close the service"
        return {
            "socket_ok": True,
            "cache_hit_over_wire": bool(again["cached"]),
            "version_before": version_0,
            "version_after": requery["lake_version"],
            "stats": {k: stats[k] for k in (
                "requests", "hits", "misses", "reloads", "ingests",
                "rejected_overload", "rejected_deadline",
            )},
        }
    finally:
        server.close()


def run_suite(num_tables: int, total: int, clients: int, smoke: bool) -> dict:
    lake, hot, unique, plant = make_workload(num_tables)
    base = Path(tempfile.mkdtemp(prefix="bench_service_"))
    try:
        store_a = build_store(lake, base / "throughput.store")
        throughput = phase_throughput(store_a, hot, unique, total, clients)
        store_b = build_store(lake, base / "consistency.store")
        consistency = phase_consistency(store_b, hot, unique, plant, total, clients)
        results = {
            "suite": "service",
            "smoke": smoke,
            "tables": num_tables,
            "hot_queries": len(hot),
            "unique_queries": len(unique),
            "throughput": throughput,
            "consistency": consistency,
        }
        if smoke:
            store_c = build_store(lake, base / "smoke.store")
            results["socket"] = socket_smoke(store_c, hot, plant)
        return results
    finally:
        shutil.rmtree(base, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tables", type=int, default=400)
    parser.add_argument("--requests", type=int, default=80)
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--smoke", action="store_true",
                        help="small scale, no speed gate, plus the TCP smoke "
                        "(the `make serve-smoke` CI mode)")
    parser.add_argument("--json", default=None, help="also write JSON here")
    parser.add_argument("--check", action="store_true",
                        help="fail unless warm serving beats sequential cold "
                        "calls by >= 3x (full scale only; correctness "
                        "assertions always run)")
    args = parser.parse_args(argv)

    num_tables = 60 if args.smoke else args.tables
    total = 24 if args.smoke else args.requests
    clients = 4 if args.smoke else args.clients
    results = run_suite(num_tables, total, clients, smoke=args.smoke)

    throughput = results["throughput"]
    consistency = results["consistency"]
    print(
        f"{results['tables']} tables, {throughput['requests']} requests "
        f"({results['hot_queries']} hot / {results['unique_queries']} unique, 80/20), "
        f"{throughput['clients']} clients: cold {throughput['cold_s']:.3f}s, "
        f"service {throughput['service_s']:.3f}s -> {throughput['speedup']}x "
        f"(identical: {throughput['identical']}, hits {throughput['hits']}, "
        f"batched {throughput['batched_requests']})"
    )
    print(
        f"consistency across mid-run ingest: versions {consistency['versions_observed']}, "
        f"stale responses {consistency['stale_responses']}, "
        f"hot answer changed: {consistency['ingest_changes_hot_answer']}"
    )
    if args.smoke:
        print(f"socket smoke: {json.dumps(results['socket']['stats'])}")
    print(json.dumps(results))
    if args.json:
        path = Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(results, indent=2), encoding="utf-8")
        print(f"written: {args.json}")

    failures = []
    if not throughput["identical"]:
        failures.append("service payloads differ from the sequential cold baseline")
    if consistency["stale_responses"]:
        failures.append(f"{consistency['stale_responses']} stale responses across ingest")
    if not consistency["ingest_changes_hot_answer"]:
        failures.append("ingest did not change the hot answer (staleness check vacuous)")
    if not consistency["both_versions_served"]:
        failures.append(
            f"expected both lake versions in responses, saw "
            f"{consistency['versions_observed']}"
        )
    if args.smoke and not results["socket"]["socket_ok"]:
        failures.append("socket smoke failed")
    if args.check and not args.smoke and throughput["speedup"] < 3.0:
        failures.append(f"speedup {throughput['speedup']}x < 3.0x")
    if failures:
        print("ACCEPTANCE FAILED: " + "; ".join(failures))
        return 1
    if args.check and not args.smoke:
        print("acceptance ok: warm cached+shared serving >= 3x sequential cold "
              "calls, byte-identical version-stamped results, zero stale "
              "responses across a concurrent ingest")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
