"""Chaos harness: a sharded service under injected faults stays correct.

The fault-tolerance acceptance gate (ISSUE 9): a 4-shard
:class:`repro.service.LakeService` behind TCP, serving concurrent
discover clients *while* the harness kills shard worker processes,
drops client connections and runs concurrent ingests, must degrade
gracefully -- never wrongly:

1. **Zero raw failures.**  Every request completes: transparently
   (supervised respawn + retry, client-side reconnect backoff) or as an
   explicitly *degraded* response annotated with ``degraded_shards``.
2. **Zero wrong or stale answers.**  Every non-degraded payload is
   byte-identical to a per-version oracle -- a fresh pipeline opened on
   a clone of the store at exactly the lake version the response is
   stamped with.  Faults may cost latency or completeness (annotated),
   never correctness.
3. **The chaos actually happened.**  At least one worker respawn, one
   supervised scatter failure and one degraded response are observed --
   otherwise the run is vacuous and fails.
4. **Bounded latency.**  Non-degraded p95 under chaos stays within 2x
   the no-fault baseline p95 (gated under ``--check``; reported always).
5. **Telemetry saw everything (ISSUE 10).**  The service runs with a
   flight recorder armed: every degraded request must land in the
   postmortem JSONL with its full span tree attached, the SLO monitor
   must be firing ``degraded_rate`` when health is polled right after
   the degraded probe, and any non-ok health status must be explained
   by SLO burn, never by a shard that stayed dead.

Entry points: ``python benchmarks/bench_chaos.py --smoke`` is what
``make chaos-smoke`` runs in CI; ``make bench-chaos`` runs full scale
with the latency gate.
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
from math import ceil
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.pipeline import Dialite  # noqa: E402
from repro.faults import RetryPolicy, inject  # noqa: E402
from repro.obs import metrics as obs_metrics  # noqa: E402
from repro.obs.export import metrics_document, snapshot_identity  # noqa: E402
from repro.service import (  # noqa: E402
    LakeServer,
    LakeService,
    ServiceClient,
    oracle_discover_payload,
)
from repro.shard import ShardedLakeStore  # noqa: E402
from repro.table import Table  # noqa: E402

K = 5
NUM_SHARDS = 4


# ----------------------------------------------------------------------
# Workload
# ----------------------------------------------------------------------
def make_tables(num_tables: int, rows: int, seed: int) -> dict[str, Table]:
    rng = random.Random(seed)
    tables = {}
    for i in range(num_tables):
        name = f"t{i:03d}"
        tables[name] = Table(
            ["City", "State", "Pop"],
            [
                (f"city{rng.randrange(num_tables * 2)}", f"state{j % 5}", i * 100 + j)
                for j in range(rows)
            ],
            name=name,
        )
    return tables


def make_queries(count: int, num_tables: int, tag: str, seed: int) -> list[Table]:
    """Unique-content queries over the lake's vocabulary: every request
    misses the cache, so every request scatters (and can meet a fault)."""
    rng = random.Random(seed)
    return [
        Table(
            ["City", "State"],
            [
                (f"city{rng.randrange(num_tables * 2)}", f"state{j % 5}")
                for j in range(4)
            ],
            name=f"q_{tag}_{i}",
        )
        for i in range(count)
    ]


def make_plants(num_tables: int, seed: int) -> list[Table]:
    rng = random.Random(seed)
    return [
        Table(
            ["City", "State", "Pop"],
            [
                (f"city{rng.randrange(num_tables * 2)}", f"state{j % 5}", 9000 + j)
                for j in range(8)
            ],
            name=f"plant_{i}",
        )
        for i in range(2)
    ]


def canonical(payload: dict) -> str:
    # The annotation never enters the identity check: a degraded payload
    # is compared only by the caller deciding to skip it.
    return json.dumps(payload, sort_keys=True)


def percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered), max(1, ceil(q * len(ordered))))
    return ordered[rank - 1]


# ----------------------------------------------------------------------
# Per-version oracle: clone the store, apply the same ingests, snapshot
# what a fresh pipeline serves at each version
# ----------------------------------------------------------------------
def oracle_by_version(
    store_path: Path, clone_path: Path, plants: list[Table], queries: list[Table]
) -> dict[int, dict[str, str]]:
    shutil.copytree(store_path, clone_path)
    oracle: dict[int, dict[str, str]] = {}
    for applied in range(len(plants) + 1):
        store = ShardedLakeStore.open(clone_path, check_sketch=False)
        if applied:
            store.ingest({plants[applied - 1].name: plants[applied - 1]}, prune=False)
            store = store.reopen()
        pipeline = Dialite.open(clone_path).fit()
        oracle[store.lake_version] = {
            q.name: canonical(oracle_discover_payload(pipeline, q, k=K))
            for q in queries
        }
        close = getattr(pipeline._index, "close", None)
        if close:
            close()
    return oracle


# ----------------------------------------------------------------------
# One concurrent phase: clients drain a shared schedule of actions
# ----------------------------------------------------------------------
def run_phase(
    service: LakeService,
    address: tuple,
    schedule: list[tuple],
    clients: int,
) -> list[dict]:
    """Each schedule entry is ``("query", table)``, ``("ingest", table)``,
    ``("kill", shard, times)`` or ``("drop", times)``.  Fault entries arm
    the injection plane from whichever client thread draws them, so the
    faults land *between and during* in-flight requests, not in a sterile
    gap.  Returns one record per query entry."""
    iterator = iter(schedule)
    lock = threading.Lock()
    records: list[dict] = []

    def worker():
        host, port = address
        client = ServiceClient(
            (host, port),
            timeout=90.0,
            retry=RetryPolicy(attempts=6, base_delay=0.02, max_delay=0.25),
        )
        while True:
            with lock:
                entry = next(iterator, None)
            if entry is None:
                return
            kind = entry[0]
            if kind == "kill":
                inject.kill_worker(entry[1], times=entry[2])
                continue
            if kind == "drop":
                inject.drop_connection(times=entry[1])
                continue
            if kind == "ingest":
                # In-process on purpose: ingest is the one op the client
                # must never retry, so the harness does not race it
                # against its own armed connection drops.
                try:
                    service.ingest([entry[1]])
                except Exception as error:  # noqa: BLE001 - gate counts these
                    with lock:
                        records.append({
                            "query": f"ingest:{entry[1].name}",
                            "seconds": 0.0,
                            "error": f"{type(error).__name__}: {error}",
                        })
                continue
            query = entry[1]
            record = {"query": query.name}
            start = time.perf_counter()
            try:
                response = client.discover(query, k=K)
                record["seconds"] = time.perf_counter() - start
                record["version"] = response["lake_version"]
                record["payload"] = response["payload"]
                record["degraded"] = bool(
                    response["payload"].get("degraded_shards")
                )
            except Exception as error:  # noqa: BLE001 - gate counts these
                record["seconds"] = time.perf_counter() - start
                record["error"] = f"{type(error).__name__}: {error}"
            with lock:
                records.append(record)

    threads = [threading.Thread(target=worker) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records


def verify(records: list[dict], oracle: dict[int, dict[str, str]]) -> dict:
    errors = [r["error"] for r in records if "error" in r]
    wrong = 0
    degraded = 0
    latencies = []
    for record in records:
        if "error" in record:
            continue
        if record["degraded"]:
            degraded += 1
            continue
        latencies.append(record["seconds"])
        expected = oracle.get(record["version"], {}).get(record["query"])
        if expected is None or canonical(record["payload"]) != expected:
            wrong += 1
    return {
        "requests": len(records),
        "errors": errors,
        "wrong": wrong,
        "degraded": degraded,
        "p95_s": round(percentile(latencies, 0.95), 4),
        "versions": sorted({r["version"] for r in records if "version" in r}),
    }


# ----------------------------------------------------------------------
# The suite
# ----------------------------------------------------------------------
def chaos_schedule(
    queries: list[Table], plants: list[Table], kills: int, drops: int, seed: int
) -> list[tuple]:
    """Interleave fault arms and the two ingests through the query list
    at seeded positions (deterministic runs, no wall-clock coupling)."""
    rng = random.Random(seed)
    schedule: list[tuple] = [("query", q) for q in queries]
    actions: list[tuple] = [
        ("kill", rng.randrange(NUM_SHARDS), 1) for _ in range(kills)
    ]
    actions += [("drop", 1 + rng.randrange(2)) for _ in range(drops)]
    for action in actions:
        schedule.insert(rng.randrange(1, len(schedule)), action)
    # The ingests split the run into thirds, so responses provably span
    # every lake version the oracle covers.
    third = len(schedule) // 3
    schedule.insert(third, ("ingest", plants[0]))
    schedule.insert(2 * third, ("ingest", plants[1]))
    return schedule


def run_suite(
    num_tables: int, requests: int, clients: int, kills: int, drops: int
) -> dict:
    base = Path(tempfile.mkdtemp(prefix="bench_chaos_"))
    inject.reset()
    try:
        store_path = base / "lake"
        store = ShardedLakeStore.create(store_path, num_shards=NUM_SHARDS)
        store.ingest(make_tables(num_tables, rows=10, seed=5))

        baseline_queries = make_queries(requests, num_tables, "base", seed=11)
        chaos_queries = make_queries(requests, num_tables, "chaos", seed=17)
        probe_query = make_queries(1, num_tables, "probe", seed=23)[0]
        settle_query = make_queries(1, num_tables, "settle", seed=41)[0]
        plants = make_plants(num_tables, seed=29)

        oracle = oracle_by_version(
            store_path,
            base / "oracle",
            plants,
            baseline_queries + chaos_queries + [probe_query, settle_query],
        )

        # The flight recorder is armed for the whole run: with a
        # postmortem sink configured every request carries a span tree,
        # so each degraded/errored answer must show up in the JSONL with
        # its full tree -- the ISSUE 10 capture gate.
        postmortem_path = base / "postmortem.jsonl"
        service = LakeService(
            store=store_path,
            workers=clients,
            queue_depth=max(64, clients * 4),
            reload_check_interval=0.05,
            postmortem_path=postmortem_path,
        )
        server = LakeServer(service, port=0)
        server.start()
        registry = obs_metrics.global_registry()
        try:
            # Phase 1: no faults -- the latency baseline, verified at v0.
            baseline_records = run_phase(
                service,
                server.address,
                [("query", q) for q in baseline_queries],
                clients,
            )
            baseline = verify(baseline_records, oracle)

            # Phase 2: kills + drops + concurrent ingests under load.
            failures_before = registry.counter("shard.scatter.failures").value
            respawns_before = registry.counter("shard.worker.respawns").value
            chaos_records = run_phase(
                service,
                server.address,
                chaos_schedule(chaos_queries, plants, kills, drops, seed=31),
                clients,
            )
            inject.reset()  # disarm anything unconsumed before the probe
            # Settling query: the schedule's last ingest can land after
            # the final client query drained, so the newest version may
            # not have served anything yet.  Wait for the reload to
            # catch up, then query once more -- this pins the "versions
            # advance through every ingest" gate on the protocol, not on
            # thread timing.
            final_version = max(oracle)
            deadline = time.time() + 10.0
            while service.version < final_version and time.time() < deadline:
                time.sleep(0.05)
            settle_client = ServiceClient(server.address, timeout=90.0)
            settle_start = time.perf_counter()
            settle_response = settle_client.discover(settle_query, k=K)
            chaos_records.append({
                "query": settle_query.name,
                "seconds": time.perf_counter() - settle_start,
                "version": settle_response["lake_version"],
                "payload": settle_response["payload"],
                "degraded": bool(
                    settle_response["payload"].get("degraded_shards")
                ),
            })
            chaos = verify(chaos_records, oracle)
            chaos["scatter_failures"] = (
                registry.counter("shard.scatter.failures").value - failures_before
            )
            chaos["worker_respawns"] = (
                registry.counter("shard.worker.respawns").value - respawns_before
            )

            # Phase 3: a guaranteed-degraded probe -- kill one shard's
            # worker on the original submit AND the supervised retry.
            client = ServiceClient(server.address, timeout=90.0)
            inject.kill_worker(2, times=2)
            probe_response = client.discover(probe_query, k=K)
            inject.reset()
            probe = {
                "degraded_shards": probe_response["payload"].get("degraded_shards"),
                "cached": probe_response["cached"],
            }
            # The degraded answer must not have been cached: the same
            # request recomputes whole and matches the oracle.
            healed = client.discover(probe_query, k=K)
            probe["healed_from_cache"] = healed["cached"]
            probe["healed_matches_oracle"] = (
                canonical(healed["payload"])
                == oracle[healed["lake_version"]][probe_query.name]
            )
            probe["service_degraded_count"] = service.stats_snapshot()["degraded"]
            health = client.health()
            probe["health_after"] = health["status"]
            probe["shards_alive"] = all(
                shard["alive"] for shard in health.get("shards", [])
            )
            probe["slo_firing"] = sorted(
                {f["objective"] for f in health.get("slo", {}).get("firing", [])}
            )
        finally:
            server.close()
            inject.reset()

        # The recorder wrote synchronously during the run and the server
        # close above flushed the service, so the postmortem sink is
        # complete: one document per tripped request, tree attached.
        postmortems = []
        if postmortem_path.exists():
            with postmortem_path.open(encoding="utf-8") as sink:
                postmortems = [json.loads(line) for line in sink if line.strip()]
        recorder = {
            "entries": len(postmortems),
            "degraded_dumps": sum(
                1 for doc in postmortems if doc.get("reason") == "degraded"
            ),
            "with_trace": sum(1 for doc in postmortems if doc.get("trace")),
            "with_trace_id": sum(1 for doc in postmortems if doc.get("trace_id")),
            "reasons": sorted({doc.get("reason") for doc in postmortems}),
        }

        return {
            "suite": "chaos",
            "tables": num_tables,
            "shards": NUM_SHARDS,
            "clients": clients,
            "kills": kills,
            "drops": drops,
            "baseline": baseline,
            "chaos": chaos,
            "probe": probe,
            "recorder": recorder,
            # The run's process-wide metrics in the exporter's document
            # envelope, so .benchmarks/chaos.json is greppable alongside
            # live `repro obs export` JSONL sinks.
            "telemetry": metrics_document(
                obs_metrics.global_registry().snapshot(),
                snapshot_identity("bench-chaos"),
            ),
        }
    finally:
        shutil.rmtree(base, ignore_errors=True)


def gate(results: dict, check: bool) -> list[str]:
    baseline, chaos, probe = (
        results["baseline"],
        results["chaos"],
        results["probe"],
    )
    failures = []
    for phase_name, phase in (("baseline", baseline), ("chaos", chaos)):
        if phase["errors"]:
            failures.append(
                f"{phase_name}: {len(phase['errors'])} raw failures, e.g. "
                f"{phase['errors'][0]}"
            )
        if phase["wrong"]:
            failures.append(
                f"{phase_name}: {phase['wrong']} non-degraded responses differ "
                f"from the per-version oracle"
            )
    if baseline["degraded"]:
        failures.append("baseline: degraded responses without any fault armed")
    if len(chaos["versions"]) < 3:
        failures.append(
            f"chaos phase saw versions {chaos['versions']}; the concurrent "
            f"ingests should have produced three"
        )
    if chaos["scatter_failures"] < 1 or chaos["worker_respawns"] < 1:
        failures.append(
            "chaos phase observed no supervised scatter failure/respawn -- "
            "the kills never landed (vacuous run)"
        )
    if probe["degraded_shards"] != [2]:
        failures.append(
            f"degraded probe expected degraded_shards [2], got "
            f"{probe['degraded_shards']}"
        )
    if probe["healed_from_cache"]:
        failures.append("degraded payload was served from cache after recovery")
    if not probe["healed_matches_oracle"]:
        failures.append("post-recovery recompute does not match the oracle")
    if probe["service_degraded_count"] + chaos["degraded"] < 1:
        failures.append("no degraded response observed anywhere")
    # Health after the degraded probe: the SLO monitor *should* be
    # burning (we just served degraded answers on purpose), so a warn/
    # degraded status is correct -- what must never happen is a shard
    # staying dead, or a non-ok status with no firing objective to
    # explain it.
    if not probe["shards_alive"]:
        failures.append("a shard worker stayed dead after supervision healed")
    if probe["health_after"] not in ("ok", "warn", "degraded"):
        failures.append(f"unexpected health status: {probe['health_after']}")
    if probe["health_after"] != "ok" and not probe["slo_firing"]:
        failures.append(
            f"health {probe['health_after']} with no firing SLO objective -- "
            f"degradation is not explained by burn"
        )
    if "degraded_rate" not in probe["slo_firing"]:
        failures.append(
            f"SLO monitor did not fire degraded_rate right after the degraded "
            f"probe (firing: {probe['slo_firing']})"
        )
    # Flight recorder: every degraded answer the service produced must
    # have been dumped with its full span tree.  Server-side dumps can
    # exceed the client-side degraded count (a response computed degraded
    # whose connection dropped is retried and recomputed), never trail it.
    recorder = results["recorder"]
    expected_dumps = chaos["degraded"] + 1  # + the guaranteed-degraded probe
    if recorder["degraded_dumps"] < expected_dumps:
        failures.append(
            f"flight recorder captured {recorder['degraded_dumps']} degraded "
            f"postmortems; at least {expected_dumps} degraded requests were "
            f"served"
        )
    if recorder["with_trace"] != recorder["entries"]:
        failures.append(
            f"{recorder['entries'] - recorder['with_trace']} postmortems were "
            f"dumped without a span tree attached"
        )
    if check and baseline["p95_s"] > 0:
        ratio = chaos["p95_s"] / baseline["p95_s"]
        if ratio > 2.0:
            failures.append(
                f"non-degraded chaos p95 {chaos['p95_s']}s is {ratio:.2f}x "
                f"the no-fault baseline p95 {baseline['p95_s']}s (> 2x)"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tables", type=int, default=48)
    parser.add_argument("--requests", type=int, default=48)
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--kills", type=int, default=6)
    parser.add_argument("--drops", type=int, default=6)
    parser.add_argument("--smoke", action="store_true",
                        help="small scale, correctness gates only "
                        "(the `make chaos-smoke` CI mode)")
    parser.add_argument("--json", default=None, help="also write JSON here")
    parser.add_argument("--check", action="store_true",
                        help="additionally gate non-degraded chaos p95 <= 2x "
                        "the no-fault baseline p95")
    args = parser.parse_args(argv)

    if args.smoke:
        num_tables, requests, clients, kills, drops = 20, 14, 4, 2, 2
    else:
        num_tables, requests, clients, kills, drops = (
            args.tables, args.requests, args.clients, args.kills, args.drops
        )
    results = run_suite(num_tables, requests, clients, kills, drops)

    baseline, chaos, probe = (
        results["baseline"], results["chaos"], results["probe"]
    )
    print(
        f"{results['tables']} tables over {results['shards']} shards, "
        f"{results['clients']} clients; baseline: {baseline['requests']} requests, "
        f"0 faults, p95 {baseline['p95_s']}s"
    )
    print(
        f"chaos: {chaos['requests']} requests under {results['kills']} kills + "
        f"{results['drops']} drops + 2 ingests -> errors {len(chaos['errors'])}, "
        f"wrong {chaos['wrong']}, degraded {chaos['degraded']}, "
        f"respawns {chaos['worker_respawns']}, versions {chaos['versions']}, "
        f"non-degraded p95 {chaos['p95_s']}s"
    )
    print(
        f"degraded probe: shards {probe['degraded_shards']}, healed from cache: "
        f"{probe['healed_from_cache']}, oracle match after heal: "
        f"{probe['healed_matches_oracle']}, health: {probe['health_after']}, "
        f"slo firing: {probe['slo_firing']}"
    )
    recorder = results["recorder"]
    print(
        f"flight recorder: {recorder['entries']} postmortems "
        f"({recorder['degraded_dumps']} degraded, reasons {recorder['reasons']}), "
        f"{recorder['with_trace']} with full span trees"
    )
    print(json.dumps(results))
    if args.json:
        path = Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(results, indent=2), encoding="utf-8")
        print(f"written: {args.json}")

    failures = gate(results, check=args.check and not args.smoke)
    if failures:
        print("ACCEPTANCE FAILED: " + "; ".join(failures))
        return 1
    print(
        "acceptance ok: every request completed (retried or explicitly "
        "degraded), zero wrong/stale responses vs the per-version oracle, "
        "supervision respawned killed workers, degraded answers were "
        "annotated and never cached, and every degraded request landed "
        "in the flight recorder with its full span tree"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
