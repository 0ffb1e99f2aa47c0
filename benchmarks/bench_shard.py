"""Sharded scatter-gather discovery: 4-shard parallel fan-out vs 1 shard.

The claims under test (ISSUE 8 acceptance):

1. **Latency.**  On a 20k-table synthetic lake whose queries retrieve
   (and therefore score) thousands of candidates, per-query discover
   latency through a 4-shard :class:`repro.shard.ShardedLakeIndex` (one
   warm worker process per shard) has **p95 >= 2.5x lower** than the
   same queries through a 1-shard sharded store: the whole lake behind
   one worker, so both sides pay the same IPC hop and the ratio is the
   fan-out alone.  The latency metric is hardware-aware: with
   ``>= shards`` usable cores the end-to-end wall p95 is gated; on a
   starved host (e.g. a 1-core CI container, where four concurrent
   workers physically cannot beat one) the gate moves to the
   **critical-path p95** -- per query, the max over shards of each
   worker's *own* CPU time (summed across scatter rounds), which is
   the latency a one-core-per-shard deployment observes and is immune
   to siblings being descheduled onto the same core.  It is read off
   each measured search's span tree: the ``cpu_ms`` of the ``shard[i]``
   roots under ``discover.scatter``, told apart by their ``round``
   counter.  Both arms are traced alike.  Both numbers are always
   reported.
2. **Byte identity.**  Every query's per-discoverer top-k from the
   4-shard scatter-gather is identical -- (table, score, discoverer),
   result for result -- to the 1-shard answer.  This is asserted at
   every scale, including ``--smoke``.
3. **One-shard rewrite.**  Ingesting a single table into the 4-shard
   store bumps exactly one shard's version; the other shards' versions
   are untouched, so their persisted indexes stay current and a
   warm-start refits only the home shard.
4. **The driver routes.**  Building both indexes and querying them
   decodes no segment and hydrates no stats snapshot in *this* process
   (``store.decode`` and ``store.stats_cache.rehydrates`` do not
   move): each shard is fitted, persisted and served by its own worker.
   Asserted at every scale.
5. **A worker outlives its versions.**  An ingest through a live
   :class:`repro.service.LakeService` re-opens the moved shard inside
   its running worker: the set of worker processes is the same before
   and after, and ``shard.worker.respawns`` does not move.  Asserted at
   every scale.

Two entry points:

* standalone -- ``python benchmarks/bench_shard.py [--smoke]
  [--json out.json] [--check]``; ``--smoke`` is what ``make ci`` runs:
  small scale (the per-query work is too light for the fan-out to win,
  so no speed gate), with the identity and one-shard-rewrite
  assertions plus an end-to-end exercise of the shard workers;
* ``make bench-shard`` runs full scale with the >= 2.5x p95 gate.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import random
import shutil
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.pipeline import Dialite  # noqa: E402
from repro.datalake import DataLake, seeds  # noqa: E402
from repro.obs import metrics as obs_metrics  # noqa: E402
from repro.obs import trace  # noqa: E402
from repro.obs.export import metrics_document, snapshot_identity  # noqa: E402
from repro.discovery import (  # noqa: E402
    JosieJoinSearch,
    LSHEnsembleJoinSearch,
    SantosUnionSearch,
)
from repro.discovery.santos import SantosConfig  # noqa: E402
from repro.service import LakeService  # noqa: E402
from repro.shard import ShardedLakeIndex, ShardedLakeStore  # noqa: E402
from repro.table import MISSING, Table  # noqa: E402

K = 10
COLUMN = "key"


# ----------------------------------------------------------------------
# Workload: join keys drawn from a deliberately *small* vocabulary so
# every query key's posting list spans many tables -- the scoring set is
# thousands of candidates, which is the regime where dividing the lake
# across shard workers pays.  (Contrast bench_candidates, whose wide
# vocabulary keeps retrieval tiny to showcase the engine's pruning.)
# ----------------------------------------------------------------------
def make_workload(
    num_tables: int,
    num_queries: int = 6,
    rows: int = 16,
    seed: int = 29,
    vocab: int | None = None,
) -> tuple[DataLake, list[Table], Table]:
    rng = random.Random(seed)
    cities = list(seeds.CITIES)
    if vocab is None:
        # ~1/3 to 1/2 of the lake shares >= 1 key with any query: the
        # scoring set is thousands of tables, so the divisible per-query
        # work dwarfs the per-shard constant costs under measurement.
        vocab = max(64, num_tables // 64)

    def random_rows(keys: list[str]) -> list[tuple]:
        return [
            (
                key,
                rng.choice(cities),
                rng.randrange(10_000) if rng.random() > 0.05 else MISSING,
            )
            for key in keys
        ]

    def fresh_keys() -> list[str]:
        return [f"e{rng.randrange(vocab)}" for _ in range(rows)]

    queries = [
        Table(
            ["key", "city", "score"],
            [(key, rng.choice(cities), round(rng.random(), 4)) for key in fresh_keys()],
            name=f"bench_query_{q}",
        )
        for q in range(num_queries)
    ]
    tables = [
        Table(["key", "city", f"metric_{t % 7}"], random_rows(fresh_keys()),
              name=f"t{t:05d}")
        for t in range(num_tables)
    ]
    newcomer = Table(
        ["key", "city", "late_metric"], random_rows(fresh_keys()), name="zz_late"
    )
    return DataLake(tables), queries, newcomer


def roster():
    """JOSIE + LSH Ensemble + SANTOS (KB synthesis off: minting a KB from
    20k tables is an offline cost unrelated to the fan-out under test,
    and both sides of the comparison share whatever roster runs)."""
    return [
        JosieJoinSearch(),
        LSHEnsembleJoinSearch(),
        SantosUnionSearch(config=SantosConfig(synthesize_kb=False)),
    ]


def build_sharded(root: Path, lake: DataLake, num_shards: int):
    store = ShardedLakeStore.create(root, num_shards=num_shards)
    store.ingest(lake)
    index = ShardedLakeIndex(store, roster()).build()
    return store, index


def driver_store_reads() -> int:
    """Tables this process has decoded or hydrated stats for, so far."""
    counters = obs_metrics.global_registry().snapshot()["counters"]
    return sum(
        value
        for name, value in counters.items()
        if name.startswith("store.decode") or name == "store.stats_cache.rehydrates"
    )


def comparable(answer) -> dict:
    return {
        name: [(r.table_name, round(r.score, 9), r.discoverer) for r in results]
        for name, results in answer.items()
    }


def critical_path_seconds(tree: dict) -> float:
    """A traced search's critical path: per scatter round, the slowest
    shard's own CPU (the ``cpu_ms`` of its ``shard[i]`` root under
    ``discover.scatter``, the tree's root), summed over rounds."""
    assert tree["name"] == "discover.scatter", tree["name"]
    slowest: dict[int, float] = {}
    for shard in tree["children"]:
        if shard["name"].startswith("shard["):
            round_ = shard["counters"]["round"]
            slowest[round_] = max(slowest.get(round_, 0.0), shard["cpu_ms"])
    return sum(slowest.values()) / 1e3


def run_queries(index: ShardedLakeIndex, queries: list[Table], repeats: int):
    """(wall latencies, critical-path latencies, last round's answers).

    One untimed warm-up round first: process workers hydrate their shard
    index lazily on first use, and both configurations deserve warm
    caches -- the claim is about steady-state query latency.  Every
    measured search is traced, so that alongside the end-to-end wall
    clock its critical path (:func:`critical_path_seconds`) is read off
    its span tree -- the number that matters when the host has fewer
    cores than shards and the workers merely timeshare.
    """
    answers = [comparable(index.search(q, k=K, query_column=COLUMN)) for q in queries]
    latencies: list[float] = []
    critical: list[float] = []
    for _ in range(repeats):
        round_answers = []
        for query in queries:
            tracer = trace.Tracer()
            with trace.activate(tracer):
                start = time.perf_counter()
                answer = index.search(query, k=K, query_column=COLUMN)
                latencies.append(time.perf_counter() - start)
            critical.append(critical_path_seconds(tracer.to_dict()))
            round_answers.append(comparable(answer))
        if round_answers != answers:
            raise AssertionError("sharded answers changed between repeats")
    return latencies, critical, answers


def percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * (len(ordered) - 1) + 0.5))]


def run_suite(
    num_tables: int, repeats: int, shards: int = 4, vocab: int | None = None
) -> dict:
    lake, queries, newcomer = make_workload(num_tables, vocab=vocab)
    base = Path(tempfile.mkdtemp(prefix="bench_shard_"))
    try:
        # 1 shard = the whole lake behind one worker (no fan-out); N
        # shards = parallel scatter-gather workers.
        reads_before = driver_store_reads()
        _store_1, index_1 = build_sharded(base / "one", lake, 1)
        store_n, index_n = build_sharded(base / "many", lake, shards)
        try:
            lat_n, crit_n, answers_n = run_queries(index_n, queries, repeats)
            lat_1, crit_1, answers_1 = run_queries(index_1, queries, repeats)
            driver_reads = driver_store_reads() - reads_before
        finally:
            index_1.close()
            index_n.close()

        # One-shard rewrite: a single ingest moves exactly one version.
        before = store_n.shard_versions()
        home = store_n.shard_of(newcomer.name)
        store_n.ingest({newcomer.name: newcomer}, prune=False)
        after = store_n.shard_versions()
        bumped = [i for i in range(shards) if after[i] != before[i]]

        # A worker outlives its versions: a service ingest forks nothing.
        respawns = obs_metrics.counter("shard.worker.respawns")
        respawns_before = respawns.value
        serving = Dialite(store=ShardedLakeStore.open(base / "many"), discoverers=roster())
        with LakeService(pipeline=serving, workers=2) as service:
            service.discover(queries[0], k=K, query_column=COLUMN)  # every worker is up
            workers = sorted(p.pid for p in multiprocessing.active_children())
            service.ingest([newcomer.with_name(f"{newcomer.name}_served")])
            service.discover(queries[0], k=K, query_column=COLUMN)
            workers_after = sorted(p.pid for p in multiprocessing.active_children())

        p95_1 = percentile(lat_1, 0.95)
        p95_n = percentile(lat_n, 0.95)
        cp95_1 = percentile(crit_1, 0.95)
        cp95_n = percentile(crit_n, 0.95)
        try:
            usable_cpus = len(os.sched_getaffinity(0))
        except AttributeError:  # pragma: no cover - non-Linux hosts
            usable_cpus = os.cpu_count() or 1
        return {
            "suite": "shard",
            "tables": num_tables,
            "shards": shards,
            "queries": len(queries),
            "repeats": repeats,
            "k": K,
            "usable_cpus": usable_cpus,
            "gate_mode": "wall" if usable_cpus >= shards else "critical_path",
            "one_shard_p95_ms": round(p95_1 * 1e3, 2),
            "sharded_p95_ms": round(p95_n * 1e3, 2),
            "one_shard_mean_ms": round(sum(lat_1) / len(lat_1) * 1e3, 2),
            "sharded_mean_ms": round(sum(lat_n) / len(lat_n) * 1e3, 2),
            "p95_speedup": round(p95_1 / max(p95_n, 1e-12), 2),
            "one_shard_critical_p95_ms": round(cp95_1 * 1e3, 2),
            "sharded_critical_p95_ms": round(cp95_n * 1e3, 2),
            "critical_p95_speedup": round(cp95_1 / max(cp95_n, 1e-12), 2),
            "identical": answers_n == answers_1,
            "driver_store_reads": driver_reads,
            "ingest_bumped_shards": bumped,
            "ingest_home_shard": home,
            "one_shard_rewrite": bumped == [home],
            "service_ingest_kept_workers": len(workers) == shards
            and workers_after == workers,
            "service_ingest_respawns": respawns.value - respawns_before,
        }
    finally:
        shutil.rmtree(base, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tables", type=int, default=20_000)
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--smoke", action="store_true",
                        help="400 tables, identity + one-shard-rewrite asserts, "
                        "no speed gate (the `make ci` mode)")
    parser.add_argument("--json", default=None, help="also write JSON here")
    parser.add_argument("--vocab", type=int, default=None,
                        help="override the join-key vocabulary size "
                        "(smaller = denser posting lists = heavier scoring)")
    parser.add_argument("--check", action="store_true",
                        help="fail unless the sharded fan-out's p95 beats the "
                        "1-shard pipeline by >= 2.5x (full scale only; "
                        "correctness assertions always run)")
    args = parser.parse_args(argv)

    num_tables = 400 if args.smoke else args.tables
    repeats = 2 if args.smoke else args.repeats
    results = run_suite(num_tables, repeats, shards=args.shards, vocab=args.vocab)
    # Process-wide metrics in the exporter's document envelope, so the
    # .benchmarks/ record reads like a live `repro obs export` sink line.
    results["telemetry"] = metrics_document(
        obs_metrics.global_registry().snapshot(),
        snapshot_identity("bench-shard"),
    )

    print(
        f"{results['tables']} tables, {results['shards']} shards, "
        f"{results['queries']} queries x {results['repeats']} repeats: "
        f"1-shard p95 {results['one_shard_p95_ms']}ms, "
        f"sharded p95 {results['sharded_p95_ms']}ms "
        f"-> {results['p95_speedup']}x wall; critical path "
        f"{results['one_shard_critical_p95_ms']}ms vs "
        f"{results['sharded_critical_p95_ms']}ms "
        f"-> {results['critical_p95_speedup']}x "
        f"(identical: {results['identical']}, "
        f"single ingest bumped shards {results['ingest_bumped_shards']} "
        f"of {results['shards']}, {results['usable_cpus']} usable cpus "
        f"-> gate: {results['gate_mode']})"
    )
    print(json.dumps(results))
    if args.json:
        path = Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(results, indent=2), encoding="utf-8")
        print(f"written: {args.json}")

    failures = []
    if not results["identical"]:
        failures.append("sharded top-k differs from the 1-shard pipeline")
    if results["driver_store_reads"]:
        failures.append(
            f"the driver read {results['driver_store_reads']} "
            f"tables/stats snapshots itself (workers own fit + persist)"
        )
    if not results["one_shard_rewrite"]:
        failures.append(
            f"single-table ingest touched shards {results['ingest_bumped_shards']} "
            f"(home: {results['ingest_home_shard']})"
        )
    if not results["service_ingest_kept_workers"] or results["service_ingest_respawns"]:
        failures.append(
            f"a service ingest replaced a shard worker "
            f"({results['service_ingest_respawns']} respawns): the moved "
            f"shard re-opens in its live worker"
        )
    if args.check and not args.smoke:
        # Hardware-aware gate: end-to-end wall p95 when the host can
        # actually run the workers concurrently; critical-path p95 (max
        # per-shard own-CPU seconds) when cores < shards, where wall
        # speedup is physically unattainable and would only measure the
        # scheduler, not the work division.
        if results["gate_mode"] == "wall":
            gated = results["p95_speedup"]
            label = "wall p95"
        else:
            gated = results["critical_p95_speedup"]
            label = (
                f"critical-path p95 ({results['usable_cpus']} usable cpus < "
                f"{results['shards']} shards)"
            )
        if gated < 2.5:
            failures.append(f"{label} speedup {gated}x < 2.5x")
    if failures:
        print("ACCEPTANCE FAILED: " + "; ".join(failures))
        return 1
    if args.check and not args.smoke:
        print(f"acceptance ok: 4-shard scatter-gather {label} speedup {gated}x "
              ">= 2.5x vs the 1-shard pipeline, byte-identical top-k, "
              "one-shard rewrite on single-table ingest")
    return 0


if __name__ == "__main__":
    sys.exit(main())
