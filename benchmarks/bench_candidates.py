"""Candidate-engine fan-out search vs the full-scan baseline.

The claim under test (ISSUE 3 acceptance): at 2k synthetic tables, a
fan-out ``LakeIndex.search`` (every discoverer retrieving through the
shared :class:`repro.candidates.CandidateEngine`) is **>= 4x faster**
than the same fan-out with the engine forced exhaustive (every
discoverer scoring every lake table -- the pre-refactor shape), while
the top-k result sets stay **byte-identical**, and a warm
``Dialite.open`` serves the same queries without decoding a segment,
building its token postings once from the stats snapshots.

Two entry points:

* standalone -- ``python benchmarks/bench_candidates.py [--smoke]
  [--json out.json] [--check]`` prints the numbers and a JSON document;
* pytest -- the ``test_*`` functions below run a time-free equivalence
  smoke (engine results == full-scan results, warm results == cold
  results), which is what ``make ci`` exercises via ``make
  candidates-smoke``.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.pipeline import Dialite  # noqa: E402
from repro.datalake import DataLake, LakeIndex, seeds  # noqa: E402
from repro.obs import metrics as obs_metrics  # noqa: E402
from repro.store import LakeStore  # noqa: E402
from repro.table import MISSING, Table  # noqa: E402


# ----------------------------------------------------------------------
# Workload: single-token join keys over a wide vocabulary (so posting
# lists stay short) plus a city column (so SANTOS's KB channels engage).
# Each query gets a handful of *planted* joinable tables sharing most of
# its keys, so the sketch prefilter has real high-containment matches to
# retrieve -- everything else is background the engine should skip.
# ----------------------------------------------------------------------
def make_workload(
    num_tables: int, num_queries: int = 4, rows: int = 24, seed: int = 11
) -> tuple[DataLake, list[Table]]:
    rng = random.Random(seed)
    cities = list(seeds.CITIES)

    def random_rows(keys: list[str]) -> list[tuple]:
        return [
            (
                key,
                rng.choice(cities),
                rng.randrange(10_000) if rng.random() > 0.05 else MISSING,
            )
            for key in keys
        ]

    queries = []
    query_keys: list[list[str]] = []
    for q in range(num_queries):
        keys = [f"e{rng.randrange(num_tables * 5)}" for _ in range(rows)]
        query_keys.append(keys)
        queries.append(
            Table(
                ["key", "city", "score"],
                [(key, rng.choice(cities), round(rng.random(), 4)) for key in keys],
                name=f"bench_query_{q}",
            )
        )

    tables = []
    planted = 0
    for q, keys in enumerate(query_keys):
        for j in range(3):  # three joinable tables per query (60% key overlap)
            shared = keys[: (rows * 3) // 5]
            fresh = [f"e{rng.randrange(num_tables * 5)}" for _ in range(rows - len(shared))]
            tables.append(
                Table(
                    ["key", "city", f"metric_{j}"],
                    random_rows(shared + fresh),
                    name=f"join_{q}_{j}",
                )
            )
            planted += 1
    for t in range(num_tables - planted):
        keys = [f"e{rng.randrange(num_tables * 5)}" for _ in range(rows)]
        tables.append(
            Table(["key", "city", f"metric_{t % 7}"], random_rows(keys), name=f"t{t:05d}")
        )
    return DataLake(tables), queries


def build_index(lake: DataLake) -> LakeIndex:
    """The default discoverer roster (SANTOS + LSH Ensemble + JOSIE) over
    one shared engine -- the production fan-out configuration."""
    roster = Dialite(DataLake()).discoverers.components()
    return LakeIndex(lake, roster).build()


# ----------------------------------------------------------------------
# The two paths: engine-backed retrieval vs forced exhaustive scoring
# ----------------------------------------------------------------------
def run_fanout(index: LakeIndex, queries: list[Table], k: int) -> tuple[float, list]:
    """Time the fan-out searches; returns (seconds, comparable results)."""
    results = []
    start = time.perf_counter()
    for query in queries:
        per_discoverer = index.search(query, k=k, query_column="key")
        results.append(
            {
                name: [(r.table_name, round(r.score, 9)) for r in found]
                for name, found in per_discoverer.items()
            }
        )
    return time.perf_counter() - start, results


#: Roster members whose spec guarantees identical top-k vs a full scan.
#: LSH Ensemble's banded retrieval is declared lossy (see its spec note):
#: its contract is subset-with-bounded-scores, checked separately.
IDENTICAL_CONTRACT = {"santos", "josie"}


def contract_holds(engine_results: list, fullscan_results: list) -> bool:
    """Every discoverer's declared engine-vs-full-scan contract, per query."""
    for engine_query, full_query in zip(engine_results, fullscan_results):
        for name, engine_found in engine_query.items():
            full_found = full_query[name]
            if name in IDENTICAL_CONTRACT:
                if engine_found != full_found:
                    return False
            else:
                full_scores = dict(full_found)
                for table, score in engine_found:
                    if table not in full_scores or score > full_scores[table]:
                        return False
    return True


#: What a warm open and fan-out may move: it decodes no segment, and
#: builds the token postings once (values only for a roster declaring it).
WARM_COUNTERS = ("store.decode", "engine.build.tokens", "engine.build.values")


def counters() -> dict[str, int]:
    """The :data:`WARM_COUNTERS` in this process so far."""
    snapshot = obs_metrics.global_registry().snapshot()["counters"]
    return {name: snapshot.get(name, 0) for name in WARM_COUNTERS}


def warm_moves(store_dir: Path, queries: list[Table], k: int) -> tuple[list, dict[str, int]]:
    """A warm open of *store_dir* and a fan-out of *queries*: the results,
    and how far each of the :data:`WARM_COUNTERS` moved."""
    before = counters()
    warm = Dialite.open(store_dir).fit()
    _, results = run_fanout(warm.index, queries, k)
    return results, {name: value - before[name] for name, value in counters().items()}


#: What :func:`warm_moves` must report for the default roster.
WARM_EXPECTED = {"store.decode": 0, "engine.build.tokens": 1, "engine.build.values": 0}


def run_suite(num_tables: int, k: int = 10, repeats: int = 3) -> dict:
    # A fresh registry so the record's metrics cover exactly this run.
    obs_metrics.reset_global_registry()
    lake, queries = make_workload(num_tables)
    index = build_index(lake)
    engine = index.engine

    engine_s = float("inf")
    fullscan_s = float("inf")
    engine_results = fullscan_results = None
    scored: dict[str, int] = {}
    for _ in range(repeats):
        engine.force_exhaustive = False
        seconds, engine_results = run_fanout(index, queries, k)
        engine_s = min(engine_s, seconds)
        scored = {
            name: report["scored"]
            for name, report in index.retrieval_reports().items()
        }
        engine.force_exhaustive = True
        seconds, fullscan_results = run_fanout(index, queries, k)
        fullscan_s = min(fullscan_s, seconds)
    engine.force_exhaustive = False

    # Warm start: persist lake + indexes, reopen, assert the warm fan-out
    # decodes no segment, builds the token postings once and serves
    # identical results.
    store_dir = Path(tempfile.mkdtemp(prefix="bench_candidates_")) / "lake.store"
    try:
        store = LakeStore.create(store_dir)
        store.ingest(lake)
        index.save_to_store(store)
        warm_results, warm_moved = warm_moves(store_dir, queries, k)
    finally:
        shutil.rmtree(store_dir.parent, ignore_errors=True)

    return {
        "suite": "candidates",
        "tables": num_tables,
        "k": k,
        "queries": len(queries),
        "repeats": repeats,
        "engine_s": round(engine_s, 4),
        "fullscan_s": round(fullscan_s, 4),
        "speedup": round(fullscan_s / max(engine_s, 1e-12), 2),
        "results_identical": engine_results == fullscan_results,
        "contract_ok": contract_holds(engine_results, fullscan_results),
        "warm_results_identical": warm_results == engine_results,
        "warm_counters": warm_moved,
        "candidates_scored_last_query": scored,
        "metrics": obs_metrics.global_registry().snapshot(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tables", type=int, default=2000)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--smoke", action="store_true",
                        help="300 tables, 2 repeats, relaxed 1.5x gate (the CI mode)")
    parser.add_argument("--json", default=None, help="also write JSON here")
    parser.add_argument("--check", action="store_true",
                        help="fail unless the engine fan-out beats full scan "
                        "by the gate (6x full; 1.5x smoke, where fixed "
                        "per-query overhead dominates the tiny lake)")
    args = parser.parse_args(argv)

    num_tables = 300 if args.smoke else args.tables
    # Full gate raised from 4.0 with the segment-v2 PR's vectorized
    # posting probe (concatenate + bincount merges); measured ~13x.
    gate = 1.5 if args.smoke else 6.0
    results = run_suite(num_tables, repeats=2 if args.smoke else args.repeats)

    print(
        f"{results['tables']} tables, {results['queries']} queries: "
        f"full-scan {results['fullscan_s']:.3f}s, engine {results['engine_s']:.3f}s "
        f"-> {results['speedup']}x (identical: {results['results_identical']}, "
        f"warm identical: {results['warm_results_identical']}, "
        f"warm counters: {results['warm_counters']})"
    )
    print("candidates scored per discoverer (last query): "
          + json.dumps(results["candidates_scored_last_query"]))
    print(json.dumps(results))
    if args.json:
        path = Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(results, indent=2), encoding="utf-8")
        print(f"written: {args.json}")

    failures = []
    if not results["contract_ok"]:
        failures.append(
            "engine results violate a declared contract (identity for "
            "josie/santos, subset-with-bounded-scores for lsh_ensemble)"
        )
    if not results["warm_results_identical"]:
        failures.append("warm-start results differ")
    if results["warm_counters"] != WARM_EXPECTED:
        failures.append(
            f"warm start moved {results['warm_counters']}, not {WARM_EXPECTED}"
        )
    if args.check and results["speedup"] < gate:
        failures.append(f"speedup {results['speedup']}x < {gate}x")
    if failures:
        print("ACCEPTANCE FAILED: " + "; ".join(failures))
        return 1
    if args.check:
        print(f"acceptance ok: engine fan-out >= {gate}x faster than full scan, "
              f"identical top-k, warm start decodes no segment and builds "
              f"its token postings once")
    return 0


# ----------------------------------------------------------------------
# pytest entry points: the time-free equivalence smoke `make ci` runs
# ----------------------------------------------------------------------
def test_candidates_equivalence_smoke(tmp_path):
    lake, queries = make_workload(80, num_queries=2)
    index = build_index(lake)
    _, engine_results = run_fanout(index, queries, k=5)
    index.engine.force_exhaustive = True
    _, fullscan_results = run_fanout(index, queries, k=5)
    index.engine.force_exhaustive = False
    assert contract_holds(engine_results, fullscan_results)
    # On this fixed workload the stronger property also holds: no LSH
    # band miss, so the fan-out is byte-identical end to end.
    assert engine_results == fullscan_results
    assert any(any(found for found in per_query.values()) for per_query in engine_results)


def test_candidates_warm_postings_smoke(tmp_path):
    lake, queries = make_workload(40, num_queries=1)
    index = build_index(lake)
    _, cold_results = run_fanout(index, queries, k=5)
    store = LakeStore.create(tmp_path / "lake.store")
    store.ingest(lake)
    index.save_to_store(store)
    warm_results, moved = warm_moves(tmp_path / "lake.store", queries, k=5)
    assert warm_results == cold_results
    assert moved == WARM_EXPECTED


if __name__ == "__main__":
    sys.exit(main())
