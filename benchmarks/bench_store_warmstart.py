"""Persistent-store warm start vs cold profile+sketch rebuild.

The claim under test (ISSUE 2 acceptance): at 1k synthetic tables, opening
a prebuilt :class:`repro.store.LakeStore` and serving a discovery query
(``Dialite.open(store).fit()`` + ``discover``) is **>= 5x faster** than the
cold path that re-scans every column, rebuilds every token set and
re-hashes every MinHash sketch (``Dialite(lake).fit()`` + ``discover``)
-- i.e. the cold-start cost is paid once per lake version, not once per
process.

Two entry points:

* standalone -- ``python benchmarks/bench_store_warmstart.py [--smoke]
  [--json out.json] [--check]`` prints the numbers and a JSON document;
* pytest -- the small ``test_*`` functions below run a time-free
  round-trip smoke (warm results == cold results, zero warm scans), which
  is what ``make ci`` exercises.
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
from repro.datalake import DataLake, LakeIndex  # noqa: E402
from repro.store import LakeStore  # noqa: E402
from repro.table import MISSING, Table  # noqa: E402


# ----------------------------------------------------------------------
# Workload: a lake of small tables over a shared key vocabulary, so the
# join discoverers have real overlap structure to index.
# ----------------------------------------------------------------------
def make_lake(num_tables: int, rows: int = 24, seed: int = 11) -> DataLake:
    rng = random.Random(seed)
    categories = [f"cat_{i}" for i in range(40)]
    tables = []
    for t in range(num_tables):
        table_rows = []
        for r in range(rows):
            key = f"entity {rng.randrange(num_tables * 5)}"
            category = rng.choice(categories)
            value = rng.randrange(10_000) if rng.random() > 0.05 else MISSING
            table_rows.append((key, category, value))
        tables.append(
            Table(["key", "category", f"metric_{t % 7}"], table_rows, name=f"t{t:05d}")
        )
    return DataLake(tables)


def make_query(num_tables: int, rows: int = 24, seed: int = 11) -> Table:
    # The query reuses the lake's key vocabulary: overlapping domains.
    rng = random.Random(seed + 1)
    return Table(
        ["key", "score"],
        [(f"entity {rng.randrange(num_tables * 5)}", rng.random()) for _ in range(rows)],
        name="bench_query",
    )


# ----------------------------------------------------------------------
# The two paths
# ----------------------------------------------------------------------
def run_cold(num_tables: int, k: int) -> tuple[float, list]:
    """Fresh tables, full profile + sketch + index rebuild, one discover."""
    lake = make_lake(num_tables)  # untimed: both paths need the data to exist
    query = make_query(num_tables)
    start = time.perf_counter()
    pipeline = Dialite(lake).fit()
    outcome = pipeline.discover(query, k=k, query_column="key")
    elapsed = time.perf_counter() - start
    return elapsed, [(r.table_name, round(r.score, 6)) for r in outcome.merged]


def prepare_store(num_tables: int, store_dir: Path) -> None:
    """The once-per-lake-version offline step (untimed)."""
    lake = make_lake(num_tables)
    store = LakeStore.create(store_dir)
    store.ingest(lake)
    roster = Dialite(DataLake()).discoverers.components()
    LakeIndex(store.lake(), roster).build().save_to_store(store)


def run_warm(
    num_tables: int, store_dir: Path, k: int
) -> tuple[float, float, list, int]:
    """Open the store, hydrate indexes, one discover; returns the two
    warm phases separately -- deserialization (open + fit: manifest and
    persisted indexes off disk, token postings built from the stats
    snapshots' token sets) vs serving
    (the discover itself) -- plus the number of raw-cell scans the warm
    run performed (must be 0)."""
    query = make_query(num_tables)
    start = time.perf_counter()
    pipeline = Dialite.open(store_dir).fit()
    opened = time.perf_counter()
    outcome = pipeline.discover(query, k=k, query_column="key")
    finished = time.perf_counter()
    scans = sum(pipeline.lake.stats.scan_counts().values())
    return (
        opened - start,
        finished - opened,
        [(r.table_name, round(r.score, 6)) for r in outcome.merged],
        scans,
    )


def run_suite(num_tables: int, k: int = 10, repeats: int = 3) -> dict:
    store_dir = Path(tempfile.mkdtemp(prefix="bench_store_")) / "lake.store"
    try:
        prepare_store(num_tables, store_dir)
        store_bytes = sum(
            f.stat().st_size for f in store_dir.rglob("*") if f.is_file()
        )
        # Best-of-N on both sides (same policy as bench_table_engine): each
        # repeat is a full fresh run -- cold rebuilds from fresh tables,
        # warm re-opens the store -- so the comparison is steady-state-free.
        cold_s = float("inf")
        warm_s = float("inf")
        warm_open_s = float("inf")
        warm_discover_s = float("inf")
        for _ in range(repeats):
            seconds, cold_results = run_cold(num_tables, k)
            cold_s = min(cold_s, seconds)
            open_s, discover_s, warm_results, warm_scans = run_warm(
                num_tables, store_dir, k
            )
            warm_s = min(warm_s, open_s + discover_s)
            warm_open_s = min(warm_open_s, open_s)
            warm_discover_s = min(warm_discover_s, discover_s)
    finally:
        shutil.rmtree(store_dir.parent, ignore_errors=True)
    return {
        "suite": "store_warmstart",
        "tables": num_tables,
        "k": k,
        "repeats": repeats,
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 4),
        "warm_open_s": round(warm_open_s, 4),
        "warm_discover_s": round(warm_discover_s, 4),
        "speedup": round(cold_s / max(warm_s, 1e-12), 2),
        "warm_scan_count": warm_scans,
        "results_identical": cold_results == warm_results,
        "store_bytes": store_bytes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tables", type=int, default=1000)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--smoke", action="store_true",
                        help="60 tables, 1 repeat, no acceptance check (the CI mode)")
    parser.add_argument("--json", default=None, help="also write JSON here")
    parser.add_argument("--check", action="store_true",
                        help="fail unless warm is >= 5x faster than cold")
    args = parser.parse_args(argv)

    num_tables = 60 if args.smoke else args.tables
    results = run_suite(num_tables, repeats=1 if args.smoke else args.repeats)

    print(
        f"{results['tables']} tables: cold {results['cold_s']:.3f}s, "
        f"warm {results['warm_s']:.3f}s "
        f"(open {results['warm_open_s']:.3f}s + discover "
        f"{results['warm_discover_s']:.3f}s) -> {results['speedup']}x "
        f"(warm scans: {results['warm_scan_count']}, "
        f"identical results: {results['results_identical']}, "
        f"store: {results['store_bytes'] / 1e6:.1f} MB)"
    )
    print(json.dumps(results))
    if args.json:
        path = Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(results, indent=2), encoding="utf-8")
        print(f"written: {args.json}")

    failures = []
    if not results["results_identical"]:
        failures.append("warm results differ from cold results")
    if results["warm_scan_count"] != 0:
        failures.append(f"warm run scanned {results['warm_scan_count']} columns")
    if args.check and results["speedup"] < 5.0:
        failures.append(f"speedup {results['speedup']}x < 5x")
    if failures:
        print("ACCEPTANCE FAILED: " + "; ".join(failures))
        return 1
    if args.check:
        print("acceptance ok: warm open+discover >= 5x faster than cold rebuild")
    return 0


# ----------------------------------------------------------------------
# pytest entry point: the time-free round-trip smoke `make ci` runs
# ----------------------------------------------------------------------
def test_store_roundtrip_smoke(tmp_path):
    store_dir = tmp_path / "lake.store"
    prepare_store(24, store_dir)
    cold_s, cold_results = run_cold(24, k=5)
    open_s, discover_s, warm_results, warm_scans = run_warm(24, store_dir, k=5)
    assert warm_results == cold_results
    assert warm_scans == 0
    assert cold_results, "the benchmark query should discover something"


if __name__ == "__main__":
    sys.exit(main())
