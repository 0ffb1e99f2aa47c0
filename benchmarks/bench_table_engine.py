"""Table-engine micro-benchmark: columnar ops vs the seed's row-major ops.

Times the hot relational operators (hash join, outer union, distinct) and
lake profiling at 1k / 10k rows, against a row-major **reference
implementation** transcribed from the seed engine, and checks the PR's
acceptance floor: >= 2x on hash join and outer union at 10k rows.

Two entry points:

* standalone -- ``python benchmarks/bench_table_engine.py [--smoke]
  [--json out.json]`` prints a human table plus a JSON document (the same
  shape the other ``bench_*`` scripts emit through pytest-benchmark);
* pytest -- ``pytest benchmarks/bench_table_engine.py --benchmark-only``
  runs the columnar side under pytest-benchmark.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.datalake import DataLake, profile_lake  # noqa: E402
from repro.table import Table, ops  # noqa: E402
from repro.table.ops import _hashable  # noqa: E402
from repro.table.values import PRODUCED, is_null  # noqa: E402


# ----------------------------------------------------------------------
# Workload
# ----------------------------------------------------------------------
def make_pair(num_rows: int, seed: int = 7) -> tuple[Table, Table]:
    """A joinable left/right pair with ~1 match per key and some misses."""
    rng = random.Random(seed)
    keys = [f"k{rng.randrange(num_rows)}" for _ in range(num_rows)]
    left = Table(
        ["k", "a", "b", "c"],
        [(keys[i], i, float(i) / 3.0, f"v{i % 97}") for i in range(num_rows)],
        name="L",
    )
    right = Table(
        ["k", "x", "y"],
        [(keys[(i * 7) % num_rows], i * 2, f"w{i % 89}") for i in range(num_rows)],
        name="R",
    )
    # Pre-materialize the row views so the row-major reference isn't charged
    # for the lazy transpose the columnar engine skips.
    left.rows, right.rows
    return left, right


def make_union_set(num_rows: int, seed: int = 7) -> list[Table]:
    left, right = make_pair(num_rows, seed)
    third = Table(
        ["k", "z"],
        [(f"k{i}", i % 5) for i in range(num_rows)],
        name="Z",
    )
    third.rows
    return [left, right, third]


def make_lake(num_rows: int, seed: int = 7) -> DataLake:
    return DataLake(make_union_set(num_rows, seed))


# ----------------------------------------------------------------------
# Row-major reference (transcribed from the seed engine)
# ----------------------------------------------------------------------
def _ref_key_of(row, positions):
    key = []
    for position in positions:
        cell = row[position]
        if is_null(cell):
            return None
        key.append(_hashable(cell))
    return tuple(key)


def rowmajor_full_outer_join(left: Table, right: Table) -> Table:
    on = [c for c in left.columns if right.has_column(c)]
    left_key_pos = [left.column_index(c) for c in on]
    right_key_pos = [right.column_index(c) for c in on]
    right_extra = [c for c in right.columns if c not in on]
    right_extra_pos = [right.column_index(c) for c in right_extra]
    header = list(left.columns) + right_extra
    index: dict = {}
    for i, row in enumerate(right.rows):
        key = _ref_key_of(row, right_key_pos)
        if key is not None:
            index.setdefault(key, []).append(i)
    matched: set[int] = set()
    rows = []
    for row in left.rows:
        key = _ref_key_of(row, left_key_pos)
        matches = index.get(key, []) if key is not None else []
        if matches:
            for j in matches:
                matched.add(j)
                right_row = right.rows[j]
                rows.append(row + tuple(right_row[p] for p in right_extra_pos))
        else:
            rows.append(row + (PRODUCED,) * len(right_extra))
    left_pos = {c: i for i, c in enumerate(left.columns)}
    for j, right_row in enumerate(right.rows):
        if j in matched:
            continue
        out = [PRODUCED] * len(left.columns)
        for column, right_p in zip(on, right_key_pos):
            out[left_pos[column]] = right_row[right_p]
        out.extend(right_row[p] for p in right_extra_pos)
        rows.append(tuple(out))
    return Table(header, rows, name="joined")


def rowmajor_outer_union(tables: list[Table]) -> Table:
    header: list[str] = []
    seen: set[str] = set()
    for table in tables:
        for column in table.columns:
            if column not in seen:
                seen.add(column)
                header.append(column)
    rows = []
    for table in tables:
        positions = {c: i for i, c in enumerate(table.columns)}
        for row in table.rows:
            rows.append(
                tuple(
                    row[positions[c]] if c in positions else PRODUCED
                    for c in header
                )
            )
    return Table(header, rows, name="outer_union")


def rowmajor_distinct(table: Table) -> Table:
    seen: set = set()
    rows = []
    for row in table.rows:
        key = tuple(_hashable(cell) for cell in row)
        if key not in seen:
            seen.add(key)
            rows.append(row)
    return Table(table.columns, rows, name=table.name)


def rowmajor_profile(lake) -> Table:
    """The seed profiler: fresh per-column scans and exact distinct counts."""
    from repro.text.normalize import numeric_fraction

    header = ["table", "column", "dtype", "rows", "non_null", "distinct",
              "numeric_frac", "examples"]
    rows = []
    for table in lake.values():
        for spec in table.schema:
            values = [row[table.column_index(spec.name)] for row in table.rows]
            non_null = [v for v in values if not is_null(v)]
            examples = list(dict.fromkeys(str(v) for v in non_null))[:3]
            rows.append(
                (table.name, spec.name, spec.dtype, len(values), len(non_null),
                 len(set(non_null)), round(numeric_fraction(non_null), 3),
                 ", ".join(examples))
            )
    return Table(header, rows, name="lake_profile")


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def _best_of(func, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def run_suite(sizes: list[int], repeats: int) -> dict:
    results: dict = {"suite": "table_engine", "sizes": {}}
    for num_rows in sizes:
        left, right = make_pair(num_rows)
        union_set = make_union_set(num_rows)
        union_table = ops.outer_union(union_set)
        union_table.rows  # pre-materialize for the row-major distinct
        # Both profilers must report the same table, or the speedup
        # compares unlike work.
        lake = make_lake(num_rows)
        assert rowmajor_profile(lake) == profile_lake(lake), "the profilers disagree"

        cases = {
            "hash_join": (
                lambda: rowmajor_full_outer_join(left, right),
                lambda: ops.full_outer_join(left, right),
            ),
            "outer_union": (
                lambda: rowmajor_outer_union(union_set),
                lambda: ops.outer_union(union_set),
            ),
            "distinct": (
                lambda: rowmajor_distinct(union_table),
                lambda: ops.distinct(union_table),
            ),
            "profile": (
                lambda: rowmajor_profile(make_lake(num_rows)),
                # Cold columnar profile: fresh tables so the stats cache
                # is charged for its single pass.
                lambda: profile_lake(make_lake(num_rows)),
            ),
        }
        point: dict = {}
        for case, (rowmajor, columnar) in cases.items():
            seconds_rowmajor = _best_of(rowmajor, repeats)
            seconds_columnar = _best_of(columnar, repeats)
            point[case] = {
                "rowmajor_s": round(seconds_rowmajor, 6),
                "columnar_s": round(seconds_columnar, 6),
                "speedup": round(seconds_rowmajor / max(seconds_columnar, 1e-12), 2),
            }
        results["sizes"][str(num_rows)] = point
    return results


def check_acceptance(results: dict, floor: float = 2.0) -> list[str]:
    """The PR's floor: >= 2x on hash join and outer union at the largest size."""
    largest = str(max(int(s) for s in results["sizes"]))
    failures = []
    for case in ("hash_join", "outer_union"):
        speedup = results["sizes"][largest][case]["speedup"]
        if speedup < floor:
            failures.append(f"{case}@{largest}: {speedup}x < {floor}x")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="1k rows only, 2 repeats (the CI mode)")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--json", default=None, help="also write JSON here")
    parser.add_argument("--no-check", action="store_true",
                        help="skip the >= 2x acceptance check")
    args = parser.parse_args(argv)

    sizes = [1000] if args.smoke else [1000, 10000]
    repeats = 2 if args.smoke else args.repeats
    results = run_suite(sizes, repeats)

    print(f"{'rows':>6} {'case':<12} {'row-major':>11} {'columnar':>11} {'speedup':>8}")
    for size, cases in results["sizes"].items():
        for case, numbers in cases.items():
            print(
                f"{size:>6} {case:<12} {numbers['rowmajor_s']:>10.4f}s "
                f"{numbers['columnar_s']:>10.4f}s {numbers['speedup']:>7.2f}x"
            )
    print()
    print(json.dumps(results))
    if args.json:
        Path(args.json).parent.mkdir(parents=True, exist_ok=True)
        Path(args.json).write_text(json.dumps(results, indent=2), encoding="utf-8")
        print(f"written: {args.json}")

    if not args.no_check and not args.smoke:
        failures = check_acceptance(results)
        if failures:
            print("ACCEPTANCE FAILED: " + "; ".join(failures))
            return 1
        print("acceptance ok: >= 2x on hash join + outer union at 10k rows")
    return 0


# ----------------------------------------------------------------------
# pytest-benchmark entry points (columnar side only)
# ----------------------------------------------------------------------
def test_columnar_join_10k(benchmark):
    left, right = make_pair(10_000)
    result = benchmark(ops.full_outer_join, left, right)
    assert result.num_rows >= 10_000


def test_columnar_outer_union_10k(benchmark):
    tables = make_union_set(10_000)
    result = benchmark(ops.outer_union, tables)
    assert result.num_rows == 30_000


def test_columnar_distinct_10k(benchmark):
    union_table = ops.outer_union(make_union_set(10_000))
    result = benchmark(ops.distinct, union_table)
    assert 0 < result.num_rows <= union_table.num_rows


def test_speedup_floor():
    """The acceptance criterion, pinned as a plain test (3 repeats)."""
    results = run_suite([10_000], repeats=3)
    assert not check_acceptance(results), check_acceptance(results)


if __name__ == "__main__":
    sys.exit(main())
