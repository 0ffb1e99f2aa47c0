"""E8 -- the ALITE speed claim: "correct and faster than existing FD
algorithms".

Sweeps the number of tables and rows on pre-aligned synthetic fragment sets
and times AliteFD (indexed, partition-first complementation) against
NestedLoopFD (the pre-ALITE pass-based baseline).
Expected shape: ALITE beats NestedLoop with a widening gap; both produce
identical relations (asserted).
"""

from __future__ import annotations

import time

import pytest

from repro.datalake.synth import build_integration_set
from repro.integration import AliteFD, NestedLoopFD
from repro.integration.tuples import cell_key

from conftest import print_header


def _values(result):
    return sorted(tuple(map(cell_key, row)) for row in result.rows)


def _sweep_point(num_tables: int, rows: int):
    return build_integration_set(
        num_tables=num_tables,
        rows_per_table=rows,
        num_attributes=8,
        attributes_per_table=3,
        key_pool_size=rows * 2,
        null_rate=0.08,
        seed=17,
    )


@pytest.mark.parametrize("num_tables", [2, 4, 6, 8])
def test_alite_scaling_tables(benchmark, num_tables):
    tables = _sweep_point(num_tables, rows=60)
    result = benchmark(AliteFD().integrate, tables)
    assert result.num_rows > 0


@pytest.mark.parametrize("algorithm", [AliteFD, NestedLoopFD])
def test_algorithm_comparison_fixed_size(benchmark, algorithm):
    tables = _sweep_point(num_tables=6, rows=60)
    result = benchmark(algorithm().integrate, tables)
    assert _values(result) == _values(AliteFD().integrate(tables))


def test_sweep_table_printed(benchmark):
    """The E8 series the paper's claim predicts, as one printed table."""
    rows_of_report = []
    for num_tables in (2, 4, 6, 8):
        tables = _sweep_point(num_tables, rows=50)
        timings = {}
        for algorithm in (AliteFD(), NestedLoopFD()):
            start = time.perf_counter()
            result = algorithm.integrate(tables)
            timings[algorithm.name] = time.perf_counter() - start
        rows_of_report.append(
            (num_tables, result.num_rows, timings["alite_fd"],
             timings["nested_loop_fd"])
        )

    print_header("E8", "FD runtime sweep (seconds) -- ALITE vs baselines")
    print(f"{'#tables':>8} {'out rows':>9} {'alite':>9} {'nested':>9} {'speedup':>8}")
    for tables, out_rows, alite, nested in rows_of_report:
        print(
            f"{tables:>8} {out_rows:>9} {alite:>9.4f} "
            f"{nested:>9.4f} {nested / max(alite, 1e-9):>7.1f}x"
        )

    # The claim's shape: nested-loop strictly slower at the largest point,
    # and the gap grows with scale.
    first_gap = rows_of_report[0][3] / max(rows_of_report[0][2], 1e-9)
    last_gap = rows_of_report[-1][3] / max(rows_of_report[-1][2], 1e-9)
    assert rows_of_report[-1][3] > rows_of_report[-1][2]
    assert last_gap > first_gap

    benchmark(AliteFD().integrate, _sweep_point(8, rows=50))
