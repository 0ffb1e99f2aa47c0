"""E13 -- incremental integration: folding tables into an existing FD result.

ALITE (and DIALITE's demo flow, where a user keeps adding discovered
tables) motivates an incremental mode: ``integrate_incremental(existing,
table)`` must equal the batch FD at every prefix, with the closure
warm-started by the previous result.
"""

from __future__ import annotations

from repro.datalake.synth import build_integration_set
from repro.integration import AliteFD
from repro.integration.tuples import cell_key

from conftest import print_header


def _values(result):
    return sorted(tuple(map(cell_key, row)) for row in result.rows)


def _tables():
    return build_integration_set(
        num_tables=6, rows_per_table=40, num_attributes=8,
        attributes_per_table=3, key_pool_size=60, null_rate=0.08, seed=23,
    )


def test_incremental_equals_batch_at_every_prefix(benchmark):
    tables = _tables()
    fd = AliteFD()

    def run_incremental():
        result = fd.integrate([tables[0]])
        for table in tables[1:]:
            result = fd.integrate_incremental(result, table)
        return result

    incremental = benchmark(run_incremental)
    batch = fd.integrate(tables)

    print_header("E13", "incremental FD vs batch FD")
    print(f"  final facts: incremental={incremental.num_rows}, batch={batch.num_rows}")

    assert _values(incremental) == _values(batch)
    # And at every prefix:
    rolling = fd.integrate([tables[0]])
    for i, table in enumerate(tables[1:], start=2):
        rolling = fd.integrate_incremental(rolling, table)
        assert _values(rolling) == _values(fd.integrate(tables[:i]))


def test_single_increment_cost(benchmark):
    """The interactive case: one more discovered table lands on a large
    existing result."""
    tables = _tables()
    fd = AliteFD()
    existing = fd.integrate(tables[:-1])

    result = benchmark(fd.integrate_incremental, existing, tables[-1])

    batch = fd.integrate(tables)
    print_header("E13 (one step)", "adding the 6th table to a 5-table result")
    print(f"  facts: {existing.num_rows} -> {result.num_rows}")
    assert _values(result) == _values(batch)
