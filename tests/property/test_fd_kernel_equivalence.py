"""Property suite: the interned FD kernel is indistinguishable from the
legacy object kernel.

``LegacyAliteFD`` is the pre-PR-4 object-level ALITE implementation, kept
verbatim; the interned kernel (integer-coded tuples, masked predicates,
packed postings, partition-first solving) must reproduce it **exactly** on
arbitrary inputs: identical cells, identical null kinds (``±`` vs ``⊥``),
identical provenance sets, identical row order -- for batch ``AliteFD``
and for ``integrate_incremental`` at every prefix.

The value alphabet deliberately mixes strings, ints, an equal float
(``1 == 1.0`` -- one interned code), a bool (``True != 1`` in data
context -- distinct codes) and nulls, so the interner's key collapsing and
the predicates' bool/int discipline are both exercised.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.integration import AliteFD, LegacyAliteFD, OracleFD
from repro.integration.tuples import cell_key
from repro.table import MISSING, Table
from repro.table.values import is_missing, is_null

# 1 and 1.0 must land on one interned code; True must stay distinct from
# both.  None becomes a missing null.
values = st.sampled_from(["a", "b", 1, 1.0, 2, True, None])


def tables_strategy(max_tables: int = 3, max_rows: int = 3):
    """Random integration sets over shared column names x, y, z."""

    @st.composite
    def build(draw):
        num_tables = draw(st.integers(1, max_tables))
        all_columns = ["x", "y", "z"]
        tables = []
        for t in range(num_tables):
            width = draw(st.integers(2, 3))
            columns = all_columns[:width]
            num_rows = draw(st.integers(1, max_rows))
            rows = []
            for _ in range(num_rows):
                rows.append(
                    tuple(
                        MISSING if cell is None else cell
                        for cell in draw(
                            st.lists(values, min_size=width, max_size=width)
                        )
                    )
                )
            tables.append(Table(columns, rows, name=f"T{t}"))
        return tables

    return build()


def null_kind_grid(result):
    return [tuple((is_null(c), is_missing(c)) for c in row) for row in result.rows]


def assert_same_result(reference, candidate):
    """Cells (by ``==`` *and* by normalized key, so ``True`` vs ``1``
    confusion cannot hide behind Python's bool==int), null kinds,
    provenance, and row order must all match."""
    assert tuple(candidate.columns) == tuple(reference.columns)
    assert list(candidate.rows) == list(reference.rows)
    assert [tuple(map(cell_key, r)) for r in candidate.rows] == [
        tuple(map(cell_key, r)) for r in reference.rows
    ]
    assert null_kind_grid(candidate) == null_kind_grid(reference)
    assert candidate.provenance == reference.provenance


class TestInternedEqualsLegacy:
    @settings(max_examples=80, deadline=None)
    @given(tables_strategy())
    def test_alite_interned_equals_legacy(self, tables):
        assert_same_result(
            LegacyAliteFD().integrate(tables), AliteFD().integrate(tables)
        )

    @settings(max_examples=40, deadline=None)
    @given(tables_strategy())
    def test_interned_equals_oracle_values(self, tables):
        oracle = OracleFD().integrate(tables)
        interned = AliteFD().integrate(tables)
        assert sorted(tuple(map(cell_key, r)) for r in interned.rows) == sorted(
            tuple(map(cell_key, r)) for r in oracle.rows
        )


class TestIncrementalEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(tables_strategy(max_tables=3, max_rows=2))
    def test_incremental_equals_batch_and_legacy_at_every_prefix(self, tables):
        # One instance across every prefix: it keeps nothing between
        # calls, so this guards a regression to state shared across them.
        interned_fd = AliteFD()
        legacy_fd = LegacyAliteFD()
        rolling = interned_fd.integrate([tables[0]])
        legacy_rolling = legacy_fd.integrate([tables[0]])
        assert_same_result(legacy_rolling, rolling)
        for i, table in enumerate(tables[1:], start=2):
            rolling = interned_fd.integrate_incremental(rolling, table)
            legacy_rolling = legacy_fd.integrate_incremental(legacy_rolling, table)
            assert_same_result(legacy_rolling, rolling)
            assert_same_result(AliteFD().integrate(tables[:i]), rolling)


class TestInternerReuse:
    @settings(max_examples=30, deadline=None)
    @given(tables_strategy(), tables_strategy())
    def test_shared_interner_never_changes_results(self, first, second):
        # One long-lived AliteFD (e.g. the pipeline-registered instance)
        # running two unrelated integrations must equal fresh instances.
        # Holds by construction -- each call owns its interner -- and stays
        # as the guard against a regression to state shared between calls.
        shared = AliteFD()
        renamed = [t.with_name(f"S{i}") for i, t in enumerate(second)]
        result_first = shared.integrate(first)
        result_second = shared.integrate(renamed)
        assert_same_result(AliteFD().integrate(first), result_first)
        assert_same_result(AliteFD().integrate(renamed), result_second)
