"""Property-based tests for Full Disjunction (the reproduction's core).

The oracle test is the strongest guarantee in the suite: on arbitrary small
integration sets, AliteFD and NestedLoopFD must produce exactly
the value set of the brute-force definitional FD (:class:`OracleFD`).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.integration import (
    AliteFD,
    NestedLoopFD,
    OracleFD,
    UnionIntegrator,
    joinable,
    merge_tuples,
    normalized_key,
    remove_subsumed,
    subsumes,
)
from repro.integration.tuples import WorkTuple, cell_key
from repro.table import MISSING, Table

# Small value alphabet forces collisions -> merges actually happen.
values = st.sampled_from(["a", "b", "c", None])
rows = st.lists(values, min_size=2, max_size=3)


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
            table_rows = []
            for _ in range(num_rows):
                row = [
                    MISSING if cell is None else cell
                    for cell in draw(st.lists(values, min_size=width, max_size=width))
                ]
                table_rows.append(tuple(row))
            tables.append(Table(columns, table_rows, name=f"T{t}"))
        return tables

    return build()


def row_key(row):
    return tuple(map(cell_key, row))


def value_multiset(result):
    return sorted(row_key(row) for row in result.rows)


class TestAgainstOracle:
    @settings(max_examples=60, deadline=None)
    @given(tables_strategy())
    def test_alite_equals_oracle(self, tables):
        oracle = OracleFD().integrate(tables)
        alite = AliteFD().integrate(tables)
        assert value_multiset(alite) == value_multiset(oracle)

    @settings(max_examples=40, deadline=None)
    @given(tables_strategy())
    def test_nested_loop_equals_oracle(self, tables):
        oracle = OracleFD().integrate(tables)
        nested = NestedLoopFD().integrate(tables)
        assert value_multiset(nested) == value_multiset(oracle)


class TestFDInvariants:
    @settings(max_examples=50, deadline=None)
    @given(tables_strategy())
    def test_no_output_tuple_subsumed_by_another(self, tables):
        result = AliteFD().integrate(tables)
        rows = list(result.rows)
        for i, row in enumerate(rows):
            for j, other in enumerate(rows):
                if i != j:
                    assert not (
                        subsumes(other, row)
                        and row_key(other) != row_key(row)
                    )

    @settings(max_examples=50, deadline=None)
    @given(tables_strategy())
    def test_every_input_tuple_covered(self, tables):
        # FD never loses information: each input tuple is subsumed by some
        # output tuple (after aligning to the output header).
        result = AliteFD().integrate(tables)
        union = UnionIntegrator().integrate(tables)
        positions = [union.column_index(c) for c in result.columns]
        for row in union.rows:
            aligned = tuple(row[p] for p in positions)
            assert any(subsumes(out, aligned) for out in result.rows)

    @settings(max_examples=30, deadline=None)
    @given(tables_strategy(max_tables=3, max_rows=2))
    def test_table_order_invariance(self, tables):
        forward = AliteFD().integrate(tables)
        backward = AliteFD().integrate(list(reversed([t.with_name(t.name) for t in tables])))
        # Compare as relations over sorted column order.
        def canonical(result):
            columns = sorted(result.columns)
            positions = [result.column_index(c) for c in columns]
            return sorted(
                tuple(cell_key(row[p]) for p in positions) for row in result.rows
            )

        assert canonical(forward) == canonical(backward)

    @settings(max_examples=50, deadline=None)
    @given(tables_strategy())
    def test_idempotence(self, tables):
        # FD of an FD result is the FD result itself.
        once = AliteFD().integrate(tables)
        again = AliteFD().integrate([Table(once.columns, once.rows, name="once")])
        assert value_multiset(again) == value_multiset(once)

    @settings(max_examples=50, deadline=None)
    @given(tables_strategy())
    def test_provenance_is_a_real_witness(self, tables):
        # Merging exactly the provenance tuples reproduces each output row's
        # values (the witness actually derives the fact).
        from repro.integration import prepare_integration_input

        result = AliteFD().integrate(tables)
        _, work, _ = prepare_integration_input(tables)
        by_tid = {next(iter(w.tids)): w for w in work}
        for row, tids in zip(result.rows, result.provenance):
            members = [by_tid[t] for t in sorted(tids)]
            merged = members[0]
            rest = members[1:]
            # Merge in any feasible order (witnesses are connected).
            progress = True
            while rest and progress:
                progress = False
                for candidate in list(rest):
                    if joinable(merged.cells, candidate.cells):
                        merged = merge_tuples(merged, candidate)
                        rest.remove(candidate)
                        progress = True
            assert not rest
            assert normalized_key(merged) == row_key(row)


class TestTupleKernels:
    cells = st.lists(values, min_size=3, max_size=3).map(
        lambda row: tuple(MISSING if c is None else c for c in row)
    )

    @settings(max_examples=100, deadline=None)
    @given(cells, cells)
    def test_joinable_symmetric(self, a, b):
        assert joinable(a, b) == joinable(b, a)

    @settings(max_examples=100, deadline=None)
    @given(cells, cells)
    def test_merge_subsumes_both_parents(self, a, b):
        if joinable(a, b):
            merged = merge_tuples(
                WorkTuple(a, frozenset({"t1"})), WorkTuple(b, frozenset({"t2"}))
            )
            assert subsumes(merged.cells, a)
            assert subsumes(merged.cells, b)

    @settings(max_examples=100, deadline=None)
    @given(cells, cells, cells)
    def test_subsumption_transitive(self, a, b, c):
        if subsumes(a, b) and subsumes(b, c):
            assert subsumes(a, c)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(cells, min_size=1, max_size=6))
    def test_remove_subsumed_keeps_maximal_antichain(self, rows):
        tuples = [WorkTuple(c, frozenset({f"t{i}"})) for i, c in enumerate(rows)]
        kept = remove_subsumed(tuples)
        # Anti-chain: no kept tuple subsumes another (distinct values).
        for i, a in enumerate(kept):
            for j, b in enumerate(kept):
                if i != j:
                    assert not subsumes(a.cells, b.cells) or normalized_key(
                        a
                    ) == normalized_key(b)
        # Coverage: every input subsumed by something kept.
        for work in tuples:
            assert any(subsumes(k.cells, work.cells) for k in kept)
