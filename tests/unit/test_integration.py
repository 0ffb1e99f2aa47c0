"""Unit tests for the integration layer (repro.integration)."""

from __future__ import annotations

import pytest

from repro.integration import (
    AliteFD,
    InnerJoinIntegrator,
    NestedLoopFD,
    OracleFD,
    OuterJoinIntegrator,
    UnionIntegrator,
    connected_components,
    dedupe_tuples,
    joinable,
    merge_tuples,
    normalized_key,
    order_sensitivity,
    prepare_integration_input,
    remove_subsumed,
    subsumes,
)
from repro.integration.tuples import WorkTuple, cell_key
from repro.table import MISSING, PRODUCED, Table


def wt(*cells, tids=("t1",)):
    return WorkTuple(cells=tuple(cells), tids=frozenset(tids))


class TestJoinable:
    def test_agreeing_overlap(self):
        assert joinable(("a", "b", PRODUCED), ("a", PRODUCED, "c"))

    def test_conflict_blocks(self):
        assert not joinable(("a", "b"), ("a", "x"))

    def test_no_overlap_blocks(self):
        assert not joinable(("a", PRODUCED), (PRODUCED, "b"))

    def test_nulls_of_any_kind_do_not_join(self):
        assert not joinable((MISSING,), (MISSING,))
        assert not joinable((PRODUCED,), (MISSING,))

    def test_numeric_equality(self):
        assert joinable((1,), (1.0,))


class TestMergeAndSubsume:
    def test_merge_prefers_values_and_unions_tids(self):
        merged = merge_tuples(
            wt("a", PRODUCED, tids=("t1",)), wt("a", "b", tids=("t2",))
        )
        assert merged.cells == ("a", "b")
        assert merged.tids == frozenset({"t1", "t2"})

    def test_merge_null_kind_missing_wins(self):
        merged = merge_tuples(
            wt("a", MISSING, tids=("t1",)), wt("a", PRODUCED, tids=("t2",))
        )
        assert merged.cells[1] is MISSING

    def test_subsumes(self):
        assert subsumes(("a", "b"), ("a", PRODUCED))
        assert subsumes(("a", "b"), ("a", "b"))
        assert not subsumes(("a", PRODUCED), ("a", "b"))
        assert not subsumes(("a", "x"), ("a", "b"))

    def test_normalized_key_collapses_null_kind(self):
        def key(*cells):
            return normalized_key(WorkTuple(cells, frozenset({"t1"})))

        assert key("a", MISSING) == key("a", PRODUCED)
        assert key(1) == key(1.0)
        assert key("1") != key(1)


class TestDedupeAndSubsumption:
    def test_dedupe_picks_canonical_witness(self):
        # Equal-cardinality witnesses: the lexicographically smaller TID
        # list wins, independent of input order.
        forward = dedupe_tuples([wt("a", tids=("t1",)), wt("a", tids=("t2",))])
        backward = dedupe_tuples([wt("a", tids=("t2",)), wt("a", tids=("t1",))])
        assert len(forward) == 1
        assert forward[0].tids == backward[0].tids == frozenset({"t1"})

    def test_dedupe_keeps_minimal_support(self):
        unique = dedupe_tuples(
            [wt("a", tids=("t1",)), wt("a", tids=("t1", "t2"))]
        )
        assert unique[0].tids == frozenset({"t1"})

    def test_remove_subsumed(self):
        kept = remove_subsumed([wt("a", "b"), wt("a", PRODUCED, tids=("t9",))])
        assert len(kept) == 1
        assert kept[0].cells == ("a", "b")

    def test_all_null_tuple_dropped_when_others_exist(self):
        kept = remove_subsumed([wt(PRODUCED, PRODUCED), wt("a", PRODUCED)])
        assert len(kept) == 1

    def test_lone_all_null_tuple_survives(self):
        kept = remove_subsumed([wt(MISSING, MISSING)])
        assert len(kept) == 1

    def test_incomparable_tuples_all_kept(self):
        kept = remove_subsumed([wt("a", PRODUCED), wt(PRODUCED, "b")])
        assert len(kept) == 2


class TestPrepareInput:
    def test_tid_numbering_across_tables(self, vaccine_tables):
        header, work, sources = prepare_integration_input(vaccine_tables)
        assert len(work) == 6
        assert sources["t1"] == ("T4", 0)
        assert sources["t6"] == ("T6", 1)
        assert set(header) == {"Vaccine", "Approver", "Country"}

    def test_own_column_nulls_become_missing(self):
        t = Table(["a", "b"], [(PRODUCED, "x")], name="t")
        u = Table(["c"], [("y",)], name="u")
        _, work, _ = prepare_integration_input([t, u])
        # t's own null column -> MISSING; padding for c -> PRODUCED.
        assert work[0].cells[0] is MISSING
        assert work[0].cells[2] is PRODUCED

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            prepare_integration_input([])


class TestFDAlgorithms:
    @pytest.fixture(params=[AliteFD, NestedLoopFD, OracleFD])
    def algorithm(self, request):
        return request.param()

    def test_duplicate_table_names_rejected(self, algorithm, covid_query):
        with pytest.raises(ValueError, match="unique"):
            algorithm.integrate([covid_query, covid_query])

    def test_single_table_is_identity_modulo_subsumption(self, algorithm, covid_query):
        result = algorithm.integrate([covid_query])
        assert result.num_rows == covid_query.num_rows
        assert set(result.columns) == set(covid_query.columns)

    def test_all_algorithms_agree(self, algorithm, small_integration_set):
        expected = AliteFD().integrate(small_integration_set)
        if isinstance(algorithm, OracleFD):
            pytest.skip("oracle is exponential; covered by property tests")
        result = algorithm.integrate(small_integration_set)
        # Values must agree exactly; null KINDS are compared normalized
        # because they derive from the provenance witness, and a fact with
        # several equally-minimal witnesses may legitimately pick different
        # ones in different algorithms.
        expected_rows = sorted(tuple(map(cell_key, row)) for row in expected.rows)
        result_rows = sorted(tuple(map(cell_key, row)) for row in result.rows)
        assert result_rows == expected_rows

    def test_algorithms_deterministic_across_invocations(self, small_integration_set):
        first = AliteFD().integrate(small_integration_set)
        second = AliteFD().integrate(small_integration_set)
        assert first.equals(second)
        assert first.provenance == second.provenance

    def test_fd_associativity_table_order_irrelevant(self, vaccine_tables):
        from repro.table import ops

        forward = AliteFD().integrate(vaccine_tables)
        t4, t5, t6 = vaccine_tables
        backward = AliteFD().integrate([t6, t4, t5])
        # Column order follows table order (outer union); the relation
        # itself must be identical once projected to a common order.
        reordered = ops.project(backward, list(forward.columns))
        assert Table(forward.columns, forward.rows).equals(reordered, ignore_row_order=True)

    def test_disjoint_tables_stack_without_merging(self):
        a = Table(["x", "y"], [("1", "2")], name="a")
        b = Table(["x", "y"], [("3", "4")], name="b")
        result = AliteFD().integrate([a, b])
        assert result.num_rows == 2


class TestConnectedComponents:
    def test_connected_components_split(self):
        tuples = [wt("a", PRODUCED), wt("a", "b"), wt(PRODUCED, "z")]
        components, all_null = connected_components(tuples)
        assert len(components) == 2
        assert not all_null

    def test_all_null_separated(self):
        tuples = [wt(PRODUCED, PRODUCED), wt("a", PRODUCED)]
        components, all_null = connected_components(tuples)
        assert len(components) == 1
        assert len(all_null) == 1

    def test_degenerate_all_null_input(self):
        # No component at all: the partition-first solver keeps one tuple.
        t = Table(["a"], [(MISSING,), (MISSING,)], name="t")
        result = AliteFD().integrate([t])
        assert result.num_rows == 1


class TestJoinIntegrators:
    def test_outer_join_order_sensitivity_helper(self, vaccine_tables):
        results = list(order_sensitivity(vaccine_tables, max_orders=6))
        assert len(results) == 6
        row_counts = {table.num_rows for _, table in results}
        assert len(row_counts) >= 1  # counts may coincide; content differs below
        from repro.analysis import order_variability

        report = order_variability([table for _, table in results])
        assert report["distinct_outputs"] > 1

    def test_inner_join_drops_unmatched(self, vaccine_tables):
        result = InnerJoinIntegrator().integrate(vaccine_tables)
        # Only the Pfizer chain survives a full inner-join fold.
        assert result.num_rows <= 2

    def test_union_integrator_stacks_all(self, vaccine_tables):
        result = UnionIntegrator().integrate(vaccine_tables)
        assert result.num_rows == 6
        assert all(len(tids) == 1 for tids in result.provenance)

    def test_outer_join_no_shared_columns_degrades_to_padding(self):
        a = Table(["x"], [("1",)], name="a")
        b = Table(["y"], [("2",)], name="b")
        result = OuterJoinIntegrator().integrate([a, b])
        assert result.num_rows == 2
        assert result.columns == ("x", "y")


class TestIntegratedTable:
    def test_display_table_has_oid_and_tids(self, vaccine_tables):
        result = AliteFD().integrate(vaccine_tables)
        display = result.to_display_table()
        assert display.columns[:2] == ("OID", "TIDs")
        assert display.column("OID") == ["f1", "f2", "f3"]

    def test_provenance_alignment_enforced(self):
        from repro.integration.tuples import IntegratedTable

        with pytest.raises(ValueError, match="provenance"):
            IntegratedTable(["a"], [("x",)], provenance=[], tid_sources={})

    def test_find_fact_missing_returns_none(self, vaccine_tables):
        result = AliteFD().integrate(vaccine_tables)
        assert result.find_fact(Vaccine="Sputnik V") is None
