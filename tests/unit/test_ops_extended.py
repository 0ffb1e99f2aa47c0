"""Unit tests for the extended relational operators."""

from __future__ import annotations

import pytest

from repro.table import MISSING, PRODUCED, Table, ops


@pytest.fixture
def left():
    return Table(["k", "a"], [("x", 1), ("y", 2), (MISSING, 3)], name="L")


@pytest.fixture
def right():
    return Table(["k", "b"], [("x", 10), ("w", 12)], name="R")


class TestSemiAntiJoin:
    def test_semi_join_keeps_matching(self, left, right):
        result = ops.semi_join(left, right)
        assert result.columns == ("k", "a")
        assert result.column("k") == ["x"]

    def test_anti_join_keeps_unmatched_and_null_keys(self, left, right):
        result = ops.anti_join(left, right)
        assert result.column("a") == [2, 3]  # y row + null-key row

    def test_semi_plus_anti_partition_left(self, left, right):
        semi = ops.semi_join(left, right)
        anti = ops.anti_join(left, right)
        assert semi.num_rows + anti.num_rows == left.num_rows

    def test_no_shared_columns_raises(self, left):
        other = Table(["z"], [("q",)], name="o")
        with pytest.raises(ValueError, match="no shared columns"):
            ops.semi_join(left, other)


class TestAddDropColumns:
    def test_add_column_computes_from_row(self, left):
        result = ops.add_column(left, "a2", lambda row: row["a"] * 2 if row["a"] else row["a"])
        assert result.column("a2") == [2, 4, 6]

    def test_add_column_position(self, left):
        result = ops.add_column(left, "first", lambda row: 0, position=0)
        assert result.columns[0] == "first"

    def test_add_existing_rejected(self, left):
        with pytest.raises(ValueError, match="already"):
            ops.add_column(left, "a", lambda row: 0)

    def test_drop_columns(self, left):
        result = ops.drop_columns(left, ["a"])
        assert result.columns == ("k",)

    def test_drop_unknown_rejected(self, left):
        with pytest.raises(KeyError):
            ops.drop_columns(left, ["zz"])

    def test_drop_all_rejected(self, left):
        with pytest.raises(ValueError, match="every column"):
            ops.drop_columns(left, ["k", "a"])


class TestValueCounts:
    def test_counts_sorted_desc(self):
        table = Table(["c"], [("a",), ("b",), ("a",), (MISSING,)])
        counts = ops.value_counts(table, "c")
        assert counts.rows[0] == ("a", 2)
        assert counts.num_rows == 3

    def test_null_kinds_counted_separately(self):
        table = Table(["c"], [(MISSING,), (PRODUCED,), (MISSING,)])
        counts = ops.value_counts(table, "c")
        assert {(repr(v), n) for v, n in counts.rows} == {("±", 2), ("⊥", 1)}


class TestSample:
    def test_deterministic(self):
        table = Table(["x"], [(i,) for i in range(100)])
        assert ops.sample(table, 10, seed=4).equals(ops.sample(table, 10, seed=4))

    def test_sample_larger_than_table_is_identity(self, left):
        assert ops.sample(left, 100).equals(left)

    def test_negative_rejected(self, left):
        with pytest.raises(ValueError):
            ops.sample(left, -1)


class TestPivot:
    @pytest.fixture
    def long_table(self):
        return Table(
            ["city", "metric", "value"],
            [
                ("Berlin", "cases", 10),
                ("Berlin", "deaths", 1),
                ("Boston", "cases", 20),
                ("Boston", "cases", 30),
            ],
            name="long",
        )

    def test_wide_shape(self, long_table):
        wide = ops.pivot(long_table, "city", "metric", "value")
        assert wide.columns == ("city", "cases", "deaths")
        assert wide.num_rows == 2

    def test_aggregation_applied(self, long_table):
        wide = ops.pivot(long_table, "city", "metric", "value", agg="mean")
        boston = dict(zip(wide.columns, wide.rows[1]))
        assert boston["cases"] == 25

    def test_missing_combination_is_produced_null(self, long_table):
        wide = ops.pivot(long_table, "city", "metric", "value")
        boston = dict(zip(wide.columns, wide.rows[1]))
        assert boston["deaths"] is PRODUCED

    def test_custom_agg(self, long_table):
        wide = ops.pivot(long_table, "city", "metric", "value", agg=len)
        boston = dict(zip(wide.columns, wide.rows[1]))
        assert boston["cases"] == 2
