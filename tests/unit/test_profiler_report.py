"""Unit tests for the lake profiler and the markdown run report."""

from __future__ import annotations

import pytest

from repro import Dialite, DataLake
from repro.analysis import pipeline_report, table_to_markdown
from repro.datalake import profile_lake, profile_table
from repro.table import MISSING, Table


class TestProfiler:
    @pytest.fixture
    def table(self):
        return Table(
            ["city", "pop"],
            [("Berlin", 3.6), ("Berlin", 3.6), ("Boston", MISSING)],
            name="cities",
        )

    def test_profile_table_columns(self, table):
        profile = profile_table(table)
        assert profile.columns == (
            "table", "column", "dtype", "rows", "non_null", "distinct",
            "numeric_frac", "examples",
        )
        city_row = dict(zip(profile.columns, profile.rows[0]))
        assert city_row["rows"] == 3
        assert city_row["non_null"] == 3
        assert city_row["distinct"] == 2
        assert "Berlin" in city_row["examples"]

    def test_null_and_numeric_accounting(self, table):
        profile = profile_table(table)
        pop_row = dict(zip(profile.columns, profile.rows[1]))
        assert pop_row["non_null"] == 2
        assert pop_row["numeric_frac"] == 1.0

    def test_profile_lake_stacks(self, table):
        lake = DataLake([table, table.with_name("copy")])
        profile = profile_lake(lake)
        assert profile.num_rows == 4
        assert set(profile.column("table")) == {"cities", "copy"}


class TestMarkdown:
    def test_table_to_markdown_escapes_pipes(self):
        table = Table(["a"], [("x|y",)])
        markdown = table_to_markdown(table)
        assert "x\\|y" in markdown
        assert markdown.splitlines()[1] == "|---|"

    def test_truncation_noted(self):
        table = Table(["a"], [(i,) for i in range(30)])
        markdown = table_to_markdown(table, max_rows=5)
        assert "25 more rows" in markdown


class TestPipelineReport:
    def test_full_report_sections(self, covid_unionable, covid_joinable, covid_query):
        pipeline = Dialite(DataLake([covid_unionable, covid_joinable])).fit()
        result = pipeline.run(
            covid_query, k=3, query_column="City", analyses={"describe": {}}
        )
        report = pipeline_report(result)
        assert report.startswith("# DIALITE run report")
        assert "## Discovery" in report
        assert "## Integration" in report
        assert "### describe" in report
        assert "`T2`" in report and "`T3`" in report
        assert "7 facts" in report
        assert "±" in report or "⊥" in report
