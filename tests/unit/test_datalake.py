"""Unit tests for the data-lake substrate (catalog, indexer, synth)."""

from __future__ import annotations

import pytest

from repro.datalake import (
    DataLake,
    LakeIndex,
    SyntheticLakeBuilder,
    build_integration_set,
    perturb_string,
)
from repro.discovery import JosieJoinSearch, SantosUnionSearch
from repro.table import MISSING


class TestDataLake:
    def test_mapping_protocol(self, covid_unionable, covid_joinable):
        lake = DataLake([covid_unionable, covid_joinable])
        assert len(lake) == 2
        assert set(lake) == {"T2", "T3"}
        assert lake["T2"].num_rows == 3

    def test_duplicate_names_rejected(self, covid_unionable):
        lake = DataLake([covid_unionable])
        with pytest.raises(ValueError, match="already in lake"):
            lake.add(covid_unionable)

    def test_missing_table_error_message(self):
        with pytest.raises(KeyError, match="0 tables"):
            DataLake()["nope"]

    def test_round_trip_through_directory(self, tmp_path, covid_unionable):
        lake = DataLake([covid_unionable])
        lake.save_to(tmp_path)
        loaded = DataLake.from_dir(tmp_path)
        assert loaded["T2"].columns == covid_unionable.columns
        assert loaded["T2"].rows[1][2] is MISSING  # Mexico City's ± survives

    def test_from_dir_missing(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            DataLake.from_dir(tmp_path / "absent")

    def test_subset_order_preserved(self, covid_unionable, covid_joinable):
        lake = DataLake([covid_unionable, covid_joinable])
        subset = lake.subset(["T3", "T2"])
        assert [t.name for t in subset] == ["T3", "T2"]

    def test_total_rows(self, covid_unionable, covid_joinable):
        assert DataLake([covid_unionable, covid_joinable]).total_rows() == 7


class TestLakeIndex:
    def test_build_records_timings(self, covid_unionable, covid_joinable):
        lake = DataLake([covid_unionable, covid_joinable])
        index = LakeIndex(lake, [SantosUnionSearch(), JosieJoinSearch()]).build()
        assert set(index.fitted) == {"santos", "josie"}
        assert all(t >= 0 for t in index.fitted.values())

    def test_duplicate_discoverer_names_rejected(self, covid_unionable):
        lake = DataLake([covid_unionable])
        with pytest.raises(ValueError, match="unique"):
            LakeIndex(lake, [JosieJoinSearch(), JosieJoinSearch()])

    def test_search_filters_by_name(self, covid_unionable, covid_query):
        lake = DataLake([covid_unionable])
        index = LakeIndex(lake, [SantosUnionSearch(), JosieJoinSearch()])
        results = index.search(covid_query, k=2, discoverer_names=["josie"])
        assert set(results) == {"josie"}
        with pytest.raises(KeyError, match="unknown"):
            index.search(covid_query, discoverer_names=["nope"])

    def test_search_merged_union(self, covid_unionable, covid_joinable, covid_query):
        lake = DataLake([covid_unionable, covid_joinable])
        index = LakeIndex(lake, [SantosUnionSearch(), JosieJoinSearch()])
        merged = index.search_merged(covid_query, k=3)
        assert {r.table_name for r in merged} == {"T2", "T3"}


class TestSyntheticLake:
    def test_ground_truth_partition(self, small_synth_lake):
        truth = small_synth_lake.truth
        lake_names = set(small_synth_lake.lake)
        assert truth.unionable | truth.joinable | truth.distractors == lake_names
        assert not (truth.unionable & truth.joinable)

    def test_deterministic_per_seed(self):
        a = SyntheticLakeBuilder(seed=5).build(1, 1, 1)
        b = SyntheticLakeBuilder(seed=5).build(1, 1, 1)
        assert a.query.equals(b.query)
        for name in a.lake:
            assert a.lake[name].equals(b.lake[name])

    def test_joinable_tables_share_query_cities(self, small_synth_lake):
        query_cities = set(small_synth_lake.query.column("City"))
        for name in small_synth_lake.truth.joinable:
            table = small_synth_lake.lake[name]
            city_col = next(
                c for c in table.columns
                if c in ("City", "Municipality", "Town", "city_name", "Urban Area")
            )
            overlap = query_cities & set(table.column_values(city_col))
            assert overlap

    def test_null_injection(self):
        lake = SyntheticLakeBuilder(seed=1, null_rate=0.5).build(2, 2, 0)
        total_nulls = sum(t.null_count() for t in lake.lake.tables())
        assert total_nulls > 0


class TestIntegrationSetGenerator:
    def test_shared_key_column(self, small_integration_set):
        for table in small_integration_set:
            assert table.columns[0] == "Key"

    def test_value_consistency_across_fragments(self, small_integration_set):
        # Same (key, attribute) must carry the same value in every fragment.
        seen: dict[tuple[str, str], object] = {}
        for table in small_integration_set:
            for row in table.iter_dicts():
                key = row["Key"]
                for column, value in row.items():
                    if column == "Key" or value is MISSING:
                        continue
                    assert seen.setdefault((key, column), value) == value

    def test_deterministic(self):
        a = build_integration_set(num_tables=3, seed=9)
        b = build_integration_set(num_tables=3, seed=9)
        for x, y in zip(a, b):
            assert x.equals(y)


class TestPerturb:
    def test_rate_zero_is_identity(self):
        import random

        assert perturb_string("Berlin", random.Random(0), 0.0) == "Berlin"

    def test_rate_one_changes_something_eventually(self):
        import random

        rng = random.Random(0)
        outputs = {perturb_string("Berlin", rng, 1.0) for _ in range(20)}
        assert any(o != "Berlin" for o in outputs)


class TestBusinessTheme:
    def test_business_lake_builds_with_truth(self):
        synth = SyntheticLakeBuilder(seed=4, theme="business").build(2, 2, 2)
        assert "Company" in synth.query.columns
        assert len(synth.truth.unionable) == 2
        assert len(synth.truth.joinable) == 2

    def test_business_joinable_shares_companies(self):
        synth = SyntheticLakeBuilder(seed=4, theme="business", typo_rate=0.0).build(1, 2, 0)
        query_companies = set(synth.query.column("Company"))
        for name in synth.truth.joinable:
            table = synth.lake[name]
            assert query_companies & set(table.column_values("Company"))

    def test_unknown_theme_rejected(self):
        import pytest as _pytest

        with _pytest.raises(ValueError, match="theme"):
            SyntheticLakeBuilder(theme="sports")

    def test_business_discovery_end_to_end(self):
        from repro import Dialite

        synth = SyntheticLakeBuilder(seed=9, theme="business").build(2, 2, 3)
        pipeline = Dialite(synth.lake).fit()
        outcome = pipeline.discover(synth.query.with_name("Q"), k=4, query_column="Company")
        assert set(outcome.discovered_names) & synth.truth.relevant()


class TestEmptyLakeRobustness:
    def test_pipeline_on_empty_lake(self, covid_query):
        from repro import Dialite, DataLake

        pipeline = Dialite(DataLake()).fit()
        outcome = pipeline.discover(covid_query, k=5)
        assert outcome.merged == []
        assert [t.name for t in outcome.integration_set] == ["T1"]
        integrated = pipeline.integrate(outcome)
        assert integrated.num_rows == covid_query.num_rows
