"""Unit tests for the pipeline core (registry, results, Dialite)."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro
from repro import Dialite, DataLake
from repro.core.registry import DuplicateComponentError, Registry
from repro.discovery import inner_join_similarity
from repro.integration import Integrator
from repro.service import LakeService
from repro.store import LakeStore


@pytest.mark.parametrize(
    "package",
    ["repro", *(m.name for m in pkgutil.iter_modules(repro.__path__, "repro.") if m.ispkg)],
)
def test_every_exported_name_resolves_once(package):
    """A stale ``__all__`` entry is invisible until someone star-imports."""
    module = importlib.import_module(package)
    exported = module.__all__
    assert sorted(set(exported)) == sorted(exported)
    assert [name for name in exported if not hasattr(module, name)] == []


class TestRegistry:
    def test_register_get_roundtrip(self):
        registry: Registry[int] = Registry("thing")
        registry.register("one", 1)
        assert registry.get("one") == 1
        assert "one" in registry and len(registry) == 1

    def test_duplicate_rejected_unless_replace(self):
        registry: Registry[int] = Registry("thing")
        registry.register("x", 1)
        with pytest.raises(DuplicateComponentError):
            registry.register("x", 2)
        registry.register("x", 2, replace=True)
        assert registry.get("x") == 2

    def test_missing_lists_available(self):
        registry: Registry[int] = Registry("thing")
        registry.register("a", 1)
        with pytest.raises(KeyError, match="registered: \\['a'\\]"):
            registry.get("b")

    def test_unregister(self):
        registry: Registry[int] = Registry("thing")
        registry.register("a", 1)
        assert registry.unregister("a") == 1
        with pytest.raises(KeyError):
            registry.unregister("a")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Registry("thing").register("", 1)


@pytest.fixture
def pipeline(covid_unionable, covid_joinable):
    return Dialite(DataLake([covid_unionable, covid_joinable])).fit()


class TestDialiteDiscovery:
    def test_discover_builds_integration_set(self, pipeline, covid_query):
        outcome = pipeline.discover(covid_query, k=3, query_column="City")
        assert outcome.integration_set[0].name == "T1"
        assert set(outcome.discovered_names) == {"T2", "T3"}

    def test_query_name_collision_rejected(self, pipeline, covid_unionable):
        with pytest.raises(ValueError, match="collides"):
            pipeline.discover(covid_unionable)

    def test_select_subset(self, pipeline, covid_query):
        outcome = pipeline.discover(covid_query, k=3, query_column="City")
        chosen = outcome.select(["T3"])
        assert [t.name for t in chosen] == ["T1", "T3"]
        with pytest.raises(KeyError):
            outcome.select(["nope"])

    def test_summary_table(self, pipeline, covid_query):
        outcome = pipeline.discover(covid_query, k=3)
        summary = outcome.summary()
        assert summary.columns == ("table", "score", "best_discoverer", "reason")


class TestLazyIntegrationSet:
    """The outcome names its integration set; tables are read from the
    lake when -- and only when -- somebody asks for them."""

    @pytest.fixture
    def stored(self, tmp_path, covid_unionable, covid_joinable):
        store = LakeStore.create(tmp_path / "lake.store")
        store.ingest(DataLake([covid_unionable, covid_joinable]))
        Dialite(store=store).index.save_to_store(store)
        return Dialite.open(tmp_path / "lake.store").fit()

    def test_discover_reads_no_table(self, stored, covid_query):
        outcome = stored.discover(covid_query, k=3, query_column="City")
        assert set(outcome.discovered_names) == {"T2", "T3"}
        assert stored.lake.loaded_names == []

    def test_materialised_once_and_equal_to_the_eager_list(self, stored, covid_query):
        outcome = stored.discover(covid_query, k=3, query_column="City")
        tables = outcome.integration_set
        assert sorted(stored.lake.loaded_names) == sorted(outcome.discovered_names)
        assert tables[0] is covid_query
        for table, name in zip(tables[1:], outcome.discovered_names, strict=True):
            assert table is stored.lake[name]
        assert outcome.integration_set is tables  # kept, not rebuilt

    def test_select_validates_names_before_loading_and_loads_the_subset(
        self, stored, covid_query
    ):
        outcome = stored.discover(covid_query, k=3, query_column="City")
        with pytest.raises(KeyError):
            outcome.select(["T3", "nope"])
        assert stored.lake.loaded_names == []
        assert [t.name for t in outcome.select(["T3"])] == ["T1", "T3"]
        assert stored.lake.loaded_names == ["T3"]

    def test_service_discover_never_touches_it(self, stored, covid_query):
        with LakeService(pipeline=stored) as service:
            payload = service.discover(covid_query, k=3, query_column="City").payload
        assert set(payload["integration_set"]) == {"T2", "T3"}
        assert stored.lake.loaded_names == []


class TestDialiteIntegration:
    def test_integrate_outcome_directly(self, pipeline, covid_query):
        outcome = pipeline.discover(covid_query, k=3, query_column="City")
        integrated = pipeline.integrate(outcome)
        assert integrated.num_rows == 7  # Figure 3

    def test_integrator_by_name(self, pipeline, covid_query):
        outcome = pipeline.discover(covid_query, k=3, query_column="City")
        oj = pipeline.integrate(outcome, integrator="outer_join")
        assert oj.algorithm == "outer_join"

    def test_unknown_integrator(self, pipeline, covid_tables):
        with pytest.raises(KeyError):
            pipeline.integrate(covid_tables, integrator="nope")

    def test_prealigned_skip_alignment(self, pipeline, small_integration_set):
        integrated = pipeline.integrate(small_integration_set, align=False)
        assert "Key" in integrated.columns

    def test_default_integrator_validated_eagerly(self, covid_unionable):
        with pytest.raises(KeyError):
            Dialite(DataLake([covid_unionable]), default_integrator="bogus")


class TestDialiteAnalyze:
    def test_analyze_by_name(self, pipeline, covid_query):
        outcome = pipeline.discover(covid_query, k=3, query_column="City")
        integrated = pipeline.integrate(outcome)
        described = pipeline.analyze(integrated, "describe")
        assert described["rows"] == 7

    def test_run_end_to_end_with_analyses(self, pipeline, covid_query):
        result = pipeline.run(
            covid_query,
            k=3,
            query_column="City",
            analyses={"describe": {}},
        )
        assert result.integrated.num_rows == 7
        assert result.analyses["describe"]["rows"] == 7
        assert "T2" in result.integration_set_names


class TestDialiteExtensibility:
    def test_add_similarity_function_fig4(self, pipeline, covid_query):
        pipeline.add_discoverer(inner_join_similarity, name="inner_join_sim")
        outcome = pipeline.discover(
            covid_query, k=3, discoverer_names=["inner_join_sim"]
        )
        assert outcome.per_discoverer["inner_join_sim"]
        assert outcome.per_discoverer["inner_join_sim"][0].table_name == "T3"

    @pytest.mark.parametrize("shards", [None, 4])
    def test_add_discoverer_on_a_stored_lake_closes_the_old_index(
        self, tmp_path, shards, covid_unionable, covid_joinable, covid_query
    ):
        """One rule for both layouts: the index fitted for the old roster
        is closed (a 4-shard lake's worker processes exit, not linger
        until GC), the next discover fits the newcomer where the index
        lives, and a fresh process hydrates it."""
        import multiprocessing
        import time

        from repro.shard import ShardedLakeStore

        path = tmp_path / "lake"
        if shards is None:
            store = LakeStore.create(path)
        else:
            store = ShardedLakeStore.create(path, num_shards=shards)
        store.ingest(DataLake([covid_unionable, covid_joinable]))
        before = {p.pid for p in multiprocessing.active_children()}
        pipeline = Dialite.open(path)
        assert pipeline.discover(covid_query, k=3, query_column="City").discovered_names
        old = pipeline.index
        workers = {p.pid for p in multiprocessing.active_children()} - before
        assert len(workers) == (shards or 0)

        pipeline.add_discoverer(inner_join_similarity, name="inner_join_sim")
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and workers & {
            p.pid for p in multiprocessing.active_children()
        }:
            time.sleep(0.02)
        assert not workers & {p.pid for p in multiprocessing.active_children()}
        if shards:
            assert old._closed
        try:
            assert pipeline.index is not old
            outcome = pipeline.discover(
                covid_query, k=3, discoverer_names=["inner_join_sim"]
            )
            assert outcome.per_discoverer["inner_join_sim"][0].table_name == "T3"
        finally:
            pipeline.index.close()
        fresh = Dialite.open(path)
        fresh.add_discoverer(inner_join_similarity, name="inner_join_sim")
        try:
            assert fresh.index.fitted == {}  # what the first pipeline fitted, persisted
        finally:
            fresh.index.close()

    def test_add_custom_integrator_fig6(self, pipeline, covid_tables):
        class FirstTableOnly(Integrator):
            name = "first_only"

            def _integrate(self, tables, name):
                from repro.integration import UnionIntegrator

                return UnionIntegrator().integrate(tables[:1], name=name)

        pipeline.add_integrator(FirstTableOnly())
        result = pipeline.integrate(covid_tables, integrator="first_only")
        assert result.num_rows == 3

    def test_add_custom_app(self, pipeline, covid_query):
        from repro.analysis import AnalysisApp

        class RowCounter(AnalysisApp):
            name = "row_counter"

            def run(self, table, **options):
                return table.num_rows

        pipeline.add_app(RowCounter())
        assert pipeline.analyze(covid_query, "row_counter") == 3

    def test_generate_query_passthrough(self, pipeline):
        table = pipeline.generate_query("covid cases", rows=4, seed=2)
        assert table.num_rows == 4

    def test_lake_accepts_plain_sequences(self, covid_unionable):
        pipeline = Dialite([covid_unionable])
        assert "T2" in pipeline.lake
        pipeline2 = Dialite({"T2": covid_unionable})
        assert "T2" in pipeline2.lake


class TestAllDiscoverersConstructor:
    def test_six_engines_registered(self, covid_unionable):
        pipeline = Dialite.with_all_discoverers(DataLake([covid_unionable]))
        assert set(pipeline.discoverers.names) == {
            "santos", "lsh_ensemble", "josie", "starmie", "tus", "cocoa",
        }

    def test_discovery_works_across_all(self, covid_unionable, covid_joinable, covid_query):
        pipeline = Dialite.with_all_discoverers(
            DataLake([covid_unionable, covid_joinable])
        ).fit()
        outcome = pipeline.discover(covid_query, k=3, query_column="City")
        assert set(outcome.per_discoverer) == set(pipeline.discoverers.names)
        assert "T2" in outcome.discovered_names
