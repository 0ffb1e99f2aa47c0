"""Unit tests for offline index persistence: fitted discoverer indexes
live in a :class:`~repro.store.LakeStore` (``save_to_store`` /
``from_store``, the halves of ``open_index``)."""

from __future__ import annotations

import json
import pickle

import pytest

from repro.datalake import DataLake, LakeIndex
from repro.discovery import (
    FunctionDiscoverer,
    JosieJoinSearch,
    LSHEnsembleJoinSearch,
    SantosUnionSearch,
    value_overlap_similarity,
)
from repro.store import LakeStore, StoreError
from repro.table import Table


@pytest.fixture
def store(covid_unionable, covid_joinable, tmp_path):
    store = LakeStore.create(tmp_path / "indexes" / "lake.store")
    store.ingest(DataLake([covid_unionable, covid_joinable]))
    return store


class TestPersistence:
    def test_round_trip_preserves_results(self, store, covid_query):
        index = LakeIndex(
            store.lake(), [SantosUnionSearch(), LSHEnsembleJoinSearch(), JosieJoinSearch()]
        ).build()
        before = index.search_merged(covid_query, k=3, query_column="City")

        index.save_to_store(store)
        loaded = LakeIndex.from_store(store.path)

        assert loaded.is_built and not loaded.fitted
        after = loaded.search_merged(covid_query, k=3, query_column="City")
        assert [(r.table_name, r.score) for r in after] == [
            (r.table_name, r.score) for r in before
        ]

    def test_save_builds_if_needed(self, store):
        index = LakeIndex(store.lake(), [JosieJoinSearch()])
        assert not index.is_built
        index.save_to_store(store)
        assert index.is_built

    def test_load_rejects_foreign_pickle(self, store):
        LakeIndex(store.lake(), [JosieJoinSearch()]).save_to_store(store)
        [persisted] = (store.path / "indexes").iterdir()
        persisted.write_bytes(pickle.dumps({"not": "an index"}))
        with pytest.raises(StoreError, match="does not contain a Discoverer"):
            LakeIndex.from_store(store.path)

    def test_fit_times_are_not_persisted(self, store):
        """A fit time belongs to the fit (``fitted``, the ``index.fit.*``
        span), not to the store: the manifest names what was fitted, and
        an index that only hydrated fitted nothing."""
        index = LakeIndex(store.lake(), [JosieJoinSearch()]).build()
        index.save_to_store(store)
        assert set(index.fitted) == {"josie"}
        manifest = json.loads((store.path / "manifest.json").read_text())
        assert set(manifest["indexes"]["discoverers"]["josie"]) == {"file", "spec"}
        assert LakeIndex.from_store(store.path).fitted == {}


def city_lake(num_tables: int) -> DataLake:
    return DataLake(
        Table(
            ["City", "Count"],
            [(f"city{(i + j) % 50}", j) for j in range(20)],
            name=f"t{i}",
        )
        for i in range(num_tables)
    )


class TestUserDefinedIndex:
    """A user-defined discoverer keeps no lake after ``fit``: its pickle is
    the same few bytes at any lake size, and a loaded index answers from
    the loader's lake."""

    def test_pickle_size_independent_of_lake_size(self):
        small, large = (
            len(pickle.dumps(FunctionDiscoverer(value_overlap_similarity).fit(lake)))
            for lake in (city_lake(10), city_lake(1000))
        )
        assert small == large

    def test_round_trip_answers_identically(self, store, covid_query):
        index = LakeIndex(
            store.lake(), [FunctionDiscoverer(value_overlap_similarity)]
        ).build()
        before = index.search(covid_query, k=3)["user_defined"]
        assert before

        index.save_to_store(store)
        [persisted] = (store.path / "indexes").iterdir()
        assert b"repro.table" not in persisted.read_bytes()
        loaded = LakeIndex.from_store(store.path)

        assert loaded.is_built and not loaded.fitted
        assert loaded.search(covid_query, k=3)["user_defined"] == before
