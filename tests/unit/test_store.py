"""Unit tests for the persistent lake store (repro.store).

Covers the segment codec, content hashing, incremental ingest semantics
(only deltas are rewritten; versions bump; stale indexes drop), sketch-
config compatibility enforcement, the lazy warm-start read path, and the
zero-raw-scan guarantee of a warm discover run.
"""

from __future__ import annotations

import base64
import json
import re

import numpy as np
import pytest

from repro.core.pipeline import Dialite
from repro.datalake import DataLake, LakeIndex
from repro.datalake.fixtures import (
    covid_joinable_table,
    covid_query_table,
    covid_unionable_table,
)
from repro.discovery import JosieJoinSearch, LSHEnsembleJoinSearch
from repro.sketch import MinHasher
from repro.store import (
    IngestReport,
    LakeStore,
    SegmentCorrupted,
    SketchConfig,
    SketchConfigMismatch,
    StatsCorrupted,
    StoreError,
    StoreFormatUnsupported,
    StoreNotFound,
    table_content_hash,
)
from repro.store.codec import decode_table, encode_table
from repro.table import MISSING, PRODUCED, Table

from deltas import deltas
from old_store import (
    OTHER_FORMAT_VERSIONS,
    READS_ONLY,
    as_format_1,
    downgrade_to_v1,
    with_segment_format_tags,
)


@pytest.fixture
def lake():
    return DataLake([covid_unionable_table(), covid_joinable_table()])


@pytest.fixture
def store(tmp_path, lake):
    store = LakeStore.create(tmp_path / "lake.store")
    store.ingest(lake)
    return store


class TestCodec:
    def test_column_round_trip_preserves_null_kinds(self):
        array = ("x", 1, 2.5, True, False, MISSING, PRODUCED, "", "±")
        table = Table(["c"], [(cell,) for cell in array], name="t")
        restored = decode_table(json.loads(json.dumps(encode_table(table))))
        assert restored.name == "t" and restored.column_array("c") == array
        assert restored.rows[5][0] is MISSING and restored.rows[6][0] is PRODUCED

    def test_content_hash_ignores_name_but_not_data(self):
        a = Table(["c"], [(1,), (2,)], name="a")
        b = Table(["c"], [(1,), (2,)], name="b")
        c = Table(["c"], [(1,), (3,)], name="a")
        d = Table(["d"], [(1,), (2,)], name="a")
        assert table_content_hash(a) == table_content_hash(b)
        assert table_content_hash(a) != table_content_hash(c)
        assert table_content_hash(a) != table_content_hash(d)

    def test_content_hash_distinguishes_null_kinds(self):
        a = Table(["c"], [(MISSING,)], name="t")
        b = Table(["c"], [(PRODUCED,)], name="t")
        assert table_content_hash(a) != table_content_hash(b)


class TestCreateOpen:
    def test_open_missing_raises(self, tmp_path):
        with pytest.raises(StoreNotFound):
            LakeStore.open(tmp_path / "nope")

    def test_create_twice_requires_exist_ok(self, tmp_path):
        LakeStore.create(tmp_path / "s")
        with pytest.raises(StoreError, match="already exists"):
            LakeStore.create(tmp_path / "s")
        assert LakeStore.create(tmp_path / "s", exist_ok=True).lake_version == 0

    def test_sketch_config_mismatch_raises_clear_error(self, tmp_path, lake):
        custom = SketchConfig(minhash_seed=99)
        store = LakeStore.create(tmp_path / "s", sketch_config=custom)
        store.ingest(lake)
        with pytest.raises(SketchConfigMismatch, match="seed"):
            LakeStore.open(tmp_path / "s")
        # Matching config (or an explicit opt-out) opens fine.
        assert LakeStore.open(tmp_path / "s", sketch_config=custom).sketch_config == custom
        assert LakeStore.open(tmp_path / "s", check_sketch=False).sketch_config == custom

    def test_foreign_manifest_rejected(self, tmp_path):
        target = tmp_path / "s"
        target.mkdir()
        (target / "manifest.json").write_text(json.dumps({"format": "other"}))
        with pytest.raises(StoreError, match="manifest"):
            LakeStore.open(target)

    @pytest.mark.parametrize("version", OTHER_FORMAT_VERSIONS)
    def test_any_other_format_version_is_refused(self, store, version):
        """Only the ``format_version`` this code writes opens; the error
        names the version found (or its absence) and the one it reads."""
        manifest_path = store.path / "manifest.json"
        manifest = json.loads(manifest_path.read_text("utf-8"))
        if version is None:
            del manifest["format_version"]
        else:
            manifest["format_version"] = version
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(StoreFormatUnsupported) as refused:
            LakeStore.open(store.path)
        found = "no format_version" if version is None else f"format_version {version},"
        assert found in str(refused.value)
        assert READS_ONLY in str(refused.value)
        assert str(manifest_path) in str(refused.value)

    def test_a_format_1_store_is_refused_by_its_version(self, store):
        """The format-1 writer's sketch block has a third field; the
        version check comes first, so the refusal says to rebuild."""
        as_format_1(store.path)
        with pytest.raises(StoreFormatUnsupported, match="format_version 1,") as refused:
            LakeStore.open(store.path)
        assert "index build" in str(refused.value)
        assert "sketch block" not in str(refused.value)

    @pytest.mark.parametrize("damage", ["truncated", "not an object"])
    def test_an_undecodable_manifest_is_a_store_error(self, store, damage):
        manifest_path = store.path / "manifest.json"
        text = manifest_path.read_text("utf-8")
        manifest_path.write_text(
            text[: len(text) // 2] if damage == "truncated" else "[1, 2]",
            encoding="utf-8",
        )
        with pytest.raises(StoreError, match=re.escape(str(manifest_path))):
            LakeStore.open(store.path)

    @pytest.mark.parametrize(
        "sketch",
        [
            "missing",
            [128, 1, 12],
            {**SketchConfig().to_json(), "extra": 1},
            {"minhash_num_perm": 128},
            {**SketchConfig().to_json(), "minhash_seed": True},
            {**SketchConfig().to_json(), "minhash_seed": -1},
            {**SketchConfig().to_json(), "minhash_seed": 2**64},
            {**SketchConfig().to_json(), "minhash_num_perm": 0},
            {**SketchConfig().to_json(), "minhash_num_perm": 128.0},
            {**SketchConfig().to_json(), "hll_precision": 12},
        ],
    )
    def test_a_malformed_sketch_block_is_a_store_error(self, store, sketch, capsys):
        """Not an object, a field too many or too few, or a field that
        is no int in its range: a typed error naming the file, which the
        CLI prints as ``error:`` and exits 2 on."""
        from repro.cli import main

        manifest_path = store.path / "manifest.json"
        manifest = json.loads(manifest_path.read_text("utf-8"))
        if sketch == "missing":
            del manifest["sketch"]
        else:
            manifest["sketch"] = sketch
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(StoreError, match=re.escape(str(manifest_path))) as refused:
            LakeStore.open(store.path)
        assert "sketch block" in str(refused.value)
        assert main(["index", "info", "--store", str(store.path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {manifest_path}")

    def test_sketch_config_json_round_trip(self):
        for config in (SketchConfig(), SketchConfig(7, 2**64 - 1), SketchConfig(1, 0)):
            assert SketchConfig.from_json(config.to_json()) == config


class TestIncrementalIngest:
    def test_first_ingest_adds_everything(self, tmp_path, lake):
        store = LakeStore.create(tmp_path / "s")
        report = store.ingest(lake)
        assert isinstance(report, IngestReport)
        assert sorted(report.added) == ["T2", "T3"]
        assert report.lake_version == 1 and report.changed

    def test_unchanged_reingest_rewrites_nothing(self, store, lake):
        segment_files = {f: f.stat().st_mtime_ns for f in store.path.rglob("*.seg.*")}
        report = store.ingest(lake)
        assert sorted(report.unchanged) == ["T2", "T3"]
        assert not report.changed
        assert store.lake_version == 1  # version only moves on content change
        after = {f: f.stat().st_mtime_ns for f in store.path.rglob("*.seg.*")}
        assert after == segment_files  # byte-for-byte untouched files

    def test_replacing_one_table_rewrites_only_that_table(self, store, lake):
        mtimes = {f.name: f.stat().st_mtime_ns for f in store.path.rglob("*.seg.*")}
        replacement = Table(  # T3 with its last row dropped: real new content
            lake["T3"].columns,
            list(lake["T3"].rows[:-1]),
            name="T3",
        )
        changed = DataLake([lake["T2"], replacement])
        report = store.ingest(changed)
        assert report.updated == ("T3",) and report.unchanged == ("T2",)
        assert store.lake_version == 2
        after = {f.name: f.stat().st_mtime_ns for f in store.path.rglob("*.seg.*")}
        unchanged_files = [n for n in after if after[n] == mtimes.get(n)]
        assert len(unchanged_files) == 1  # T2's segment untouched

    def test_removing_a_table_prunes_its_files(self, store, lake):
        report = store.ingest(DataLake([lake["T2"]]))
        assert report.removed == ("T3",)
        assert store.table_names == ["T2"]
        assert len(list(store.path.rglob("*.seg.*"))) == 1

    def test_ingest_warms_unchanged_inmemory_tables(self, store, lake):
        fresh = DataLake(
            [covid_unionable_table(), covid_joinable_table()]
        )  # new objects, cold caches
        store.ingest(fresh)
        # Unchanged tables adopted the stored snapshot: fully warm, no scan.
        stats = fresh["T2"].stats.column("City")
        assert stats.scan_count == 0
        assert stats.distinct  # served from the snapshot

    def test_remove_api(self, store):
        store.remove("T2")
        assert "T2" not in store
        with pytest.raises(KeyError):
            store.remove("T2")


class TestWarmReadPath:
    def test_open_is_lazy(self, tmp_path, store):
        warm = LakeStore.open(store.path).lake()
        assert list(warm) == ["T2", "T3"]
        assert warm.total_rows() == 7  # manifest-served, no segment read
        assert warm.loaded_names == []
        _ = warm.stats.scan_counts()  # stats hydrate without cell data
        assert warm.loaded_names == []
        assert warm["T2"].num_rows == 3
        assert warm.loaded_names == ["T2"]

    def test_round_trip_preserves_arrays_and_stats(self, store, lake):
        warm = LakeStore.open(store.path).lake()
        for name, original in lake.items():
            stored = warm[name]
            assert stored.column_arrays == original.column_arrays
            for column in original.columns:
                ours, theirs = stored.stats.column(column), original.stats.column(column)
                assert ours.distinct == theirs.distinct
                assert ours.tokens == theirs.tokens
                assert ours.dtype == theirs.dtype
                assert ours.null_count == theirs.null_count
                assert ours.numeric_fraction == theirs.numeric_fraction

    def test_stored_lake_is_read_only(self, store):
        warm = store.lake()
        with pytest.raises(TypeError, match="read-only"):
            warm.add(Table(["c"], [(1,)], name="new"))

    def test_hydrated_values_derive_without_scan(self, store):
        from repro.table import is_null

        stats = store.table_stats("T3").column("Death Rate")
        values = stats.values  # pages the table's segment in, filters nulls
        cells = store.load_table("T3").column_array("Death Rate")
        expected = [v for v in cells if not is_null(v)]
        assert values == expected
        assert stats.scan_count == 0


class TestPersistedIndexes:
    def test_from_store_serves_without_scans(self, store, lake):
        LakeIndex(store.lake(), Dialite(DataLake()).discoverers.components()).build().save_to_store(store)

        warm_store = LakeStore.open(store.path)
        warm_lake = warm_store.lake()
        index = LakeIndex.from_store(warm_store)
        assert index.is_built
        results = index.search_merged(covid_query_table(), k=3, query_column="City")
        assert {r.table_name for r in results} == {"T2", "T3"}
        assert all(n == 0 for n in warm_lake.stats.scan_counts().values())

    def test_from_store_without_indexes_raises(self, store):
        with pytest.raises(StoreError, match="no persisted discoverer indexes"):
            LakeIndex.from_store(store)

    def test_ingest_invalidates_stale_indexes(self, store, lake):
        LakeIndex(store.lake(), Dialite(DataLake()).discoverers.components()).build().save_to_store(store)
        assert len(store.load_indexes()) == 3
        smaller = DataLake([lake["T2"]])
        store.ingest(smaller)
        assert store.load_indexes() == {}  # version moved on; indexes dropped
        assert not list(store.path.glob("indexes/*.pkl"))

    def test_unfitted_discoverer_rejected(self, store):
        from repro.discovery import JosieJoinSearch

        with pytest.raises(StoreError, match="not fitted"):
            store.save_indexes([JosieJoinSearch()])

    def test_missing_roster_member_is_fitted_warm(self, store):
        from repro.discovery import JosieJoinSearch

        index = LakeIndex.from_store(store, discoverers=[JosieJoinSearch()])
        assert index.is_built
        results = index.search(covid_query_table(), k=3, query_column="City")
        assert results["josie"]


class TestDialiteWarmStart:
    def test_open_fit_discover_zero_scans(self, store):
        LakeIndex(store.lake(), Dialite(DataLake()).discoverers.components()).build().save_to_store(store)

        pipeline = Dialite.open(store.path).fit()
        outcome = pipeline.discover(covid_query_table(), k=5, query_column="City")
        assert {r.table_name for r in outcome.merged} == {"T2", "T3"}
        counts = pipeline.lake.stats.scan_counts()
        assert counts and all(n == 0 for n in counts.values())
        # Integration works off the lazily materialized tables.
        integrated = pipeline.integrate(outcome)
        assert integrated.num_rows == 7

    def test_warm_results_match_cold_results(self, store, lake):
        LakeIndex(store.lake(), Dialite(DataLake()).discoverers.components()).build().save_to_store(store)
        warm = Dialite.open(store.path).fit()
        cold = Dialite(DataLake([covid_unionable_table(), covid_joinable_table()])).fit()
        query = covid_query_table()
        warm_merged = warm.discover(query, k=5, query_column="City").merged
        cold_merged = cold.discover(query.with_name("query"), k=5, query_column="City").merged
        assert [(r.table_name, r.score) for r in warm_merged] == [
            (r.table_name, r.score) for r in cold_merged
        ]

    def test_datalake_open_classmethod(self, store):
        lake = DataLake.open(store.path)
        assert sorted(lake) == ["T2", "T3"]
        assert lake["T2"].stats.column("City").scan_count == 0


    def test_datalake_open_adopts_a_sharded_root(self, tmp_path, lake):
        from repro.shard import ShardedLakeStore

        ShardedLakeStore.create(tmp_path / "sharded", num_shards=2).ingest(lake)
        opened = DataLake.open(tmp_path / "sharded")
        assert list(opened) == list(Dialite.open(tmp_path / "sharded").lake)
        assert sorted(opened) == sorted(lake) and len(opened) == len(lake)
        assert opened.total_rows() == lake.total_rows()
        assert opened.stats.column("T3", "City").scan_count == 0
        assert opened.loaded_names == []  # lazy: names, rows and stats read no cell
        assert opened["T2"].rows == lake["T2"].rows
        assert opened.loaded_names == ["T2"]


class TestCrashSafety:
    """Updates are content-addressed: new files first, manifest commit
    second, stale-file cleanup last -- a crash never strands a manifest
    pointing into rewritten bytes."""

    def test_update_writes_new_segment_path(self, store, lake):
        old_segment = store.path / store._manifest["tables"]["T3"]["segment"]
        replacement = Table(lake["T3"].columns, list(lake["T3"].rows[:-1]), name="T3")
        store.ingest(DataLake([lake["T2"], replacement]))
        new_segment = store.path / store._manifest["tables"]["T3"]["segment"]
        assert new_segment != old_segment  # content-addressed stem
        assert new_segment.exists() and not old_segment.exists()

    def test_load_indexes_tolerates_orphaned_entry(self, store):
        LakeIndex(
            store.lake(), Dialite(DataLake()).discoverers.components()
        ).build().save_to_store(store)
        for file in store.path.glob("indexes/*.pkl"):
            file.unlink()  # simulate a crash window / manual tampering
        assert store.load_indexes() == {}


class TestCocoaRebind:
    """COCOA keeps no lake: it reads a candidate's cells through its
    candidate set, so its pickle carries no cell and a loaded index needs
    only its engine back (LakeIndex.from_store binds it)."""

    def test_pickle_excludes_cell_data_and_from_store_rebinds(self, store, lake):
        from repro.discovery.cocoa import CocoaJoinSearch

        LakeIndex(store.lake(), [CocoaJoinSearch()]).build().save_to_store(store)
        import pickle as _pickle

        data = next(store.path.glob("indexes/cocoa-*.pkl")).read_bytes()
        raw = _pickle.loads(data)
        assert "_lake" not in vars(raw)
        assert b"repro.table.table" not in data  # no Table in the pickle

        index = LakeIndex.from_store(store.path)
        query = Table(
            ["City", "Rate"],
            [(c, float(i)) for i, c in enumerate(lake["T3"].column_values("City"))],
            name="cocoa_query",
        )
        results = index.search(query, k=3, query_column="City")
        assert [r.table_name for r in results["cocoa"]] == ["T3"]

    def test_unrebound_cocoa_fails_loudly(self, lake):
        import pickle

        from repro.candidates import CandidateEngine
        from repro.discovery.cocoa import CocoaJoinSearch

        fitted = CocoaJoinSearch().fit(lake)
        clone = pickle.loads(pickle.dumps(fitted))
        query = Table(["City", "x"], [("Berlin", 1.0)], name="q")
        with pytest.raises(RuntimeError, match="bind_engine"):
            clone.search(query, k=3, query_column="City")
        clone.bind_engine(CandidateEngine(lake))
        assert clone.search(query, k=3, query_column="City") is not None


class TestVersionWatch:
    """The serving layer's cheap on-disk version poll + reader safety
    under a concurrent writer (ISSUE 5 satellites)."""

    def test_current_version_tracks_disk_without_reopen(self, store, lake):
        reader = LakeStore.open(store.path)
        assert reader.current_version() == reader.lake_version == 1
        writer = LakeStore.open(store.path)
        writer.ingest(
            {"extra": Table(["City"], [("Oslo",)], name="extra")}, prune=False
        )
        # The reader handle's in-memory manifest is a stable snapshot...
        assert reader.lake_version == 1
        # ...while the poll sees the committed on-disk version.
        assert reader.current_version() == 2

    def test_version_beacon_file_written_and_fallback(self, store):
        beacon = store.path / "version.json"
        assert json.loads(beacon.read_text())["lake_version"] == 1
        # Stores written before the beacon existed fall back to the
        # manifest (and a corrupt beacon is ignored, not fatal).
        beacon.unlink()
        assert store.current_version() == 1
        beacon.write_text("not json")
        assert store.current_version() == 1

    def test_handle_left_behind_refuses_to_commit(self, store, lake):
        """A handle whose version the store has moved past must not write
        its manifest over the newer one (a shard worker that fitted v
        while an ingest wrote v+1 is exactly such a handle)."""
        behind = LakeStore.open(store.path)
        index = LakeIndex(behind.lake(), [JosieJoinSearch()]).build()
        LakeStore.open(store.path).ingest(
            {"extra": Table(["City"], [("Oslo",)], name="extra")}, prune=False
        )
        with pytest.raises(StoreError, match="moved to v2"):
            index.save_to_store(behind)
        with pytest.raises(StoreError, match="moved to v2"):
            behind.remove("T2")
        current = LakeStore.open(store.path)
        assert current.lake_version == 2 and "extra" in current
        assert not (store.path / "journal.json").exists()

    def test_refresh_adopts_artifacts_another_handle_persisted(self, store):
        other = LakeStore.open(store.path)
        LakeIndex(other.lake(), [JosieJoinSearch()]).build().save_to_store(other)
        assert store.info()["indexes"] == []
        store.refresh()
        assert store.info()["indexes"] == ["josie"]
        assert store.info()["indexes_lake_version"] == store.lake_version
        # ...so the next content change knows the files it orphans.
        store.remove("T2")
        assert not list((store.path / "indexes").glob("*.pkl"))

    def test_reopen_returns_fresh_handle_same_config(self, store):
        fresh = store.reopen()
        assert fresh is not store
        assert fresh.lake_version == store.lake_version
        assert fresh.sketch_config == store.sketch_config

    def test_reader_never_sees_torn_manifest_during_ingest(self, tmp_path, lake):
        """A reader polling/opening while a writer ingests repeatedly must
        only ever observe complete manifests and monotonic versions (the
        atomic tmp+replace commit contract)."""
        import threading

        path = tmp_path / "race.store"
        store = LakeStore.create(path)
        store.ingest(lake)
        stop = threading.Event()
        failures = []

        def reader():
            last = 0
            while not stop.is_set():
                try:
                    version = LakeStore.open(path).current_version()
                    opened = LakeStore.open(path)
                    assert set(opened.table_names) >= {"T2", "T3"}
                    if version < last:
                        failures.append(f"version went backwards: {last}->{version}")
                    last = version
                except Exception as error:  # noqa: BLE001
                    failures.append(repr(error))
                    return

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        writer = LakeStore.open(path)
        for round_number in range(20):
            writer.ingest(
                {
                    "churn": Table(
                        ["City", "round"], [("Berlin", round_number)], name="churn"
                    )
                },
                prune=False,
            )
        stop.set()
        for thread in threads:
            thread.join(timeout=10)
        assert not failures
        assert writer.lake_version == 21  # 20 churn rewrites after the seed


class TestStatsCacheBound:
    def test_unbounded_default_keeps_everything(self, store):
        store.table_stats("T2")
        store.table_stats("T3")
        assert len(store._stats_cache) == 2
        assert store._stats_cache.evictions == 0

    def test_lru_cache_primitive(self):
        from repro.store.lru import LRUCache

        clock = [0.0]
        cache = LRUCache(capacity=2, ttl=5.0, clock=lambda: clock[0])
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes recency
        cache.put("c", 3)  # evicts b (least recently used)
        assert cache.get("b") is None and cache.get("a") == 1
        assert cache.evictions == 1
        clock[0] = 6.0
        assert cache.get("a") is None  # TTL lapsed
        assert cache.expirations == 1
        with pytest.raises(ValueError):
            LRUCache(capacity=0)


class TestSegmentFormats:
    """Every segment is written and read in one format (``.seg.bin``).  A
    store the v1 (JSONL) writer left is refused at open; one whose
    entries still carry the ``segment_format`` tag a later writer added
    is read as it is."""

    def test_ingest_default_is_v2(self, store):
        manifest = json.loads((store.path / "manifest.json").read_text("utf-8"))
        assert "segment_format" not in manifest
        for entry in manifest["tables"].values():
            assert entry["segment"].endswith(".seg.bin")
            assert "segment_format" not in entry and "column_offsets" not in entry

    def test_a_damaged_segment_is_a_store_error(self, store):
        segment = next(store.path.glob("segments/*.seg.bin"))
        segment.write_bytes(segment.read_bytes()[:-3])
        with pytest.raises(SegmentCorrupted, match=re.escape(str(segment))) as raised:
            for name in store.table_names:
                LakeStore.open(store.path).load_table(name)
        assert isinstance(raised.value, StoreError)

    def test_a_pre_v2_store_is_refused_naming_its_segment(self, store):
        downgrade_to_v1(store.path)
        with pytest.raises(StoreFormatUnsupported, match=r"\.seg\.jsonl") as refused:
            LakeStore.open(store.path)
        assert "index build" in str(refused.value)

    def test_a_tagged_store_reads_alike_takes_an_ingest_and_reopens(self, store, lake):
        """Stats and sketches of a tagged store are pinned over random
        lakes by ``test_store_roundtrip``; here, its writes and reopen."""
        with_segment_format_tags(store.path)
        tagged = LakeStore.open(store.path)
        for name, original in lake.items():
            assert tagged.load_table(name).column_arrays == original.column_arrays
        held = tagged.table_stats("T3")

        changed = Table(["c"], [(1,)], name="T2")
        tagged.ingest({"T2": changed, "T3": lake["T3"]})
        entries = json.loads((store.path / "manifest.json").read_text("utf-8"))["tables"]
        assert "segment_format" not in entries["T2"]  # written by this code
        assert entries["T3"]["segment_format"] == "v2"  # untouched, still tagged

        fresh = tagged.reopen()
        assert fresh.table_stats("T3") is held  # its entry did not move
        assert fresh.load_table("T2").rows == changed.rows
        assert fresh.load_table("T3").rows == lake["T3"].rows


def b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


class TestStatsSnapshotDamage:
    """However a stats snapshot is damaged, ``table_stats`` raises
    :class:`StatsCorrupted` naming the file, at hydration: never a JSON,
    key, base64 or sketch error, and never a column that fails on first
    use."""

    @pytest.fixture
    def snapshot(self, tmp_path):
        store = LakeStore.create(tmp_path / "lake.store")
        store.ingest(
            DataLake(
                [Table(["a", "b"], [("x", 1), ("y", MISSING), ("Zürich", 2.5)], name="t0")]
            )
        )
        stats_file = next((store.path / "stats").glob("*.stats.json"))
        return store.path, stats_file, stats_file.read_bytes()

    @staticmethod
    def hydrate(path, stats_file, data: bytes):
        stats_file.write_bytes(data)
        return LakeStore.open(path).table_stats("t0")

    def assert_corrupted(self, path, stats_file, data: bytes) -> None:
        with pytest.raises(StatsCorrupted, match=re.escape(str(stats_file))):
            self.hydrate(path, stats_file, data)

    @staticmethod
    def rewritten(pristine: bytes, edit) -> bytes:
        document = json.loads(pristine)
        edit(document)
        return json.dumps(document, ensure_ascii=False).encode("utf-8")

    def test_every_truncation(self, snapshot):
        path, stats_file, pristine = snapshot
        for end in range(len(pristine)):
            self.assert_corrupted(path, stats_file, pristine[:end])

    def test_byte_flips_raise_or_hydrate_a_usable_column(self, snapshot):
        path, stats_file, pristine = snapshot
        hasher = SketchConfig().hasher
        outcomes = {"corrupted": 0, "hydrated": 0}
        for position in range(len(pristine)):
            # A high-bit flip always breaks UTF-8.
            flipped = bytearray(pristine)
            flipped[position] ^= 0x80
            self.assert_corrupted(path, stats_file, bytes(flipped))
            # A low-bit flip may still be a well-formed snapshot; then
            # every product must compute, with no failure deferred to
            # first use.
            flipped[position] ^= 0x81
            try:
                stats = self.hydrate(path, stats_file, bytes(flipped))
            except StatsCorrupted:
                outcomes["corrupted"] += 1
                continue
            outcomes["hydrated"] += 1
            for column in stats:
                column.text_values(), column.tokens, column.distinct
                column.minhash(hasher).to_bytes()
        assert outcomes["corrupted"] and outcomes["hydrated"]

    @pytest.mark.parametrize(
        "field",
        ["dtype", "row_count", "null_count", "missing_count", "numeric_fraction",
         "distinct", "tokens", "minhash"],
    )
    def test_a_dropped_field(self, snapshot, field):
        path, stats_file, pristine = snapshot
        damaged = self.rewritten(pristine, lambda doc: doc["columns"]["b"].pop(field))
        self.assert_corrupted(path, stats_file, damaged)

    def test_a_dropped_column_or_document_key(self, snapshot):
        path, stats_file, pristine = snapshot
        for edit in (
            lambda doc: doc["columns"].pop("a"),
            lambda doc: doc.pop("columns"),
            lambda doc: doc["columns"].update(c=doc["columns"]["a"]),  # one too many
        ):
            self.assert_corrupted(path, stats_file, self.rewritten(pristine, edit))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("dtype", 3),
            ("dtype", "decimal"),
            ("row_count", "3"),
            ("row_count", 3.0),
            ("row_count", True),
            ("row_count", 4),  # the manifest says 3
            ("null_count", 4),  # more nulls than rows
            ("missing_count", 2),  # more missing than nulls
            ("numeric_fraction", "0.5"),
            ("numeric_fraction", 1.5),
            ("distinct", "x"),
            ("distinct", [[1]]),
            ("distinct", [{"null": "missing"}]),
            ("distinct", [1, 2, 3]),  # more distinct values than non-null cells
            ("tokens", [1]),
            ("tokens", {"x": 1}),
            ("minhash", 5),
            ("minhash", "!!!!"),
            ("minhash", "AAAA"),  # base64, but no signature
        ],
    )
    def test_a_wrong_type_or_value(self, snapshot, field, value):
        path, stats_file, pristine = snapshot
        damaged = self.rewritten(pristine, lambda doc: doc["columns"]["b"].update({field: value}))
        self.assert_corrupted(path, stats_file, damaged)

    def test_a_sketch_of_another_config(self, snapshot):
        """A sketch that decodes but under other parameters fails now,
        not when a consumer compares it."""
        path, stats_file, pristine = snapshot
        encoded = b64(MinHasher(num_perm=64).signature({"x"}).to_bytes())
        damaged = self.rewritten(
            pristine, lambda doc: doc["columns"]["a"].update(minhash=encoded)
        )
        self.assert_corrupted(path, stats_file, damaged)

    #: Each way column ``b``'s ``minhash`` field is damaged: the edit of
    #: its payload, given the pristine signature's bytes.
    MINHASH_DAMAGE = {
        "dropped": lambda payload, raw: payload.pop("minhash"),
        "not-a-string": lambda payload, raw: payload.update(minhash=5),
        "not-base64": lambda payload, raw: payload.update(minhash="!!!!"),
        "no-signature": lambda payload, raw: payload.update(minhash="AAAA"),
        "another-config": lambda payload, raw: payload.update(
            minhash=b64(MinHasher(num_perm=64).signature({"x"}).to_bytes())
        ),
        "flipped-top-bit": lambda payload, raw: payload.update(
            minhash=b64(raw[:15] + bytes([raw[15] ^ 0x80]) + raw[16:])
        ),
        "wrapped-uint64": lambda payload, raw: payload.update(
            minhash=b64(raw[:12] + (np.frombuffer(raw[12:], "<u4") + np.uint64(2**32)).tobytes())
        ),
        "empty-not-sentinel": lambda payload, raw: payload.update(
            minhash=b64(raw[:4] + bytes(8) + raw[12:])
        ),
    }

    @pytest.mark.parametrize("entry", ["hydration", "first-sketch-query"])
    @pytest.mark.parametrize("damage", list(MINHASH_DAMAGE))
    def test_a_damaged_minhash_at_either_entry_point(self, snapshot, entry, damage):
        """Hydration and the signature reader (what a warm store's first
        sketch query stacks its ensemble from) reject each damage alike."""
        path, stats_file, pristine = snapshot
        store = LakeStore.open(path)
        LakeIndex(store.lake(), [LSHEnsembleJoinSearch()]).build().save_to_store(store)

        def edit(document):
            payload = document["columns"]["b"]
            self.MINHASH_DAMAGE[damage](payload, base64.b64decode(payload["minhash"]))

        stats_file.write_bytes(self.rewritten(pristine, edit))
        with pytest.raises(StatsCorrupted, match=re.escape(str(stats_file))):
            if entry == "hydration":
                LakeStore.open(path).table_stats("t0")
            else:
                query = Table(["q"], [("x",), ("y",), ("Zürich",)], name="q")
                LakeIndex.from_store(path).search(query, k=1, query_column="q")

    #: Each way column ``b``'s ``tokens`` field is damaged: the edit of its payload.
    TOKENS_DAMAGE = {
        "dropped": lambda payload: payload.pop("tokens"),
        "not-a-list": lambda payload: payload.update(tokens="x"),
        "non-string": lambda payload: payload.update(tokens=[*payload["tokens"], 1]),
    }

    @pytest.mark.parametrize("entry", ["hydration", "token-channel"])
    @pytest.mark.parametrize("damage", list(TOKENS_DAMAGE))
    def test_a_damaged_token_set_at_either_entry_point(self, snapshot, entry, damage):
        """Hydration and the token-set reader (what a warm store's engine
        builds its token postings from) reject each damage alike."""
        path, stats_file, pristine = snapshot
        damaged = self.rewritten(
            pristine, lambda document: self.TOKENS_DAMAGE[damage](document["columns"]["b"])
        )
        stats_file.write_bytes(damaged)
        with pytest.raises(StatsCorrupted, match=re.escape(str(stats_file))):
            if entry == "hydration":
                LakeStore.open(path).table_stats("t0")
            else:
                LakeStore.open(path).load_engine()

    def test_a_damaged_document_shape(self, snapshot):
        path, stats_file, _ = snapshot
        for document in (b"[]", b'{"columns": []}', b'{"columns": {"a": [], "b": []}}', b""):
            self.assert_corrupted(path, stats_file, document)

    def test_the_pristine_snapshot_still_hydrates(self, snapshot):
        path, stats_file, pristine = snapshot
        for edit in (lambda doc: None, lambda doc: doc["columns"]["a"].update(extra=1)):
            stats = self.hydrate(path, stats_file, self.rewritten(pristine, edit))
            assert stats.column("a").text_values() == {"x", "y", "zürich"}


class TestHydratedFootprint:
    """What a hydrated column holds: its snapshot, not an expansion of it."""

    #: tracemalloc bytes per column held after hydrating every table of
    #: the lake below and asking each column for its text domain, on
    #: CPython 3.11 / x86-64: 12,230 when a column held a dense 4 KiB
    #: HyperLogLog and a second copy of its text domain, 5,890 holding its
    #: sketches as bytes and deriving the domain from ``distinct``.  The
    #: bound is halfway between.
    BOUND = 9_000

    def test_bytes_held_per_hydrated_column(self, tmp_path):
        import gc
        import tracemalloc

        lake = DataLake(
            [
                Table(
                    ["key", "city", "code", "band"],
                    [
                        (f"k{t}-{i}", f"city {i % 7}", f"c{t}x{i}", f"band {i % 3}")
                        for i in range(20)
                    ],
                    name=f"t{t}",
                )
                for t in range(12)
            ]
        )
        LakeStore.create(tmp_path / "lake.store").ingest(lake)
        # Warm whatever a first hydration sets up once per process.
        LakeStore.open(tmp_path / "lake.store").table_stats("t0").column("key").text_values()
        store = LakeStore.open(tmp_path / "lake.store")
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            held = [store.table_stats(name) for name in store.table_names]
            domains = [column.text_values() for stats in held for column in stats]
            gc.collect()
            per_column = (tracemalloc.get_traced_memory()[0] - before) / len(domains)
        finally:
            tracemalloc.stop()
        assert per_column <= self.BOUND, f"{per_column:.0f} B per hydrated column"
        # Every cell here is already in normal form, so the text domain
        # is the distinct set itself, never a second copy of it.
        columns = [column for stats in held for column in stats]
        assert all(d is c.distinct for d, c in zip(domains, columns))


def test_a_warm_sketch_query_hydrates_no_table(store, lake):
    """The first LSH Ensemble discover on a warm store stacks its
    ensemble from the snapshots' signatures alone: one ensemble build,
    no table hydrated, and the answer a cold in-memory index gives."""
    query = covid_query_table()
    LakeIndex(store.lake(), [LSHEnsembleJoinSearch()]).build().save_to_store(store)
    moved = deltas("engine.build.ensemble", "store.stats_cache.rehydrates")
    warm = LakeIndex.from_store(LakeStore.open(store.path)).search(query, k=3, query_column="City")
    assert moved() == {"engine.build.ensemble": 1, "store.stats_cache.rehydrates": 0}
    cold = LakeIndex(lake, [LSHEnsembleJoinSearch()]).build().search(query, k=3, query_column="City")
    assert warm == cold and warm["lsh_ensemble"]


def test_a_sharded_lake_view_stacks_the_same_ensemble(tmp_path, lake):
    from repro.shard.store import ShardedLakeStore

    sharded = ShardedLakeStore.create(tmp_path / "sharded", num_shards=2)
    sharded.ingest(lake)
    query = covid_query_table()
    results = [
        LakeIndex(tables, [LSHEnsembleJoinSearch()]).build().search(query, k=3, query_column="City")
        for tables in (sharded.lake(), lake)
    ]
    assert results[0] == results[1] and results[0]["lsh_ensemble"]
