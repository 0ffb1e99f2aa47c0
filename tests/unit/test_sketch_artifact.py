"""The engine's sketch artifact, which the store no longer writes.

A stats snapshot holds the one copy of a column's MinHash; sketch
ensembles stack from those.  Older stores are still served:

* a store that still holds the sketch artifact
  (``postings/engine.sketches.bin``, named by the manifest's
  ``postings.sketches``) opens and answers as if it were not there --
  truncated, flipped, deleted, a pickle, or a well-formed artifact of
  wrong signatures -- and the next ``save_engine`` or content-changing
  ingest unlinks it;
* a store of an earlier release -- dense HyperLogLog payloads in the
  stats files, a pickled ``engine.sketches.pkl`` -- still opens and
  answers identically, and its first ingest or save leaves no ``.pkl``
  behind;
* ``postings/`` holds no second copy of the signatures.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.core.pipeline import Dialite
from repro.datalake.synth import SyntheticLakeBuilder
from repro.store import LakeStore
from repro.table import Table
from deltas import ENGINE_BUILDS, deltas
from old_store import (
    PICKLED_SKETCHES,
    SKETCH_ARTIFACT,
    as_previous_release,
    plant_sketch_artifact,
    zeroed_sketch_artifact,
)


@pytest.fixture(scope="module")
def synth():
    return SyntheticLakeBuilder(seed=5).build(
        num_unionable=3, num_joinable=4, num_distractors=5
    )


@pytest.fixture
def built(tmp_path, synth):
    """A store with persisted indexes + engine, and the answers a fresh
    warm open gives for a few queries."""
    store = LakeStore.create(tmp_path / "lake.store")
    store.ingest(synth.lake)
    Dialite(store=store).fit().index.save_to_store(store)
    return store.path, answers(store.path, synth)


def answers(path, synth) -> list:
    pipeline = Dialite.open(path).fit()
    out = []
    for query in [synth.query, *list(synth.lake.values())[:3]]:
        for column in query.columns[:2]:
            probe = query.with_name("probe")
            outcome = pipeline.discover(probe, k=5, query_column=column)
            out.append(
                {
                    name: [(r.table_name, r.score, r.reason) for r in results]
                    for name, results in outcome.per_discoverer.items()
                }
            )
    return out


def postings_info(path) -> dict:
    return json.loads((path / "manifest.json").read_text(encoding="utf-8"))["postings"]


def test_a_current_store_writes_no_sketch_file(built):
    path, _ = built
    assert [f.name for f in (path / "postings").iterdir()] == ["engine.post.jsonl"]
    assert "sketches" not in postings_info(path)


@pytest.mark.parametrize("damage", ["truncate", "flip", "delete", "pickle", "intact"])
def test_load_engine_falls_back_and_answers_do_not_change(built, synth, damage):
    """Whatever the artifact holds, the engine stacks its ensembles from
    the stats snapshots; an intact one of all-zero signatures proves the
    file is never read."""
    path, expected = built
    payload = zeroed_sketch_artifact(rows=postings_info(path)["columns"])
    plant_sketch_artifact(path, payload)
    file = path / SKETCH_ARTIFACT
    if damage == "truncate":
        file.write_bytes(payload[: len(payload) // 2])
    elif damage == "flip":
        file.write_bytes(payload[:100] + bytes([payload[100] ^ 0xFF]) + payload[101:])
    elif damage == "delete":
        file.unlink()
    elif damage == "pickle":
        file.write_bytes(pickle.dumps({"not": "a sketch artifact"}))
    built_channels = deltas(*ENGINE_BUILDS)
    assert LakeStore.open(path).load_engine() is not None
    assert answers(path, synth) == expected
    assert not any(built_channels().values())  # the postings hydrate


def test_the_next_save_engine_unlinks_a_planted_artifact(built, synth):
    path, expected = built
    plant_sketch_artifact(path, zeroed_sketch_artifact(rows=postings_info(path)["columns"]))
    store = LakeStore.open(path)
    pipeline = Dialite(store=store).fit()
    pipeline.discover(synth.query, k=3)
    pipeline.index.save_to_store(store)
    assert not (path / SKETCH_ARTIFACT).exists()
    assert "sketches" not in postings_info(path)
    assert answers(path, synth) == expected


def test_a_content_changing_ingest_unlinks_a_planted_artifact(built):
    path, _ = built
    plant_sketch_artifact(path, b"\0" * 64)
    store = LakeStore.open(path)
    extra = Table(["City", "Country"], [("Oslo", "Norway"), ("Bergen", "Norway")], name="extra")
    store.ingest({"extra": extra}, prune=False)
    assert not (path / SKETCH_ARTIFACT).exists()
    assert not list((path / "postings").glob("*"))  # the postings went stale too


def test_previous_release_store_opens_answers_and_sheds_its_pickle(built, synth):
    path, expected = built
    stats_before = sum(f.stat().st_size for f in (path / "stats").glob("*"))
    as_previous_release(path)
    assert sum(f.stat().st_size for f in (path / "stats").glob("*")) > 3 * stats_before

    store = LakeStore.open(path)
    warm = store.lake()
    assert answers(path, synth) == expected
    assert all(count == 0 for count in warm.stats.scan_counts().values())
    # Hydrated from the old payloads, re-encoded in the one current format.
    name = store.table_names[0]
    column = store.table_stats(name).column(store.load_table(name).columns[0])
    assert len(column.minhash(store.sketch_config.hasher).to_bytes()) == 12 + 4 * 128
    assert (path / PICKLED_SKETCHES).exists()  # nothing reads it, nothing has replaced it yet

    extra = Table(["City", "Country"], [("Oslo", "Norway"), ("Bergen", "Norway")], name="extra")
    store.ingest({"extra": extra}, prune=False)
    assert not (path / PICKLED_SKETCHES).exists()
    Dialite(store=store).fit().index.save_to_store(store)
    assert [f.name for f in (path / "postings").iterdir()] == ["engine.post.jsonl"]


def test_resave_on_a_previous_release_store_replaces_the_pickle(built, synth):
    """Saving again at the same lake version (``index update`` on an
    unchanged lake) must not strand the pickle beside the postings."""
    path, _ = built
    as_previous_release(path)
    store = LakeStore.open(path)
    pipeline = Dialite(store=store).fit()
    pipeline.discover(synth.query, k=3)
    pipeline.index.save_to_store(store)
    assert [f.name for f in (path / "postings").iterdir()] == ["engine.post.jsonl"]
    assert "sketches" not in LakeStore.open(path).info()["postings"]


def test_index_info_prints_bytes_per_artifact_class(built, capsys):
    from repro.cli import main

    path, _ = built
    assert main(["index", "info", "--store", str(path)]) == 0
    line = next(l for l in capsys.readouterr().out.splitlines() if l.startswith("bytes on disk"))
    sizes = LakeStore.open(path).artifact_bytes()
    assert list(sizes) == ["segments", "stats", "postings", "indexes"]
    assert all(size > 0 for size in sizes.values())
    on_disk = sum(f.stat().st_size for f in path.rglob("*") if f.is_file() and f.parent != path)
    assert sum(sizes.values()) == on_disk
    assert all(f"{kind} " in line for kind in sizes) and "total " in line
    assert f"postings {sizes['postings'] / 1e3:.1f} kB" in line


#: ``postings/`` bytes per indexed column of the store ``built`` writes:
#: 854.9 while ``save_engine`` also wrote every signature into the sketch
#: artifact, 330.1 with the posting JSONL alone.  The bound is halfway.
POSTING_BYTES_PER_COLUMN = 592


def test_postings_hold_no_second_copy_of_the_signatures(built):
    path, _ = built
    store = LakeStore.open(path)
    per_column = store.artifact_bytes()["postings"] / postings_info(path)["columns"]
    assert per_column <= POSTING_BYTES_PER_COLUMN, f"{per_column:.1f} B per column"
