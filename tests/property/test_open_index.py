"""``store.open_index`` is one lifecycle for every store layout.

A plain :class:`LakeStore`, and a sharded one at 1, 2 and 4 shards (one
worker process per shard), answer the same call the same way:
hydrate what is persisted at this version, fit the rest, persist what
was fitted, serve it.  Two properties pin that:

* **idempotence** -- a second ``open_index`` over an unchanged store
  fits nothing (``index.fitted`` is empty) and writes nothing: every
  file under the store keeps its bytes *and* its mtime, whether asked
  through the same handle or a fresh one;
* **one artifact** -- what a plain ``open_index`` persists is byte for
  byte what ``LakeIndex(...).build().save_to_store()`` writes (the check
  ``test_shard_equivalence`` makes for the shard workers);
* **a store is a function of its content** -- two builds of the same
  tables in two directories leave byte-identical trees (nothing
  wall-clock, such as a fit time, is persisted).
"""

from __future__ import annotations

from pathlib import Path

import pytest
from test_shard_equivalence import _artifact_bytes, make_lake, roster

from repro.core.pipeline import Dialite
from repro.datalake import DataLake, LakeIndex
from repro.shard import ShardedLakeStore, open_any_store
from repro.store import LakeStore

LAYOUTS = (None, 1, 2, 4)  # None: the plain store


def build_store(path: Path, shards: int | None, lake: DataLake | None = None):
    if shards is None:
        store = LakeStore.create(path)
    else:
        store = ShardedLakeStore.create(path, num_shards=shards)
    store.ingest(lake if lake is not None else make_lake(seed=23))
    return store


def tree(root: Path) -> dict[str, tuple[bytes, int]]:
    return {
        str(file.relative_to(root)): (file.read_bytes(), file.stat().st_mtime_ns)
        for file in sorted(root.rglob("*"))
        if file.is_file()
    }


@pytest.mark.parametrize("shards", LAYOUTS)
def test_second_open_fits_nothing_and_writes_nothing(tmp_path, shards):
    store = build_store(tmp_path / "lake", shards)
    first = store.open_index(roster())
    first.close()
    assert set(first.fitted) == {d.name for d in roster()}
    assert all(seconds > 0.0 for seconds in first.fitted.values())
    settled = tree(store.path)
    for handle in (store, open_any_store(store.path)):
        again = handle.open_index(roster())
        again.close()
        assert again.fitted == {}
        assert tree(store.path) == settled


def test_a_new_roster_member_is_the_only_thing_fitted(tmp_path):
    store = build_store(tmp_path / "lake", None)
    store.open_index(roster()[:2])
    index = store.open_index(roster()[:3])
    assert list(index.fitted) == [roster()[2].name]
    assert store.info()["indexes"] == sorted(d.name for d in roster()[:3])


@pytest.mark.parametrize("shards", (None, 3))
def test_two_builds_of_one_lake_are_byte_identical(tmp_path, shards):
    tables = [
        table.with_name(f"s{seed}_{table.name}")
        for seed in (41, 43, 47)
        for table in make_lake(seed).values()
    ][:12]
    assert len(tables) == 12
    trees = []
    for name in ("a", "b"):
        store = build_store(tmp_path / name, shards, DataLake(tables))
        Dialite.open(store.path).fit().index.close()
        trees.append({rel: data for rel, (data, _) in tree(store.path).items()})
    assert trees[0] == trees[1]


def test_plain_artifacts_equal_a_build_and_save(tmp_path):
    opened = build_store(tmp_path / "opened", None)
    opened.open_index(roster())
    built = build_store(tmp_path / "built", None)
    LakeIndex(built.lake(), roster()).build().save_to_store(built)
    assert _artifact_bytes(opened.path) == _artifact_bytes(built.path)
