"""The engine's sketch artifact, which the store no longer writes.

A stats snapshot holds the one copy of a column's MinHash; sketch
ensembles stack from those, so ``postings/`` holds no second copy of
the signatures and no ``postings/engine.sketches.bin``.
"""

from __future__ import annotations

import json

import pytest

from repro.core.pipeline import Dialite
from repro.datalake.synth import SyntheticLakeBuilder
from repro.store import LakeStore


@pytest.fixture(scope="module")
def synth():
    return SyntheticLakeBuilder(seed=5).build(
        num_unionable=3, num_joinable=4, num_distractors=5
    )


@pytest.fixture
def path(tmp_path, synth):
    """The path of a store with persisted indexes + engine."""
    store = LakeStore.create(tmp_path / "lake.store")
    store.ingest(synth.lake)
    Dialite(store=store).fit().index.save_to_store(store)
    return store.path


def postings_info(path) -> dict:
    return json.loads((path / "manifest.json").read_text(encoding="utf-8"))["postings"]


def test_a_current_store_writes_no_sketch_file(path):
    assert [f.name for f in (path / "postings").iterdir()] == ["engine.post.jsonl"]
    assert "sketches" not in postings_info(path)


def test_index_info_prints_bytes_per_artifact_class(path, capsys):
    from repro.cli import main

    assert main(["index", "info", "--store", str(path)]) == 0
    line = next(l for l in capsys.readouterr().out.splitlines() if l.startswith("bytes on disk"))
    sizes = LakeStore.open(path).artifact_bytes()
    assert list(sizes) == ["segments", "stats", "postings", "indexes"]
    assert all(size > 0 for size in sizes.values())
    on_disk = sum(f.stat().st_size for f in path.rglob("*") if f.is_file() and f.parent != path)
    assert sum(sizes.values()) == on_disk
    assert all(f"{kind} " in line for kind in sizes) and "total " in line
    assert f"postings {sizes['postings'] / 1e3:.1f} kB" in line


#: ``postings/`` bytes per indexed column of the store ``path`` holds:
#: 854.9 while ``save_engine`` also wrote every signature into the sketch
#: artifact, 330.1 with the posting JSONL alone.  The bound is halfway.
POSTING_BYTES_PER_COLUMN = 592


def test_postings_hold_no_second_copy_of_the_signatures(path):
    store = LakeStore.open(path)
    per_column = store.artifact_bytes()["postings"] / postings_info(path)["columns"]
    assert per_column <= POSTING_BYTES_PER_COLUMN, f"{per_column:.1f} B per column"
