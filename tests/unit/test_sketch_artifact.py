"""The engine's sketch and posting artifacts, which the store no longer
writes.

A stats snapshot holds the one copy of a column's MinHash and token set;
sketch ensembles stack, and the token postings build, from those, so a
store has no ``postings/`` directory and its manifest no ``postings``
block.
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
    """The path of a store with persisted indexes."""
    store = LakeStore.create(tmp_path / "lake.store")
    store.ingest(synth.lake)
    Dialite(store=store).fit().index.save_to_store(store)
    return store.path


def test_a_current_store_writes_no_sketch_file(path):
    assert not (path / "postings").exists()
    manifest = json.loads((path / "manifest.json").read_text(encoding="utf-8"))
    assert "postings" not in manifest and manifest["indexes"]


def test_index_info_prints_bytes_per_artifact_class(path, capsys):
    from repro.cli import main

    assert main(["index", "info", "--store", str(path)]) == 0
    line = next(l for l in capsys.readouterr().out.splitlines() if l.startswith("bytes on disk"))
    sizes = LakeStore.open(path).artifact_bytes()
    assert list(sizes) == ["segments", "stats", "indexes"]
    assert all(size > 0 for size in sizes.values())
    on_disk = sum(f.stat().st_size for f in path.rglob("*") if f.is_file() and f.parent != path)
    assert sum(sizes.values()) == on_disk
    assert all(f"{kind} " in line for kind in sizes) and "total " in line
    assert f"indexes {sizes['indexes'] / 1e3:.1f} kB" in line

