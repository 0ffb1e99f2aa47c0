"""The store's sketch artifact (``postings/engine.sketches.bin``).

* the codec round-trips and is deterministic;
* any truncation or flipped byte is a typed :class:`SketchArtifactError`,
  which ``load_engine`` treats as "no artifact": the ensembles restack
  from hydrated stats and every answer is unchanged;
* a store written by the previous release -- uint64 / dense sketch
  payloads in the stats files, a pickled ``engine.sketches.pkl`` -- still
  opens and answers identically, and its first ingest leaves no ``.pkl``
  behind.
"""

from __future__ import annotations

import base64
import json
import pickle

import numpy as np
import pytest

from repro.core.pipeline import Dialite
from repro.datalake.synth import SyntheticLakeBuilder
from repro.sketch import HyperLogLog, MinHashSignature
from repro.store import LakeStore, SketchArtifactError
from repro.store.snapshot import decode_signature_tables, encode_signature_tables
from repro.table import Table
from deltas import ENGINE_BUILDS, deltas
from sketch_oracles import legacy_hll_bytes, legacy_minhash_bytes

SKETCHES = "postings/engine.sketches.bin"
LEGACY_SKETCHES = "postings/engine.sketches.pkl"


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


def test_codec_round_trip_is_exact_and_deterministic():
    rng = np.random.default_rng(0)
    tables = {
        (128, 8, 1, 2): (
            [0, 3, 7],
            np.array([2, 9, 17]),
            rng.integers(0, 2**31 - 1, size=(3, 128), dtype=np.uint32),
        ),
        (16, 4, -5, 1): ([], np.empty(0, dtype=np.int64), np.empty((0, 16), dtype=np.uint32)),
    }
    payload = encode_signature_tables(tables)
    decoded = decode_signature_tables(payload)
    assert list(decoded) == sorted(tables)
    for params, (keys, sizes, matrix) in tables.items():
        got_keys, got_sizes, got_matrix = decoded[params]
        assert got_keys == keys
        assert got_sizes.tolist() == list(sizes) and got_sizes.dtype == np.int64
        assert np.array_equal(got_matrix, matrix) and got_matrix.dtype == np.uint32
    assert encode_signature_tables(decoded) == payload
    assert encode_signature_tables(dict(reversed(tables.items()))) == payload


def test_artifact_holds_one_uint32_matrix_per_ensemble(built):
    path, _ = built
    store = LakeStore.open(path)
    payload = (path / SKETCHES).read_bytes()
    tables = decode_signature_tables(payload)
    assert list(tables) == [(128, 8, 1, 2)]  # the default LSH Ensemble roster entry
    keys, sizes, matrix = tables[(128, 8, 1, 2)]
    assert matrix.shape == (len(keys), 128) and len(sizes) == len(keys)
    # Nothing but the matrix, 12 bytes a row and the framing.
    assert len(payload) == 9 + 28 + len(keys) * (4 + 8 + 128 * 4) + 4
    built = deltas(*ENGINE_BUILDS)
    engine = store.load_engine()
    assert not any(built().values())
    assert engine.materialized_ensembles().keys() == tables.keys()
    assert not list(path.rglob("*.sketches.pkl"))


def test_every_truncation_and_any_flipped_byte_is_a_typed_error(built):
    path, _ = built
    payload = (path / SKETCHES).read_bytes()
    for cut in [*range(0, len(payload), 64), len(payload) - 1]:
        with pytest.raises(SketchArtifactError):
            decode_signature_tables(payload[:cut])
    for position in [0, 3, 4, 8, 20, 40, len(payload) // 2, len(payload) - 5, len(payload) - 1]:
        garbled = bytearray(payload)
        garbled[position] ^= 0x21
        with pytest.raises(SketchArtifactError):
            decode_signature_tables(bytes(garbled))
    with pytest.raises(SketchArtifactError):
        decode_signature_tables(payload + b"\0")


@pytest.mark.parametrize("damage", ["truncate", "flip", "delete", "pickle"])
def test_load_engine_falls_back_and_answers_do_not_change(built, synth, damage):
    path, expected = built
    file = path / SKETCHES
    payload = file.read_bytes()
    if damage == "truncate":
        file.write_bytes(payload[: len(payload) // 2])
    elif damage == "flip":
        file.write_bytes(payload[:100] + bytes([payload[100] ^ 0xFF]) + payload[101:])
    elif damage == "delete":
        file.unlink()
    else:
        file.write_bytes(pickle.dumps({"not": "a sketch artifact"}))
    built = deltas(*ENGINE_BUILDS)
    engine = LakeStore.open(path).load_engine()
    assert engine is not None and engine.materialized_ensembles() == {}
    assert not any(built().values())  # postings still hydrate; only sketches restack
    assert answers(path, synth) == expected


def as_previous_release(path) -> None:
    """Rewrite a store in place into what the previous release wrote: the
    stats files carry uint64 MinHash minima and dense HyperLogLog
    registers, and the sketch ensembles sit in a pickle the manifest
    points at."""
    manifest = json.loads((path / "manifest.json").read_text(encoding="utf-8"))
    for entry in manifest["tables"].values():
        file = path / entry["stats"]
        document = json.loads(file.read_text(encoding="utf-8"))
        for column in document["columns"].values():
            signature = MinHashSignature.from_bytes(base64.b64decode(column["minhash"]))
            sketch = HyperLogLog.from_bytes(base64.b64decode(column["hll"]))
            column["minhash"] = base64.b64encode(legacy_minhash_bytes(signature)).decode()
            column["hll"] = base64.b64encode(legacy_hll_bytes(sketch)).decode()
        file.write_text(json.dumps(document), encoding="utf-8")
    (path / SKETCHES).unlink()
    (path / LEGACY_SKETCHES).write_bytes(pickle.dumps({"ensembles": "of an old class"}))
    manifest["postings"]["sketches"] = LEGACY_SKETCHES
    (path / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")


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
    assert (path / LEGACY_SKETCHES).exists()  # nothing reads it, nothing has replaced it yet

    extra = Table(["City", "Country"], [("Oslo", "Norway"), ("Bergen", "Norway")], name="extra")
    store.ingest({"extra": extra}, prune=False)
    assert not (path / LEGACY_SKETCHES).exists()
    Dialite(store=store).fit().index.save_to_store(store)
    assert (path / SKETCHES).exists()
    assert not [f for f in path.rglob("*") if f.suffix in (".pkl", ".tmp") and f.parent.name == "postings"]


def test_resave_on_a_previous_release_store_replaces_the_pickle(built, synth):
    """Saving again at the same lake version (``index update`` on an
    unchanged lake) must not strand the pickle beside the new artifact."""
    path, _ = built
    as_previous_release(path)
    store = LakeStore.open(path)
    pipeline = Dialite(store=store).fit()
    pipeline.discover(synth.query, k=3)  # restacks the skipped ensemble
    pipeline.index.save_to_store(store)
    assert (path / SKETCHES).exists() and not (path / LEGACY_SKETCHES).exists()
    assert LakeStore.open(path).info()["postings"]["sketches"] == SKETCHES


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
