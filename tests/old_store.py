"""Store shapes older writers left, rebuilt from a current store.

``downgrade_to_v1``: ``.seg.jsonl`` segments, ``column_offsets`` beside
them, no ``segment_format`` key anywhere -- a store the library refuses
at open.  ``with_segment_format_tags``: every manifest entry tagged
``"segment_format": "v2"``, as the writer before the tag was dropped
left it; such a store is read as it is.  ``add_text_values``: stats
snapshots that also carry the normalized text domain as ``text_values``.
``as_format_1``: what the format-1 writer left, plain or sharded -- a
HyperLogLog in every stats payload and a three-field sketch block.
``as_format_2``: what the format-2 writer left, plain or sharded -- a
posting artifact beside the indexes and a ``postings`` manifest block.
"""
import base64
import json

import pytest

from repro.store import LakeStore
from repro.store.codec import encode_column
from repro.store.lakestore import FORMAT_VERSION
from repro.text.tokenize import normalize_token

#: Every ``format_version`` but the one this code reads: none at all, 0,
#: and the generations on either side of it.
OTHER_FORMAT_VERSIONS = [
    None,
    0,
    pytest.param(FORMAT_VERSION - 1, id="previous"),
    pytest.param(FORMAT_VERSION + 1, id="next"),
]

#: What every refusal of another ``format_version`` says it reads.
READS_ONLY = f"reads only format_version {FORMAT_VERSION}"


def downgrade_to_v1(path) -> None:
    store = LakeStore.open(path, check_sketch=False)
    manifest = json.loads((store.path / "manifest.json").read_text(encoding="utf-8"))
    for name, entry in manifest["tables"].items():
        arrays = store.load_table(name).column_arrays
        lines = [encode_column(array).encode("utf-8") + b"\n" for array in arrays]
        (store.path / entry["segment"]).unlink()
        entry["segment"] = entry["segment"].removesuffix("bin") + "jsonl"
        (store.path / entry["segment"]).write_bytes(b"".join(lines))
        entry["column_offsets"] = [len(b"".join(lines[:i])) for i in range(len(lines))]
        entry.pop("segment_format", None)
    (store.path / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")


def with_segment_format_tags(path) -> None:
    manifest = json.loads((path / "manifest.json").read_text(encoding="utf-8"))
    for entry in manifest["tables"].values():
        entry["segment_format"] = "v2"
    (path / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")


def add_text_values(path) -> None:
    """Write each column's sorted normalized string cells into its stats
    payload, between ``tokens`` and ``minhash``, as the older writer did."""
    store = LakeStore.open(path, check_sketch=False)
    manifest = json.loads((store.path / "manifest.json").read_text(encoding="utf-8"))
    for name, entry in manifest["tables"].items():
        table = store.load_table(name)
        stats_path = store.path / entry["stats"]
        document = json.loads(stats_path.read_text(encoding="utf-8"))
        for column, array in zip(table.columns, table.column_arrays):
            payload = document["columns"][column]
            text = sorted({normalize_token(v) for v in array if isinstance(v, str)})
            payload.update(text_values=text, minhash=payload.pop("minhash"))
        stats_path.write_text(
            json.dumps(document, ensure_ascii=False, separators=(",", ":")),
            encoding="utf-8",
        )


#: The format-1 writer's ``hll`` payload of an empty precision-12 sketch
#: (the sparse flag on the precision byte, no entries).  Nothing reads
#: it before the version check refuses the store.
EMPTY_HLL = base64.b64encode(bytes([12 | 0x80])).decode("ascii")


def as_format_1(path) -> None:
    """Rewrite the plain or sharded store at *path* in place into the
    format-1 layout: ``format_version`` 1 in every manifest, the sketch
    block's third field ``hll_precision``, and an ``hll`` field in every
    column's stats payload."""
    if (path / "lake.json").exists():
        lake = json.loads((path / "lake.json").read_text(encoding="utf-8"))
        lake["format_version"] = 1
        (path / "lake.json").write_text(json.dumps(lake), encoding="utf-8")
        for shard in lake["shards"]:
            as_format_1(path / shard)
        return
    manifest = json.loads((path / "manifest.json").read_text(encoding="utf-8"))
    manifest["format_version"] = 1
    manifest["sketch"]["hll_precision"] = 12
    for entry in manifest["tables"].values():
        file = path / entry["stats"]
        document = json.loads(file.read_text(encoding="utf-8"))
        for payload in document["columns"].values():
            payload["hll"] = EMPTY_HLL
        file.write_text(json.dumps(document), encoding="utf-8")
    (path / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")


def as_format_2(path) -> None:
    """Rewrite the plain or sharded store at *path* in place into the
    format-2 layout: ``format_version`` 2 in every manifest, and each
    (shard) store's ``postings/engine.post.jsonl`` named by a
    ``postings`` block."""
    if (path / "lake.json").exists():
        lake = json.loads((path / "lake.json").read_text(encoding="utf-8"))
        lake["format_version"] = 2
        (path / "lake.json").write_text(json.dumps(lake), encoding="utf-8")
        for shard in lake["shards"]:
            as_format_2(path / shard)
        return
    manifest = json.loads((path / "manifest.json").read_text(encoding="utf-8"))
    manifest["format_version"] = 2
    manifest["postings"] = {
        "file": "postings/engine.post.jsonl",
        "lake_version": manifest["lake_version"],
    }
    (path / "postings").mkdir()
    (path / "postings" / "engine.post.jsonl").write_text(
        '{"kind":"meta","channels":[],"columns":[]}\n', encoding="utf-8"
    )
    (path / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
