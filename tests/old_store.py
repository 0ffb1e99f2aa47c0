"""Store shapes older writers left, rebuilt from a current store.

``downgrade_to_v1``: ``.seg.jsonl`` segments, ``column_offsets`` beside
them, no ``segment_format`` key anywhere -- a store the library refuses
at open.  ``with_segment_format_tags``: every manifest entry tagged
``"segment_format": "v2"``, as the writer before the tag was dropped
left it; such a store is read as it is.  ``add_text_values``: stats
snapshots that also carry the normalized text domain as ``text_values``.
``plant_sketch_artifact``: the engine's sketch ensembles in a file of
their own beside the postings.  ``as_previous_release``: dense
HyperLogLog payloads in the stats files and the ensembles pickled.
"""
import base64
import json
import pickle
import struct
import zlib

import numpy as np

from repro.sketch import HyperLogLog
from repro.store import LakeStore
from repro.store.codec import encode_column
from repro.text.tokenize import normalize_token
from sketch_oracles import legacy_hll_bytes


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
            rest = {key: payload.pop(key) for key in ("minhash", "hll")}
            payload.update(text_values=text, **rest)
        stats_path.write_text(
            json.dumps(document, ensure_ascii=False, separators=(",", ":")),
            encoding="utf-8",
        )


#: Where a writer that still stored the engine's sketch ensembles put
#: them: the typed binary artifact, and before that a pickle.
SKETCH_ARTIFACT = "postings/engine.sketches.bin"
PICKLED_SKETCHES = "postings/engine.sketches.pkl"


def plant_sketch_artifact(path, payload: bytes, rel: str = SKETCH_ARTIFACT) -> None:
    """Put *payload* at *rel* and name it in the manifest's
    ``postings.sketches`` field, as the older writer's ``save_engine``
    did; the store must already hold postings."""
    manifest = json.loads((path / "manifest.json").read_text(encoding="utf-8"))
    (path / rel).write_bytes(payload)
    manifest["postings"]["sketches"] = rel
    (path / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")


def zeroed_sketch_artifact(rows: int, params=(128, 8, 1, 2)) -> bytes:
    """A well-formed artifact in the older writer's format (magic,
    version, one table of keys / sizes / signature matrix, CRC-32) whose
    *rows* signatures are all zero: served, it would change answers."""
    num_perm = params[0]
    body = b"".join(
        [
            struct.pack("<4sBI", b"RSKT", 1, 1),
            struct.pack("<IIqIQ", *params, rows),
            np.arange(rows, dtype="<u4").tobytes(),
            np.full(rows, 2, dtype="<u8").tobytes(),
            np.zeros((rows, num_perm), dtype="<u4").tobytes(),
        ]
    )
    return body + struct.pack("<I", zlib.crc32(body))


def as_previous_release(path) -> None:
    """Rewrite a store in place into what an earlier release wrote: the
    stats files carry dense HyperLogLog registers, and the sketch
    ensembles sit in a pickle the manifest points at."""
    manifest = json.loads((path / "manifest.json").read_text(encoding="utf-8"))
    for entry in manifest["tables"].values():
        file = path / entry["stats"]
        document = json.loads(file.read_text(encoding="utf-8"))
        for column in document["columns"].values():
            sketch = HyperLogLog.from_bytes(base64.b64decode(column["hll"]))
            column["hll"] = base64.b64encode(legacy_hll_bytes(sketch)).decode()
        file.write_text(json.dumps(document), encoding="utf-8")
    plant_sketch_artifact(
        path, pickle.dumps({"ensembles": "of an old class"}), rel=PICKLED_SKETCHES
    )
