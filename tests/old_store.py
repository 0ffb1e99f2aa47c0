"""The store shape the v1 writer left: ``.seg.jsonl`` segments,
``column_offsets`` beside them, no ``segment_format`` key anywhere."""
import json

from repro.store import LakeStore
from repro.store.codec import encode_column


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
        del entry["segment_format"]
    (store.path / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
