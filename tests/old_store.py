"""Store shapes older writers left, rebuilt from a current store.

``downgrade_to_v1``: ``.seg.jsonl`` segments, ``column_offsets`` beside
them, no ``segment_format`` key anywhere.  ``add_text_values``: stats
snapshots that also carry the normalized text domain as ``text_values``.
"""
import json

from repro.store import LakeStore
from repro.store.codec import encode_column
from repro.text.tokenize import normalize_token


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
