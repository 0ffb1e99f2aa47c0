"""Per-column statistics snapshots: the warm half of the lake store.

A stats snapshot captures everything :class:`repro.table.stats.ColumnStats`
computes from a raw column -- dtype, null/missing counts, the distinct-value
set, the domain token set and the serialized MinHash / HyperLogLog
sketches -- so a later process restores the whole cache with
:meth:`ColumnStats.from_snapshot` and never re-scans a cell.  The
normalized text domain is not written: it is derived from the distinct
set.  Snapshots written before that still carry a ``text_values`` field,
which the one reader ignores.

Hydration validates every field and decodes every sketch, so a damaged
snapshot fails there (with a :class:`ValueError` that the store turns
into :class:`~repro.store.lakestore.StatsCorrupted`), never on first use;
the column then keeps each sketch as its persisted bytes.

Sketch parameters are pinned by :class:`SketchConfig` and recorded in the
store manifest: MinHash signatures are only comparable under identical
``(num_perm, seed)`` and HyperLogLogs only merge at equal precision, so a
snapshot built under one configuration must never be hydrated into a
process expecting another -- the store raises
:class:`~repro.store.lakestore.SketchConfigMismatch` instead of silently
serving incomparable sketches.
"""

from __future__ import annotations

import base64
import binascii
import json
import struct
import zlib
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from ..sketch.hll import HyperLogLog
from ..sketch.minhash import DEFAULT_NUM_PERM, DEFAULT_SEED, MinHasher, MinHashSignature
from ..table.stats import ColumnStats
from ..table.values import Cell
from .codec import encode_cell

__all__ = [
    "SketchConfig",
    "DEFAULT_HLL_PRECISION",
    "SketchArtifactError",
    "column_stats_payload",
    "hydrate_column_stats",
    "hydrate_table_stats",
    "encode_signature_tables",
    "decode_signature_tables",
]

DEFAULT_HLL_PRECISION = 12


@dataclass(frozen=True)
class SketchConfig:
    """The sketch parameters a snapshot was built under.

    Recorded verbatim in the manifest; equality is the compatibility test.
    """

    minhash_num_perm: int = DEFAULT_NUM_PERM
    minhash_seed: int = DEFAULT_SEED
    hll_precision: int = DEFAULT_HLL_PRECISION

    def to_json(self) -> dict[str, int]:
        return asdict(self)

    @classmethod
    def from_json(cls, payload: dict[str, int]) -> "SketchConfig":
        return cls(**payload)

    @property
    def hasher(self) -> MinHasher:
        return _hasher(self.minhash_num_perm, self.minhash_seed)


@lru_cache(maxsize=8)
def _hasher(num_perm: int, seed: int) -> MinHasher:
    # One hasher per parameter pair per process: constructing a MinHasher
    # draws the permutation coefficients, which should happen once, not
    # once per column of a 10k-table lake.
    return MinHasher(num_perm=num_perm, seed=seed)


def _distinct_sort_key(cell: Cell) -> tuple[str, str]:
    # A total order over heterogeneous distinct values, so payloads are
    # deterministic across processes and set-iteration orders.
    return (type(cell).__name__, str(cell))


def column_stats_payload(stats: ColumnStats, config: SketchConfig) -> dict[str, Any]:
    """Serialize one column's full statistics under *config*.

    Forces the base scan and all derived products if they have not run yet
    (ingest time is exactly when that one scan is supposed to happen).
    """
    signature = stats.minhash(config.hasher)
    hll = stats.hll(config.hll_precision)
    return {
        "dtype": stats.dtype,
        "row_count": stats.row_count,
        "null_count": stats.null_count,
        "missing_count": stats.missing_count,
        "numeric_fraction": stats.numeric_fraction,
        "distinct": [
            encode_cell(cell) for cell in sorted(stats.distinct, key=_distinct_sort_key)
        ],
        "tokens": sorted(stats.tokens),
        "minhash": base64.b64encode(signature.to_bytes()).decode("ascii"),
        "hll": base64.b64encode(hll.to_bytes()).decode("ascii"),
    }


#: Every dtype :func:`~repro.table.infer.infer_dtype` can name.
_DTYPES = frozenset({"empty", "any", "string", "bool", "int", "float"})


def _field(payload: Mapping[str, Any], key: str, kind: type | tuple[type, ...]) -> Any:
    try:
        value = payload[key]
    except KeyError:
        raise ValueError(f"field {key!r} is missing") from None
    if not isinstance(value, kind) or type(value) is bool:  # no field is boolean
        raise ValueError(f"field {key!r} has the wrong type: {value!r:.40}")
    return value


def _count(payload: Mapping[str, Any], key: str, ceiling: int) -> int:
    value = _field(payload, key, int)
    if not 0 <= value <= ceiling:
        raise ValueError(f"field {key!r} is {value}, not a count in [0, {ceiling}]")
    return value


def _sketch_bytes(payload: Mapping[str, Any], key: str) -> bytes:
    try:
        return base64.b64decode(_field(payload, key, str), validate=True)
    except binascii.Error as error:
        raise ValueError(f"field {key!r} is not base64: {error}") from None


def hydrate_column_stats(
    table_name: str,
    name: str,
    payload: Mapping[str, Any],
    config: SketchConfig,
    array_loader: Callable[[], tuple[Cell, ...]],
    num_rows: int,
) -> ColumnStats:
    """Rebuild a fully-warmed :class:`ColumnStats` from its payload.

    Every field is checked and both sketches are decoded here, so damage
    raises :class:`ValueError` now, not on first use; the column keeps the
    sketches as bytes.  *num_rows* is the row count the manifest states."""
    if not isinstance(payload, dict):
        raise ValueError(f"column {name!r} payload is not an object")
    dtype = _field(payload, "dtype", str)
    if dtype not in _DTYPES:
        raise ValueError(f"field 'dtype' is {dtype!r:.40}")
    row_count = _field(payload, "row_count", int)
    if row_count != num_rows:
        raise ValueError(f"field 'row_count' is {row_count}, the manifest says {num_rows}")
    null_count = _count(payload, "null_count", row_count)
    missing_count = _count(payload, "missing_count", null_count)
    numeric_fraction = _field(payload, "numeric_fraction", (int, float))
    if not 0 <= numeric_fraction <= 1:
        raise ValueError(f"field 'numeric_fraction' is {numeric_fraction!r}")
    distinct = _field(payload, "distinct", list)
    if len(distinct) > row_count - null_count or not all(
        type(cell) in (str, int, float, bool) for cell in distinct
    ):
        raise ValueError("field 'distinct' is not a set of non-null cells")
    tokens = _field(payload, "tokens", list)
    if not all(type(token) is str for token in tokens):
        raise ValueError("field 'tokens' holds a non-string")
    minhash = _sketch_bytes(payload, "minhash")
    if len(MinHashSignature.from_bytes(minhash).values) != config.minhash_num_perm:
        raise ValueError("MinHash signature length differs from the sketch config")
    hll = _sketch_bytes(payload, "hll")
    if HyperLogLog.from_bytes(hll).precision != config.hll_precision:
        raise ValueError("HyperLogLog precision differs from the sketch config")
    return ColumnStats.from_snapshot(
        table_name,
        name,
        dtype=dtype,
        row_count=row_count,
        null_count=null_count,
        missing_count=missing_count,
        numeric_fraction=numeric_fraction,
        distinct=distinct,
        tokens=tokens,
        minhash={(config.minhash_num_perm, config.minhash_seed): minhash},
        hll={config.hll_precision: hll},
        array_loader=array_loader,
    )


def hydrate_table_stats(
    table_name: str,
    columns: Sequence[str],
    num_rows: int,
    document: str,
    config: SketchConfig,
    array_loaders: Sequence[Callable[[], tuple[Cell, ...]]],
) -> dict[str, ColumnStats]:
    """Every column of one table's stats *document* (the JSON text of its
    ``stats`` file), hydrated; a damaged document raises
    :class:`ValueError`.  *columns* and *num_rows* are what the manifest
    says the table holds."""
    payloads = json.loads(document)
    payloads = payloads.get("columns") if isinstance(payloads, dict) else None
    if not isinstance(payloads, dict) or sorted(payloads) != sorted(columns):
        raise ValueError(f"the document does not hold exactly columns {list(columns)}")
    return {
        column: hydrate_column_stats(
            table_name, column, payloads[column], config, loader, num_rows
        )
        for column, loader in zip(columns, array_loaders)
    }


# ----------------------------------------------------------------------
# The sketch artifact: the candidate engine's signature tables
# ----------------------------------------------------------------------
#: ``(num_perm, num_partitions, seed, min_size)`` of one sketch ensemble.
EnsembleParams = tuple[int, int, int, int]
#: Registry keys, their set sizes, and one signature row per key.
SignatureTable = tuple[Sequence[int], np.ndarray, np.ndarray]

_ARTIFACT_HEADER = struct.Struct("<4sBI")  # magic, format version, table count
_ARTIFACT_MAGIC = b"RSKT"
_ARTIFACT_VERSION = 1
_TABLE_HEADER = struct.Struct("<IIqIQ")  # the four parameters, then the row count
_CHECKSUM = struct.Struct("<I")  # CRC-32 of every byte before it


class SketchArtifactError(ValueError):
    """The bytes are not a complete, intact sketch artifact."""


def encode_signature_tables(tables: Mapping[EnsembleParams, SignatureTable]) -> bytes:
    """One binary document holding every table: per parameter set (in
    sorted order) the registry keys as little-endian uint32, the set sizes
    as uint64 and the ``(n, num_perm)`` signature matrix as one contiguous
    uint32 block; a CRC-32 of everything closes it."""
    parts = [_ARTIFACT_HEADER.pack(_ARTIFACT_MAGIC, _ARTIFACT_VERSION, len(tables))]
    for params in sorted(tables):
        keys, sizes, matrix = tables[params]
        parts.append(_TABLE_HEADER.pack(*params, len(keys)))
        parts.append(np.asarray(keys, dtype="<u4").tobytes())
        parts.append(np.asarray(sizes, dtype="<u8").tobytes())
        parts.append(np.ascontiguousarray(matrix, dtype="<u4").tobytes())
    body = b"".join(parts)
    return body + _CHECKSUM.pack(zlib.crc32(body))


def decode_signature_tables(payload: bytes) -> dict[EnsembleParams, SignatureTable]:
    """Inverse of :func:`encode_signature_tables`; anything but a complete
    document with a matching checksum raises :class:`SketchArtifactError`."""
    if len(payload) < _ARTIFACT_HEADER.size + _CHECKSUM.size:
        raise SketchArtifactError("sketch artifact is truncated")
    magic, version, count = _ARTIFACT_HEADER.unpack_from(payload)
    if magic != _ARTIFACT_MAGIC or version != _ARTIFACT_VERSION:
        raise SketchArtifactError("not a version-1 sketch artifact")
    end = len(payload) - _CHECKSUM.size
    if _CHECKSUM.unpack_from(payload, end)[0] != zlib.crc32(memoryview(payload)[:end]):
        raise SketchArtifactError("sketch artifact checksum mismatch")
    tables: dict[EnsembleParams, SignatureTable] = {}
    offset = _ARTIFACT_HEADER.size
    try:
        for _ in range(count):
            *params, rows = _TABLE_HEADER.unpack_from(payload, offset)
            offset += _TABLE_HEADER.size
            columns = []
            for dtype, width in (("<u4", 1), ("<u8", 1), ("<u4", params[0])):
                block = np.frombuffer(payload, dtype=dtype, count=rows * width, offset=offset)
                offset += block.nbytes
                columns.append(block)
            keys, sizes, matrix = columns
            tables[tuple(params)] = (
                keys.tolist(),
                sizes.astype(np.int64),
                matrix.astype(np.uint32).reshape(rows, params[0]),
            )
    except (struct.error, ValueError) as error:
        raise SketchArtifactError(f"sketch artifact is malformed: {error}") from None
    if offset != end:
        raise SketchArtifactError("sketch artifact has trailing bytes")
    return tables
