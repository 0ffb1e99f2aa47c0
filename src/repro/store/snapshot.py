"""Per-column statistics snapshots: the warm half of the lake store.

A stats snapshot captures everything :class:`repro.table.stats.ColumnStats`
computes from a raw column -- dtype, null/missing counts, the distinct-value
set, the domain token set, normalized text values, and the serialized
MinHash / HyperLogLog sketches -- so a later process restores the whole
cache with :meth:`ColumnStats.from_snapshot` and never re-scans a cell.

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
from .codec import decode_cell, encode_cell

__all__ = [
    "SketchConfig",
    "DEFAULT_HLL_PRECISION",
    "SketchArtifactError",
    "column_stats_payload",
    "hydrate_column_stats",
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
        "text_values": sorted(stats.text_values()),
        "minhash": base64.b64encode(signature.to_bytes()).decode("ascii"),
        "hll": base64.b64encode(hll.to_bytes()).decode("ascii"),
    }


def hydrate_column_stats(
    table_name: str,
    name: str,
    payload: dict[str, Any],
    config: SketchConfig,
    array_loader: Callable[[], tuple[Cell, ...]],
) -> ColumnStats:
    """Rebuild a fully-warmed :class:`ColumnStats` from its payload."""
    signature = MinHashSignature.from_bytes(base64.b64decode(payload["minhash"]))
    hll = HyperLogLog.from_bytes(base64.b64decode(payload["hll"]))
    return ColumnStats.from_snapshot(
        table_name,
        name,
        dtype=payload["dtype"],
        row_count=payload["row_count"],
        null_count=payload["null_count"],
        missing_count=payload["missing_count"],
        numeric_fraction=payload["numeric_fraction"],
        distinct=[decode_cell(value) for value in payload["distinct"]],
        tokens=payload["tokens"],
        text_values=payload["text_values"],
        minhash={(config.minhash_num_perm, config.minhash_seed): signature},
        hll={config.hll_precision: hll},
        array_loader=array_loader,
    )


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
