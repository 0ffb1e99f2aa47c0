"""Per-column statistics snapshots: the warm half of the lake store.

A stats snapshot captures everything :class:`repro.table.stats.ColumnStats`
computes from a raw column -- dtype, null/missing counts, the distinct-value
set, the domain token set and the serialized MinHash -- so a later
process restores the whole cache with :meth:`ColumnStats.from_snapshot`
and never re-scans a cell.  The normalized text domain is not written:
it is derived from the distinct set.

Hydration validates every field and decodes the MinHash, so a damaged
snapshot fails there (with a :class:`ValueError` that the store turns
into :class:`~repro.store.lakestore.StatsCorrupted`), never on first use;
the column then keeps the MinHash as its persisted bytes.  The snapshot
holds the store's only copy of each column's MinHash and token set:
:func:`snapshot_field` reads just one of those fields, checked the same
way, so a sketch ensemble stacks, and the token postings build, without
hydrating the table.

Sketch parameters are pinned by :class:`SketchConfig` and recorded in the
store manifest: MinHash signatures are only comparable under identical
``(num_perm, seed)``, so a snapshot built under one configuration must
never be hydrated into a process expecting another -- the store raises
:class:`~repro.store.lakestore.SketchConfigMismatch` instead of silently
serving incomparable sketches.
"""

from __future__ import annotations

import base64
import binascii
import json
from dataclasses import asdict, dataclass
from typing import Any, Callable, Mapping, Sequence

from ..sketch.minhash import DEFAULT_NUM_PERM, DEFAULT_SEED, MinHasher, MinHashSignature
from ..table.stats import ColumnStats
from ..table.values import Cell
from .codec import encode_cell

__all__ = [
    "SketchConfig",
    "column_stats_payload",
    "hydrate_column_stats",
    "hydrate_table_stats",
    "snapshot_field",
]

#: Each :class:`SketchConfig` field's inclusive range: a signature's
#: header holds ``num_perm`` in 32 bits, and seeds are 64-bit.
_SKETCH_RANGES = {
    "minhash_num_perm": (1, (1 << 32) - 1),
    "minhash_seed": (0, (1 << 64) - 1),
}


@dataclass(frozen=True)
class SketchConfig:
    """The sketch parameters a snapshot was built under.

    Recorded verbatim in the manifest; equality is the compatibility test.
    """

    minhash_num_perm: int = DEFAULT_NUM_PERM
    minhash_seed: int = DEFAULT_SEED

    def to_json(self) -> dict[str, int]:
        return asdict(self)

    @classmethod
    def from_json(cls, payload: Any) -> "SketchConfig":
        """Inverse of :meth:`to_json`.  Anything but an object holding
        exactly the two fields, each an int in its range, raises
        :class:`ValueError`."""
        if not isinstance(payload, dict):
            raise ValueError(f"the sketch block is not an object: {payload!r:.40}")
        if set(payload) != set(_SKETCH_RANGES):
            raise ValueError(
                f"the sketch block has fields {sorted(payload)}, not {sorted(_SKETCH_RANGES)}"
            )
        for key, (low, high) in _SKETCH_RANGES.items():
            value = payload[key]
            if type(value) is not int or not low <= value <= high:
                raise ValueError(
                    f"the sketch block's {key!r} is not an int in [{low}, {high}]: {value!r:.40}"
                )
        return cls(**payload)

    @property
    def hasher(self) -> MinHasher:
        return MinHasher(num_perm=self.minhash_num_perm, seed=self.minhash_seed)


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


def _minhash(payload: Mapping[str, Any], config: SketchConfig) -> tuple[bytes, MinHashSignature]:
    """The column's MinHash as persisted, and decoded; raises
    :class:`ValueError` unless it decodes to a *config* signature."""
    try:
        data = base64.b64decode(_field(payload, "minhash", str), validate=True)
    except binascii.Error as error:
        raise ValueError(f"field 'minhash' is not base64: {error}") from None
    signature = MinHashSignature.from_bytes(data)
    if len(signature.values) != config.minhash_num_perm:
        raise ValueError("MinHash signature length differs from the sketch config")
    return data, signature


def _tokens(payload: Mapping[str, Any]) -> list[str]:
    tokens = _field(payload, "tokens", list)
    if not all(type(token) is str for token in tokens):
        raise ValueError("field 'tokens' holds a non-string")
    return tokens


def hydrate_column_stats(
    table_name: str,
    name: str,
    payload: Mapping[str, Any],
    config: SketchConfig,
    array_loader: Callable[[], tuple[Cell, ...]],
    num_rows: int,
) -> ColumnStats:
    """Rebuild a fully-warmed :class:`ColumnStats` from its payload.

    Every field is checked and the MinHash is decoded here, so damage
    raises :class:`ValueError` now, not on first use; the column keeps the
    MinHash as bytes.  *num_rows* is the row count the manifest states."""
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
    tokens = _tokens(payload)
    minhash, _ = _minhash(payload, config)
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
        array_loader=array_loader,
    )


def _column_payloads(document: str, columns: Sequence[str]) -> dict[str, dict[str, Any]]:
    """The per-column payloads of one table's stats *document*; raises
    :class:`ValueError` unless it holds an object for exactly *columns*."""
    payloads = json.loads(document)
    payloads = payloads.get("columns") if isinstance(payloads, dict) else None
    if not isinstance(payloads, dict) or sorted(payloads) != sorted(columns):
        raise ValueError(f"the document does not hold exactly columns {list(columns)}")
    for column in columns:
        if not isinstance(payloads[column], dict):
            raise ValueError(f"column {column!r} payload is not an object")
    return payloads


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
    payloads = _column_payloads(document, columns)
    return {
        column: hydrate_column_stats(
            table_name, column, payloads[column], config, loader, num_rows
        )
        for column, loader in zip(columns, array_loaders)
    }


#: What :func:`snapshot_field` reads of a column payload, per field.
_PARTIAL_READS: dict[str, Callable[[Mapping[str, Any], SketchConfig], Any]] = {
    "minhash": lambda payload, config: _minhash(payload, config)[1],
    "tokens": lambda payload, config: frozenset(_tokens(payload)),
}


def snapshot_field(
    field: str, columns: Sequence[str], document: str, config: SketchConfig
) -> dict[str, Any]:
    """Every column's *field* in one table's stats *document*, in
    *columns* order, checked as :func:`hydrate_column_stats` checks it: a
    ``minhash`` decodes to a :class:`MinHashSignature`, ``tokens`` to a
    frozenset.  No other field is decoded.  A damaged document or field
    raises :class:`ValueError`."""
    read = _PARTIAL_READS[field]
    payloads = _column_payloads(document, columns)
    return {column: read(payloads[column], config) for column in columns}
