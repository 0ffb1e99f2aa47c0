"""Cell-level codec and canonical content hashing for the lake store.

The JSON cell codec is what the wire, the stats snapshots' ``distinct``
sets and the content hash speak: a cell is a JSON scalar (``str`` /
``int`` / ``float`` / ``bool``) except nulls, which become single-key
objects carrying their provenance kind -- JSON objects can never be
confused with scalar cells, so the encoding is unambiguous and the
paper's two-kind null model (``±`` missing vs ``⊥`` produced) survives a
round trip bit-for-bit.

The *content hash* is the store's change detector: a SHA-256 over a
canonical serialization of a table's header and column arrays.  Two tables
hash equal iff they hold the same cells (null kinds included) under the
same column names in the same order -- the table's *name* is deliberately
excluded, because the manifest already keys entries by name and a rename
should read as remove+add, not as a content change.

The second half of the module is the *binary* cell codec behind the v2
segment dictionary (format notes above its tag table): one encoder and
one per-cell decoder, which raises :class:`BinaryCodecError` on every
malformed input.
"""

from __future__ import annotations

import hashlib
import json
import struct
from typing import Any

from ..table.table import Table
from ..table.values import MISSING, PRODUCED, Cell, Null, is_null

__all__ = [
    "encode_cell",
    "decode_cell",
    "encode_column",
    "encode_table",
    "decode_table",
    "table_content_hash",
    "encode_cells_binary",
    "decode_cells_binary",
    "BinaryCodecError",
]

_NULL_KEY = "__null__"


def encode_cell(cell: Cell) -> Any:
    """One cell as a JSON-serializable value."""
    if is_null(cell):
        return {_NULL_KEY: cell.kind}
    if isinstance(cell, (str, int, float, bool)):
        return cell
    raise TypeError(
        f"cell of type {type(cell).__name__} is not storable: {cell!r}"
    )


def decode_cell(value: Any) -> Cell:
    """Inverse of :func:`encode_cell`; null singletons are restored by kind."""
    if isinstance(value, dict):
        return Null(value[_NULL_KEY])
    return value


def encode_column(array: tuple[Cell, ...]) -> str:
    """One column array as a compact single-line JSON document (the
    content hash's canonical form)."""
    return json.dumps(
        [encode_cell(cell) for cell in array],
        ensure_ascii=False,
        separators=(",", ":"),
    )


def encode_table(table: Table) -> dict[str, Any]:
    """A whole table as one JSON-serializable document -- the canonical
    ``{"name", "columns", "rows"}`` shape shared by the serving layer's
    response payloads and the wire protocol (one definition, so the two
    can never drift apart)."""
    return {
        "name": table.name,
        "columns": list(table.columns),
        "rows": [[encode_cell(cell) for cell in row] for row in table.rows],
    }


def decode_table(document: dict[str, Any]) -> Table:
    """Inverse of :func:`encode_table`."""
    return Table(
        document["columns"],
        [tuple(decode_cell(cell) for cell in row) for row in document["rows"]],
        name=document.get("name", "table"),
    )


# ----------------------------------------------------------------------
# Binary cell codec (the segment-v2 value dictionary encoding)
# ----------------------------------------------------------------------
# A *columnar* encoding of a cell sequence: one tag byte per cell, then
# one little-endian u32 payload length per cell, then the payloads
# grouped by tag -- every string payload first, then every int payload,
# then every float payload (within a group, cell order)::
#
#     tags      count bytes
#     lengths   count * u32  (0 for bool/null, 8 for float, n for int/str)
#     payloads  all str payloads + all int payloads + all float payloads
#
# Tags and lengths sit in two contiguous arrays ahead of every payload,
# so the decoder checks each tag / length pair and the total payload size
# before it reads a single cell.  Unlike the JSON
# line codec above, every value round-trips at the *bit* level: floats
# are raw IEEE-754 doubles (NaN payloads, ``±inf``, ``-0.0`` and the sign
# of zero all survive), ints are arbitrary-precision two's-complement
# bytes (no float64 detour, so ints beyond 2**53 stay exact), and bool
# keeps its own tags so ``True`` can never collapse into ``1``.  Nulls
# carry their kind in the tag.  A segment stores its per-table value
# dictionary under this codec; the JSON codec remains the wire /
# content-hash format.

_TAG_FALSE = 0x01
_TAG_TRUE = 0x02
_TAG_INT = 0x03
_TAG_FLOAT = 0x04
_TAG_STR = 0x05
_TAG_MISSING = 0x06
_TAG_PRODUCED = 0x07

#: Tags whose payload length is fixed by the tag itself.
_FIXED_LENGTH = {
    _TAG_FALSE: 0,
    _TAG_TRUE: 0,
    _TAG_FLOAT: 8,
    _TAG_MISSING: 0,
    _TAG_PRODUCED: 0,
}

_U32 = struct.Struct("<I")
_F64 = struct.Struct("<d")


class BinaryCodecError(ValueError):
    """A malformed binary cell payload (truncation, unknown tag)."""


def encode_cells_binary(cells: Any) -> bytes:
    """Columnar binary encoding of a cell sequence."""
    tags = bytearray()
    lengths = bytearray()
    strs: list[bytes] = []
    ints: list[bytes] = []
    floats: list[bytes] = []
    pack_length = _U32.pack
    for cell in cells:
        if cell is MISSING:
            tags.append(_TAG_MISSING)
            lengths += b"\x00\x00\x00\x00"
        elif cell is PRODUCED:
            tags.append(_TAG_PRODUCED)
            lengths += b"\x00\x00\x00\x00"
        elif isinstance(cell, bool):
            tags.append(_TAG_TRUE if cell else _TAG_FALSE)
            lengths += b"\x00\x00\x00\x00"
        elif isinstance(cell, int):
            payload = cell.to_bytes(cell.bit_length() // 8 + 1, "big", signed=True)
            tags.append(_TAG_INT)
            lengths += pack_length(len(payload))
            ints.append(payload)
        elif isinstance(cell, float):
            tags.append(_TAG_FLOAT)
            lengths += b"\x08\x00\x00\x00"
            floats.append(_F64.pack(cell))
        elif isinstance(cell, str):
            payload = cell.encode("utf-8")
            tags.append(_TAG_STR)
            lengths += pack_length(len(payload))
            strs.append(payload)
        else:
            raise TypeError(
                f"cell of type {type(cell).__name__} is not storable: {cell!r}"
            )
    return (
        bytes(tags)
        + bytes(lengths)
        + b"".join(strs)
        + b"".join(ints)
        + b"".join(floats)
    )


def decode_cells_binary(buffer: bytes, count: int) -> list[Cell]:
    """Inverse of :func:`encode_cells_binary`: exactly *count* cells.

    Raises :class:`BinaryCodecError` on truncation, trailing garbage, an
    unknown tag, a tag/length mismatch or invalid UTF-8 (a declared length
    ending inside a character included) -- a corrupted dictionary must
    fail loudly, never decode into plausible-looking garbage cells.
    One validation pass over tags and lengths, then one dispatch pass.
    """
    base = count * 5
    if len(buffer) < base:
        raise BinaryCodecError("binary cell payload truncated")
    tags = buffer[:count]
    lengths = [length for (length,) in _U32.iter_unpack(buffer[count:base])]
    str_total = 0
    int_total = 0
    float_count = 0
    for tag, length in zip(tags, lengths):
        fixed = _FIXED_LENGTH.get(tag)
        if fixed is not None:
            if fixed != length:
                raise BinaryCodecError(
                    f"binary cell tag 0x{tag:02x} declares payload length {length}"
                )
            if tag == _TAG_FLOAT:
                float_count += 1
        elif tag == _TAG_STR:
            str_total += length
        elif tag == _TAG_INT:
            int_total += length
        else:
            raise BinaryCodecError(f"unknown binary cell tag 0x{tag:02x}")
    end = base + str_total + int_total + float_count * 8
    if end > len(buffer):
        raise BinaryCodecError("binary cell payload truncated")
    if end < len(buffer):
        raise BinaryCodecError(
            f"binary cell payload has {len(buffer) - end} trailing bytes"
        )
    str_cursor = base
    int_cursor = base + str_total
    float_cursor = int_cursor + int_total
    cells: list[Cell] = []
    append = cells.append
    for tag, length in zip(tags, lengths):
        if tag == _TAG_STR:
            try:
                append(buffer[str_cursor : str_cursor + length].decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise BinaryCodecError(
                    "binary cell payload holds invalid UTF-8"
                ) from exc
            str_cursor += length
        elif tag == _TAG_INT:
            append(
                int.from_bytes(
                    buffer[int_cursor : int_cursor + length], "big", signed=True
                )
            )
            int_cursor += length
        elif tag == _TAG_FLOAT:
            append(_F64.unpack_from(buffer, float_cursor)[0])
            float_cursor += 8
        elif tag == _TAG_FALSE:
            append(False)
        elif tag == _TAG_TRUE:
            append(True)
        elif tag == _TAG_MISSING:
            append(MISSING)
        else:
            append(PRODUCED)
    return cells


def table_content_hash(table: Table) -> str:
    """Hex SHA-256 of the table's canonical content (header + cells)."""
    digest = hashlib.sha256()
    digest.update(
        json.dumps(list(table.columns), ensure_ascii=False, separators=(",", ":")).encode("utf-8")
    )
    for array in table.column_arrays:
        digest.update(b"\x1f")
        digest.update(encode_column(array).encode("utf-8"))
    return digest.hexdigest()
