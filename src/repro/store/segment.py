"""Columnar segment files: one format, written and read.

A segment (``.seg.bin``) is one table's cells in the binary
dictionary-coded columnar layout (v2)::

    header   <4sBIIIQ>  magic b"RSG2", code width (1|2|4), rows, cols,
                        dictionary entry count, dictionary byte length
    dict     binary cell codec (codec.encode_cells_binary), one entry per
             distinct non-null cell, in first-appearance order
    col i    rows * width little-endian unsigned dictionary codes,
             then a non-null bitmap of (rows+7)//8 bytes (LSB-first:
             bit r of byte r//8 set iff row r holds a real value)

Codes reuse the PR-4 interner's assignment idea: ``0`` is the MISSING
null, ``1`` the PRODUCED null, and code ``c >= 2`` names dictionary entry
``c - 2``.  Decoding a column is therefore one contiguous array read plus
a table lookup -- no JSON parsing, no per-cell branching: the file is
read with one ``read_bytes()``, and a column is a numpy ``frombuffer``
view of its codes plus one object-LUT gather.  The dtypes are explicit little-endian, so nothing
depends on the host's byte order.  The null bitmap is written but has no
reader in the library: the typed-column path that would hand it to
bitmask kernels is parked (ROADMAP).  Any structural damage (bad magic,
impossible code width, size mismatch, out-of-range code, undecodable
dictionary) raises :class:`SegmentCorrupted` rather than yielding garbage
cells.  A segment is always read whole: a column's cells cannot be
decoded without the table's dictionary anyway.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from . import journal
from ..table.table import Table
from ..table.values import MISSING, PRODUCED, Cell, is_null
from .codec import BinaryCodecError, decode_cells_binary, encode_cells_binary

__all__ = [
    "write_segment_v2",
    "read_columns_v2",
    "SegmentCorrupted",
]


class SegmentCorrupted(journal.StoreError):
    """A segment file is structurally damaged (truncated, bad magic,
    out-of-range dictionary codes, undecodable cells, a column count
    other than the manifest's)."""


# ----------------------------------------------------------------------
# Format v2: binary dictionary-coded columns
# ----------------------------------------------------------------------
_V2_MAGIC = b"RSG2"
_V2_HEADER = struct.Struct("<4sBIIIQ")

#: Null sentinels occupy the first two codes; real cells start at 2.
_NULL_CODES = 2

_NUMPY_DTYPE_BY_WIDTH = {1: "<u1", 2: "<u2", 4: "<u4"}


def _width_for(code_count: int) -> int:
    if code_count <= 0xFF:
        return 1
    if code_count <= 0xFFFF:
        return 2
    return 4


def _pack_codes(codes: list[int], width: int) -> bytes:
    return np.asarray(codes, dtype=_NUMPY_DTYPE_BY_WIDTH[width]).tobytes()


def write_segment_v2(path: Path, table: Table) -> None:
    """Write *table* to *path* in binary v2.

    The write is atomic (temp file + rename), so a crash mid-write never
    leaves a half-segment behind a manifest that references it.  The
    dictionary keys cells by ``(type, value)`` so numerically-equal cells
    of different types (``True`` / ``1`` / ``1.0``) keep distinct codes
    and decode back to their exact original type.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    arrays = table.column_arrays
    rows = table.num_rows
    dictionary: list[Cell] = []
    code_of: dict = {}
    column_codes: list[list[int]] = []
    for array in arrays:
        codes: list[int] = []
        for cell in array:
            if is_null(cell):
                codes.append(0 if cell is MISSING or cell.kind == MISSING.kind else 1)
                continue
            key = (type(cell).__name__, cell)
            code = code_of.get(key)
            if code is None:
                code = len(dictionary) + _NULL_CODES
                code_of[key] = code
                dictionary.append(cell)
            codes.append(code)
        column_codes.append(codes)

    width = _width_for(len(dictionary) + _NULL_CODES)
    dict_block = encode_cells_binary(dictionary)
    bitmap_bytes = (rows + 7) // 8

    temp = path.with_name(path.name + ".tmp")
    with temp.open("wb") as handle:
        handle.write(
            _V2_HEADER.pack(
                _V2_MAGIC, width, rows, len(arrays), len(dictionary), len(dict_block)
            )
        )
        handle.write(dict_block)
        for codes in column_codes:
            handle.write(_pack_codes(codes, width))
            nonnull = 0
            for row, code in enumerate(codes):
                if code >= _NULL_CODES:
                    nonnull |= 1 << row
            handle.write(nonnull.to_bytes(bitmap_bytes, "little"))
        handle.flush()
        if journal.fsync_enabled():
            os.fsync(handle.fileno())
    temp.replace(path)


class _SegmentV2:
    """Parsed v2 header + dictionary over one contiguous buffer."""

    __slots__ = ("buffer", "width", "rows", "cols", "lut", "body_start", "path")

    def __init__(self, path: Path, buffer: bytes) -> None:
        self.path = path
        self.buffer = buffer
        if len(buffer) < _V2_HEADER.size:
            raise SegmentCorrupted(f"segment {path} is shorter than a v2 header")
        magic, width, rows, cols, dict_count, dict_bytes = _V2_HEADER.unpack_from(
            buffer, 0
        )
        if magic != _V2_MAGIC:
            raise SegmentCorrupted(f"segment {path} has bad magic {magic!r}")
        if width not in (1, 2, 4):
            raise SegmentCorrupted(f"segment {path} declares code width {width}")
        body_start = _V2_HEADER.size + dict_bytes
        expected = body_start + cols * (rows * width + (rows + 7) // 8)
        if len(buffer) != expected:
            raise SegmentCorrupted(
                f"segment {path} holds {len(buffer)} bytes, header implies {expected}"
            )
        try:
            dictionary = decode_cells_binary(
                buffer[_V2_HEADER.size : body_start], dict_count
            )
        except BinaryCodecError as exc:
            raise SegmentCorrupted(
                f"segment {path} dictionary is undecodable: {exc}"
            ) from exc
        self.width = width
        self.rows = rows
        self.cols = cols
        self.lut = np.asarray([MISSING, PRODUCED, *dictionary], dtype=object)
        self.body_start = body_start

    def cells_at(self, index: int) -> tuple[Cell, ...]:
        """The cell array of column *index* (below ``cols``, so its block
        lies inside the length ``__init__`` checked): one contiguous code
        view plus one object-LUT gather."""
        offset = self.body_start + index * (
            self.rows * self.width + (self.rows + 7) // 8
        )
        codes = np.frombuffer(
            self.buffer, dtype=_NUMPY_DTYPE_BY_WIDTH[self.width],
            count=self.rows, offset=offset,
        )
        try:
            return tuple(self.lut[codes].tolist())
        except IndexError:
            raise SegmentCorrupted(
                f"segment {self.path} holds code {int(codes.max())}, "
                f"dictionary ends at {len(self.lut) - 1}"
            ) from None


def read_columns_v2(path: Path, num_columns: int) -> list[tuple[Cell, ...]]:
    """All column arrays of a v2 segment, in header order."""
    segment = _SegmentV2(path, path.read_bytes())
    if segment.cols != num_columns:
        raise SegmentCorrupted(
            f"segment {path} holds {segment.cols} columns, manifest says "
            f"{num_columns}"
        )
    return [segment.cells_at(index) for index in range(segment.cols)]
