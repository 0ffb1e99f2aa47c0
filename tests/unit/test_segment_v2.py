"""A damaged v2 segment read straight from disk by ``read_columns_v2``.

A v2 segment is read with one ``read_bytes()``; there is no memory map
left to close, but a failing read must still raise the typed error and
leave nothing behind that stops the next read of the same file.
"""

from __future__ import annotations

import pytest

from repro.store.segment import (
    SegmentCorrupted,
    read_columns_v2,
    write_segment_v2,
)
from repro.table import MISSING, PRODUCED, Table

ROWS = [
    ("Zürich", 1, 1.5),
    ("Bern", 2**70, MISSING),
    (PRODUCED, True, -0.0),
    ("Zürich", 1, float("inf")),
]


@pytest.fixture
def written(tmp_path):
    path = tmp_path / "t.seg.bin"
    write_segment_v2(path, Table(["a", "b", "c"], ROWS, name="t"))
    return path


def test_out_of_range_code_through_mmap_is_segment_corrupted(written):
    pristine = written.read_bytes()
    damaged = bytearray(pristine)
    # Width is 1 (the dictionary has 9 entries), so each of the three
    # column blocks is len(ROWS) codes and one bitmap byte.
    damaged[len(pristine) - 3 * (len(ROWS) + 1)] = 0xFF
    written.write_bytes(bytes(damaged))
    with pytest.raises(SegmentCorrupted, match="holds code 255"):
        read_columns_v2(written, 3)
    # The failed read left nothing behind that stops the next one.
    written.write_bytes(pristine)
    columns = read_columns_v2(written, 3)
    assert [repr(column) for column in columns] == [
        repr(column) for column in zip(*ROWS)
    ]
    assert columns[0][2] is PRODUCED and columns[2][1] is MISSING
