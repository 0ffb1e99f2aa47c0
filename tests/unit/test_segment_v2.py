"""v2 segments opened through the ``mmap`` branch of ``_open_v2``.

Files of ``_MMAP_MIN_BYTES`` (1 MiB) and up are memory-mapped and every
column is decoded from a numpy view of the map; the map is closed when
the read returns *or raises*.  No fixture lake or benchmark table is that
large, so these tests lower the constant instead of writing megabytes.
"""

from __future__ import annotations

import pytest

from repro.obs import metrics
from repro.store import segment
from repro.store.segment import (
    SegmentCorrupted,
    read_column_v2,
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
def mapped(tmp_path, monkeypatch):
    """A written segment that every read in the test will ``mmap``."""
    monkeypatch.setattr(segment, "_MMAP_MIN_BYTES", 1)
    path = tmp_path / "t.seg.bin"
    offsets = write_segment_v2(path, Table(["a", "b", "c"], ROWS, name="t"))
    return path, offsets


def mmap_opens():
    return metrics.counter("segment.open.mmap").value


def test_round_trip_through_mmap(mapped):
    path, offsets = mapped
    before = mmap_opens()
    columns = read_columns_v2(path, 3)
    assert [repr(column) for column in columns] == [
        repr(column) for column in zip(*ROWS)
    ]
    assert columns[0][2] is PRODUCED and columns[2][1] is MISSING
    assert read_column_v2(path, offsets[1]) == columns[1]
    assert mmap_opens() == before + 2


def test_out_of_range_code_through_mmap_is_segment_corrupted(mapped):
    """The failing read must still be able to close its map: a view of it
    kept alive by the in-flight exception would turn the typed error into
    ``BufferError: cannot close exported pointers exist``."""
    path, offsets = mapped
    damaged = bytearray(path.read_bytes())
    damaged[offsets[0]] = 0xFF  # dictionary has 9 entries, width is 1
    path.write_bytes(bytes(damaged))
    before = mmap_opens()
    with pytest.raises(SegmentCorrupted, match="holds code 255"):
        read_column_v2(path, offsets[0])
    with pytest.raises(SegmentCorrupted, match="holds code 255"):
        read_columns_v2(path, 3)
    assert mmap_opens() == before + 2
    # The other columns of the same file are intact and still readable.
    assert read_column_v2(path, offsets[1]) == tuple(row[1] for row in ROWS)
