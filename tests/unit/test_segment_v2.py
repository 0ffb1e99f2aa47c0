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
    write_segment_v2(path, Table(["a", "b", "c"], ROWS, name="t"))
    return path


def mmap_opens():
    return metrics.counter("segment.open.mmap").value


def test_round_trip_through_mmap(mapped):
    before = mmap_opens()
    columns = read_columns_v2(mapped, 3)
    assert [repr(column) for column in columns] == [
        repr(column) for column in zip(*ROWS)
    ]
    assert columns[0][2] is PRODUCED and columns[2][1] is MISSING
    assert mmap_opens() == before + 1


def test_out_of_range_code_through_mmap_is_segment_corrupted(mapped):
    """The failing read must still be able to close its map: a view of it
    kept alive by the in-flight exception would turn the typed error into
    ``BufferError: cannot close exported pointers exist``."""
    pristine = mapped.read_bytes()
    damaged = bytearray(pristine)
    # Width is 1 (the dictionary has 9 entries), so each of the three
    # column blocks is len(ROWS) codes and one bitmap byte.
    damaged[len(pristine) - 3 * (len(ROWS) + 1)] = 0xFF
    mapped.write_bytes(bytes(damaged))
    before = mmap_opens()
    with pytest.raises(SegmentCorrupted, match="holds code 255"):
        read_columns_v2(mapped, 3)
    assert mmap_opens() == before + 1
    # The failed read left nothing behind that stops the next one.
    mapped.write_bytes(pristine)
    assert read_columns_v2(mapped, 3)[1] == tuple(row[1] for row in ROWS)
