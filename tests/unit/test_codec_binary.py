"""Binary cell codec fidelity audit (ISSUE 6 satellite).

The v2 segment dictionary rides on :func:`encode_cells_binary` /
:func:`decode_cells_binary`, a per-cell decode loop.  Every test runs it
on small and on padded (>= 512-cell) inputs alike, and it must reproduce
every cell **bit-for-bit**: NaN keeps its payload, ``-0.0`` keeps its
sign, ints beyond 2**53 don't round through a double, ``True`` never
collapses into ``1``, and the two null kinds come back as the same
singletons.
Corruption must raise :class:`BinaryCodecError`, never decode into
plausible garbage and never leak another exception type.
"""

from __future__ import annotations

import math
import struct

import pytest

from repro.store import segment
from repro.store.codec import (
    BinaryCodecError,
    decode_cells_binary,
    encode_cells_binary,
)
from repro.store.segment import SegmentCorrupted, read_columns_v2, write_segment_v2
from repro.table import MISSING, PRODUCED, Table

DECODERS = {"loop": decode_cells_binary}

#: The size the padded inputs reach: a dictionary this large is bigger
#: than any e2e or benchmark table produces.
PADDED_CELLS = 512


@pytest.fixture(params=list(DECODERS))
def backend(request):
    """The one decoder, under the ``[loop]`` id these tests have carried."""
    return DECODERS[request.param]


def pad_to_vector_width(cells):
    """Filler up to ``PADDED_CELLS``, so the loop is checked on large
    dictionaries as well as small ones."""
    filler = ["pad"] * max(0, PADDED_CELLS - len(cells))
    return list(cells) + filler


def roundtrip(decode, cells):
    return decode(encode_cells_binary(cells), len(cells))


def bits(cell):
    """Equality key under which NaN == NaN and -0.0 != 0.0."""
    if type(cell) is float:
        return ("float", struct.pack("<d", cell))
    return (type(cell).__name__, cell)


FLOATS = [
    float("nan"),
    float("inf"),
    float("-inf"),
    -0.0,
    0.0,
    5e-324,  # smallest subnormal
    1.7976931348623157e308,  # largest finite
    0.1,
    -1.5,
]

INTS = [
    0,
    1,
    -1,
    2**53,
    2**53 + 1,  # not representable as a double
    -(2**53) - 1,
    2**80,
    -(2**80),
    2**400,
]

STRINGS = ["", "plain", "héllo", "日本語", "a" * 1000, "mixed-ascii-日本"]

EVERYTHING = (
    FLOATS + INTS + STRINGS + [True, False, MISSING, PRODUCED]
)


class TestFidelity:
    def test_floats_bit_identical(self, backend):
        for padded in (FLOATS, pad_to_vector_width(FLOATS)):
            decoded = roundtrip(backend, padded)
            for cell, back in zip(padded, decoded):
                assert bits(back) == bits(cell)

    def test_nan_payload_and_negative_zero(self, backend):
        decoded = roundtrip(backend, pad_to_vector_width([float("nan"), -0.0]))
        assert math.isnan(decoded[0])
        assert struct.pack("<d", decoded[1]) == struct.pack("<d", -0.0)
        assert math.copysign(1.0, decoded[1]) == -1.0

    def test_large_ints_exact(self, backend):
        for padded in (INTS, pad_to_vector_width(INTS)):
            decoded = roundtrip(backend, padded)
            for cell, back in zip(INTS, decoded):
                assert type(back) is int and back == cell

    def test_bools_stay_bools(self, backend):
        decoded = roundtrip(backend, pad_to_vector_width([True, False, 1, 0]))
        assert decoded[0] is True
        assert decoded[1] is False
        assert type(decoded[2]) is int and decoded[2] == 1
        assert type(decoded[3]) is int and decoded[3] == 0

    def test_null_singletons(self, backend):
        decoded = roundtrip(backend, pad_to_vector_width([MISSING, PRODUCED]))
        assert decoded[0] is MISSING
        assert decoded[1] is PRODUCED

    def test_strings_including_non_ascii(self, backend):
        for padded in (STRINGS, pad_to_vector_width(STRINGS)):
            assert roundtrip(backend, padded)[: len(STRINGS)] == STRINGS

    def test_everything_mixed(self, backend):
        for cells in (EVERYTHING, pad_to_vector_width(EVERYTHING)):
            decoded = roundtrip(backend, cells)
            assert [bits(c) for c in decoded] == [bits(c) for c in cells]

    def test_empty(self, backend):
        assert roundtrip(backend, []) == []


#: Two strings whose payloads are 2 and 1 bytes: swapping their declared
#: lengths keeps the total but splits the two-byte character.
NON_ASCII = ["é", "a", 7, 1.5, True, MISSING]


def swap_first_two_lengths(buffer, count):
    damaged = bytearray(buffer)
    lengths = slice(count, count + 8)
    assert bytes(damaged[lengths]) == struct.pack("<II", 2, 1)
    damaged[lengths] = struct.pack("<II", 1, 2)
    return bytes(damaged)


class TestCorruption:
    def corpus(self):
        """ASCII and non-ASCII, small and padded."""
        ascii_only = ["abcd", 7, 1.5, True, MISSING]
        return [
            ascii_only,
            pad_to_vector_width(ascii_only),
            NON_ASCII,
            pad_to_vector_width(NON_ASCII),
        ]

    def test_truncated(self, backend):
        for cells in self.corpus():
            buffer = encode_cells_binary(cells)
            for cut in (len(buffer) - 1, len(cells) * 5 - 1, 0):
                if cut < 0 or cut >= len(buffer):
                    continue
                with pytest.raises(BinaryCodecError):
                    backend(buffer[:cut], len(cells))

    def test_trailing_garbage(self, backend):
        for cells in self.corpus():
            buffer = encode_cells_binary(cells)
            with pytest.raises(BinaryCodecError, match="trailing"):
                backend(buffer + b"\x00", len(cells))

    def test_unknown_tag(self, backend):
        for cells in self.corpus():
            buffer = bytearray(encode_cells_binary(cells))
            buffer[0] = 0x7F
            with pytest.raises(BinaryCodecError, match="unknown binary cell tag"):
                backend(bytes(buffer), len(cells))

    def test_fixed_tag_length_mismatch(self, backend):
        for cells in self.corpus():
            position = cells.index(1.5)
            buffer = bytearray(encode_cells_binary(cells))
            # The float's u32 length field lives at count + 4 * position.
            offset = len(cells) + 4 * position
            buffer[offset : offset + 4] = struct.pack("<I", 7)
            with pytest.raises(BinaryCodecError, match="declares payload length"):
                backend(bytes(buffer), len(cells))

    def test_invalid_utf8(self, backend):
        for cells in self.corpus():
            buffer = bytearray(encode_cells_binary(cells))
            # String payloads start right after the tag + length blocks.
            buffer[len(cells) * 5] = 0xFF
            with pytest.raises(BinaryCodecError, match="UTF-8"):
                backend(bytes(buffer), len(cells))

    def test_length_boundary_inside_a_character(self, backend):
        """The region as a whole is still valid UTF-8 and the total is
        unchanged; only the per-entry slices are not."""
        for cells in (NON_ASCII, pad_to_vector_width(NON_ASCII)):
            damaged = swap_first_two_lengths(encode_cells_binary(cells), len(cells))
            with pytest.raises(BinaryCodecError, match="UTF-8"):
                backend(damaged, len(cells))

    def test_split_character_in_a_v2_dictionary_is_segment_corrupted(self, tmp_path):
        """Through a segment whose dictionary has padded size."""
        values = ["é", "a"] + [f"ü{i}" for i in range(PADDED_CELLS)]
        path = tmp_path / "t.seg.bin"
        write_segment_v2(path, Table(["c"], [(value,) for value in values], name="t"))
        assert read_columns_v2(path, 1) == [tuple(values)]
        pristine = path.read_bytes()
        header = segment._V2_HEADER.size
        path.write_bytes(
            pristine[:header]
            + swap_first_two_lengths(pristine[header:], len(values))
        )
        with pytest.raises(SegmentCorrupted, match="UTF-8"):
            read_columns_v2(path, 1)
