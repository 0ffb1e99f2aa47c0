"""HyperLogLog cardinality estimation.

Lake-scale discovery wants cheap per-column distinct counts: LSH Ensemble
partitions domains by cardinality, JOSIE's cost model consumes set sizes,
and the lake profiler reports them.  At in-memory scale exact counts are
easy; HyperLogLog is here for the same reason the other sketches are -- it
is the substrate a lake-scale deployment would use, built and tested.

Standard Flajolet et al. construction: ``m = 2**p`` registers, each keeping
the maximum leading-zero count of the hashed values routed to it; harmonic
mean with the usual small-range (linear counting) and bias corrections.
"""

from __future__ import annotations

import math
import struct
from typing import Hashable, Iterable

import numpy as np

from ..embeddings.hashing import stable_hash

__all__ = ["HyperLogLog"]


#: High bit of the payload's precision byte: the registers follow as a
#: sparse (index, rank) list instead of the dense array.
_SPARSE = 0x80


def _sparse_index_dtype(precision: int) -> np.dtype:
    return np.dtype("<u2" if precision <= 16 else "<u4")


def _alpha(m: int) -> float:
    if m == 16:
        return 0.673
    if m == 32:
        return 0.697
    if m == 64:
        return 0.709
    return 0.7213 / (1.0 + 1.079 / m)


class HyperLogLog:
    """A HyperLogLog counter with ``2**precision`` byte registers.

    Typical relative error is ``1.04 / sqrt(2**precision)`` (~1.6% at the
    default precision 12).  Counters with equal precision can be merged
    (register-wise max), which is what makes the sketch lake-friendly:
    per-column counters union into per-table or per-lake counters for free.
    """

    __slots__ = ("precision", "_registers")

    def __init__(self, precision: int = 12):
        if not 4 <= precision <= 18:
            raise ValueError("precision must be in [4, 18]")
        self.precision = precision
        self._registers = np.zeros(1 << precision, dtype=np.uint8)

    # ------------------------------------------------------------------
    def add(self, item: Hashable) -> None:
        """Add one item (stringified and stably hashed)."""
        hashed = stable_hash(str(item), salt="hll")
        index = hashed >> (64 - self.precision)
        remainder = hashed << self.precision & ((1 << 64) - 1)
        # Leading zeros of the remaining 64-p bits, plus one.
        rank = 1
        bit = 1 << 63
        while rank <= 64 - self.precision and not remainder & bit:
            rank += 1
            remainder <<= 1
            remainder &= (1 << 64) - 1
        if rank > self._registers[index]:
            self._registers[index] = rank

    def update(self, items: Iterable[Hashable]) -> "HyperLogLog":
        """Add many items; returns self."""
        for item in items:
            self.add(item)
        return self

    # ------------------------------------------------------------------
    def cardinality(self) -> float:
        """The current distinct-count estimate."""
        m = float(len(self._registers))
        registers = self._registers.astype(np.float64)
        estimate = _alpha(int(m)) * m * m / np.sum(np.exp2(-registers))
        if estimate <= 2.5 * m:
            zeros = int(np.count_nonzero(self._registers == 0))
            if zeros:
                return m * math.log(m / zeros)  # linear counting
        return float(estimate)

    def __len__(self) -> int:
        return round(self.cardinality())

    @property
    def relative_error(self) -> float:
        """The sketch's expected standard error."""
        return 1.04 / math.sqrt(len(self._registers))

    # ------------------------------------------------------------------
    # Serialization (the persistent lake store's sketch snapshot format)
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Precision byte, then whichever of two register encodings is
        shorter.  *Dense*: the raw register array.  *Sparse* (precision
        byte with the high bit set): the indices of the non-zero registers
        in ascending order (little-endian uint16, uint32 above precision
        16), then their ranks (one byte each).  The choice and both
        encodings are pure functions of the registers, so equal-content
        columns always serialize to byte-identical payloads regardless of
        insertion order."""
        occupied = np.flatnonzero(self._registers)
        index_dtype = _sparse_index_dtype(self.precision)
        if len(occupied) * (index_dtype.itemsize + 1) >= len(self._registers):
            return struct.pack("<B", self.precision) + self._registers.tobytes()
        return (
            struct.pack("<B", self.precision | _SPARSE)
            + occupied.astype(index_dtype).tobytes()
            + self._registers[occupied].tobytes()
        )

    @classmethod
    def from_bytes(cls, payload: bytes) -> "HyperLogLog":
        """Inverse of :meth:`to_bytes` (byte-identical round trip).  A rank
        :meth:`add` cannot produce (above ``65 - precision``) is rejected
        in either encoding."""
        if not payload:
            raise ValueError("empty HyperLogLog payload")
        sketch = cls(payload[0] & ~_SPARSE)  # rejects precisions outside [4, 18]
        body = memoryview(payload)[1:]
        max_rank = 65 - sketch.precision
        if not payload[0] & _SPARSE:
            if len(body) != len(sketch._registers):
                raise ValueError(
                    f"HyperLogLog payload declares precision {sketch.precision} "
                    f"but carries {len(body)} registers"
                )
            sketch._registers = np.frombuffer(body, dtype=np.uint8).copy()
            if sketch._registers.max() > max_rank:
                raise ValueError(
                    f"HyperLogLog payload holds a rank above {max_rank}, the "
                    f"largest precision {sketch.precision} can produce"
                )
            return sketch
        index_dtype = _sparse_index_dtype(sketch.precision)
        count, rest = divmod(len(body), index_dtype.itemsize + 1)
        if rest:
            raise ValueError(
                f"sparse HyperLogLog payload of {len(body)} bytes is not a "
                f"whole number of (index, rank) entries"
            )
        indices = np.frombuffer(body, dtype=index_dtype, count=count)
        ranks = np.frombuffer(body, dtype=np.uint8, offset=count * index_dtype.itemsize)
        if count and (
            indices[-1] >= len(sketch._registers)
            or np.any(indices[1:] <= indices[:-1])
            or not ranks.all()
            or ranks.max() > max_rank
        ):
            raise ValueError(
                "sparse HyperLogLog payload must list distinct in-range "
                f"indices in ascending order with ranks in [1, {max_rank}]"
            )
        sketch._registers[indices] = ranks
        return sketch

    # ------------------------------------------------------------------
    def merge(self, other: "HyperLogLog") -> "HyperLogLog":
        """Union with *other* (same precision required); returns a new sketch."""
        if other.precision != self.precision:
            raise ValueError(
                f"cannot merge precisions {self.precision} and {other.precision}"
            )
        merged = HyperLogLog(self.precision)
        np.maximum(self._registers, other._registers, out=merged._registers)
        return merged
