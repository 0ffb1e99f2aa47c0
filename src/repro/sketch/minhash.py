"""MinHash signatures over token sets.

The estimator behind joinable-table discovery: a fixed number of universal
hash permutations, each contributing the minimum hash of the set.  Equality
fraction between two signatures is an unbiased estimate of Jaccard, and --
following LSH Ensemble (Zhu et al., VLDB 2016) -- Jaccard plus the two set
sizes converts to a *containment* estimate, the measure that actually ranks
joinability.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from typing import Hashable, Iterable, Iterator

import numpy as np

from ..embeddings.hashing import stable_hash

__all__ = [
    "MinHasher",
    "MinHashSignature",
    "containment_from_jaccard",
    "DEFAULT_NUM_PERM",
    "DEFAULT_SEED",
]

#: The library-wide default MinHash parameters.  Signatures are only
#: comparable under identical ``(num_perm, seed)``, so anything that
#: persists sketches (:mod:`repro.store`) records these in its manifest and
#: refuses to mix snapshots built under different parameters.
DEFAULT_NUM_PERM = 128
DEFAULT_SEED = 1

# The Mersenne prime 2**31 - 1.  Tokens are reduced modulo p and the
# multipliers drawn from [1, p), so products reach ~2**62 (safely inside
# uint64) while wrapping around p billions of times -- which is what makes
# (a*x + b) mod p behave like a random permutation.  A 2**31 hash range is
# ample for column domains (collisions only bias Jaccard at ~1e5+ tokens).
_MERSENNE_PRIME = np.uint64((1 << 31) - 1)
_MAX_HASH = np.uint64((1 << 31) - 2)

# ---------------------------------------------------------------------------
# The permutation coefficients.  They are the exact stream numpy 2.x draws
# for ``default_rng(seed).integers(1, p, num_perm)`` then
# ``.integers(0, p, num_perm)``: SeedSequence entropy mixing seeds a PCG64
# (128-bit LCG, XSL-RR output), whose 64-bit outputs are split into 32-bit
# halves (low first) and bounded by Lemire's rejection method.  Drawing them
# here keeps ``numpy.random`` out of every process that only hashes, and
# pins the family: NumPy does not promise a stable stream across versions,
# and a persisted signature must not move with it.
# ---------------------------------------------------------------------------
_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_sequence(seed: int) -> tuple[int, int]:
    """PCG64's 128-bit ``(initstate, initseq)`` from ``SeedSequence(seed)``:
    the seed's 32-bit words mixed into a four-word pool, which then yields
    four 64-bit words (``generate_state(4, np.uint64)``)."""
    entropy = [seed & _M32]
    while seed := seed >> 32:
        entropy.append(seed & _M32)
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for value in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(value))
    hash_const = _INIT_B
    words = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _M32
        value = value * hash_const & _M32
        words.append(value ^ value >> 16)
    # Little-endian pairs of 32-bit words make the four uint64 words; the
    # first two are the state, the last two the stream selector.
    w = [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]
    return w[0] << 64 | w[1], w[2] << 64 | w[3]


def _pcg64_uint32s(seed: int) -> Iterator[int]:
    """numpy's ``PCG64(SeedSequence(seed))`` as its ``next_uint32``
    stream: each 64-bit XSL-RR output, low half first."""
    initstate, initseq = _seed_sequence(seed)
    inc = (initseq << 1 | 1) & _M128
    state = ((inc + initstate) * _PCG64_MULT + inc) & _M128
    while True:
        state = (state * _PCG64_MULT + inc) & _M128
        value = (state >> 64 ^ state) & _M64
        rot = state >> 122
        value = (value >> rot | value << (64 - rot)) & _M64
        yield value & _M32
        yield value >> 32


def _bounded(stream: Iterator[int], low: int, high: int, count: int) -> list[int]:
    """*count* draws from ``[low, high)`` by Lemire's rejection, as
    ``Generator.integers`` draws them when ``2 <= high - low < 2**32``."""
    span = high - low
    threshold = (1 << 32) % span
    out = []
    for _ in range(count):
        product = next(stream) * span
        while product & _M32 < threshold:
            product = next(stream) * span
        out.append(low + (product >> 32))
    return out


@lru_cache(maxsize=16)
def _coefficients(num_perm: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only multipliers and offsets of the ``(num_perm, seed)``
    family, shared by every hasher of that family in the process."""
    stream = _pcg64_uint32s(seed)
    prime = int(_MERSENNE_PRIME)
    a = np.array(_bounded(stream, 1, prime, num_perm), dtype=np.uint64)
    b = np.array(_bounded(stream, 0, prime, num_perm), dtype=np.uint64)
    a.flags.writeable = b.flags.writeable = False
    return a, b


class MinHashSignature:
    """A signature plus the exact cardinality of the hashed set."""

    __slots__ = ("values", "size")

    def __init__(self, values: np.ndarray, size: int):
        self.values = values
        self.size = size

    def jaccard(self, other: "MinHashSignature") -> float:
        """Estimated Jaccard similarity with *other* (same hasher required)."""
        if len(self.values) != len(other.values):
            raise ValueError("signatures come from different MinHashers")
        if len(self.values) == 0:
            return 1.0
        return float(np.mean(self.values == other.values))

    def containment_in(self, other: "MinHashSignature") -> float:
        """Estimated containment of *this* set in *other*'s set."""
        return containment_from_jaccard(self.jaccard(other), self.size, other.size)

    def merge(self, other: "MinHashSignature") -> "MinHashSignature":
        """The signature of the *union* of the two underlying sets.

        Elementwise minimum -- exactly the signature the hasher would have
        produced for the union, so the operation is deterministic,
        commutative and associative across processes (both inputs must come
        from the same hasher).  The union cardinality is estimated from the
        pairwise Jaccard via inclusion-exclusion and rounded, which keeps
        the result reproducible bit-for-bit regardless of merge order.
        """
        if len(self.values) != len(other.values):
            raise ValueError("cannot merge signatures from different MinHashers")
        jaccard = self.jaccard(other)
        union_size = int(round((self.size + other.size) / (1.0 + jaccard)))
        return MinHashSignature(np.minimum(self.values, other.values), union_size)

    # ------------------------------------------------------------------
    # Serialization (the persistent lake store's sketch snapshot format)
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """A compact, endianness-fixed encoding: ``num_perm``, exact set
        size, then the permutation minima as little-endian uint32 (every
        minimum is a residue modulo 2**31 - 1, so four bytes hold it)."""
        values = np.ascontiguousarray(self.values, dtype="<u4")
        return struct.pack("<IQ", len(values), self.size) + values.tobytes()

    @classmethod
    def from_bytes(cls, payload: bytes) -> "MinHashSignature":
        """Inverse of :meth:`to_bytes` (byte-identical round trip).  A body
        of any width but ``4 * num_perm`` bytes, and minima no hasher can
        produce -- above ``2**31 - 2``, or an empty set's other than that
        sentinel -- raise :class:`ValueError`."""
        header = struct.calcsize("<IQ")
        if len(payload) < header:
            raise ValueError("truncated MinHash signature payload")
        num_perm, size = struct.unpack_from("<IQ", payload)
        body = payload[header:]
        if len(body) != num_perm * 4:
            raise ValueError(
                f"MinHash payload declares {num_perm} permutations but carries "
                f"{len(body)} value bytes"
            )
        values = np.frombuffer(body, dtype="<u4")
        if num_perm and values.max() > _MAX_HASH:
            raise ValueError(f"MinHash minimum {values.max()} exceeds {_MAX_HASH}")
        if size == 0 and not (values == _MAX_HASH).all():
            raise ValueError("an empty-set MinHash carries minima other than its sentinel")
        return cls(values.astype(np.uint32), size)


def containment_from_jaccard(jaccard: float, query_size: int, candidate_size: int) -> float:
    """Convert a Jaccard estimate to containment given exact set sizes.

    Derivation: with ``j = |A∩B| / |A∪B|``, ``|A∩B| = j (|A|+|B|) / (1+j)``,
    and containment of A in B is ``|A∩B| / |A|``.  Clamped to [0, 1] because
    the Jaccard input is itself an estimate.
    """
    if query_size == 0:
        return 0.0
    intersection = jaccard * (query_size + candidate_size) / (1.0 + jaccard)
    return max(0.0, min(1.0, intersection / query_size))


class MinHasher:
    """A family of ``num_perm`` universal-hash permutations with fixed seed.

    Signatures are only comparable when produced by hashers constructed with
    the same ``num_perm`` and ``seed``.  The family is the one numpy's
    ``default_rng(seed)`` draws (see :func:`_coefficients`); hashers of one
    ``(num_perm, seed)`` share its coefficient arrays.
    """

    def __init__(self, num_perm: int = DEFAULT_NUM_PERM, seed: int = DEFAULT_SEED):
        if num_perm <= 0:
            raise ValueError("num_perm must be positive")
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise TypeError(f"seed must be an int, not {type(seed).__name__}")
        if seed < 0:
            raise ValueError("seed must be non-negative")
        self.num_perm = num_perm
        self.seed = seed
        self._a, self._b = _coefficients(num_perm, seed)

    def signature(self, tokens: Iterable[Hashable]) -> MinHashSignature:
        """MinHash signature of a token set (duplicates collapse)."""
        token_set = {str(t) for t in tokens}
        if not token_set:
            return MinHashSignature(
                np.full(self.num_perm, _MAX_HASH, dtype=np.uint32), 0
            )
        raw = np.fromiter(
            (stable_hash(t, salt="minhash") for t in token_set),
            dtype=np.uint64,
            count=len(token_set),
        )
        raw %= _MERSENNE_PRIME
        hashed = (raw[:, None] * self._a[None, :] + self._b[None, :]) % _MERSENNE_PRIME
        return MinHashSignature(hashed.min(axis=0).astype(np.uint32), len(token_set))
