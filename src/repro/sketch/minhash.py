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
from typing import Hashable, Iterable

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
    the same ``num_perm`` and ``seed``.
    """

    def __init__(self, num_perm: int = DEFAULT_NUM_PERM, seed: int = DEFAULT_SEED):
        if num_perm <= 0:
            raise ValueError("num_perm must be positive")
        self.num_perm = num_perm
        self.seed = seed
        rng = np.random.default_rng(seed)
        self._a = rng.integers(1, int(_MERSENNE_PRIME), size=num_perm, dtype=np.uint64)
        self._b = rng.integers(0, int(_MERSENNE_PRIME), size=num_perm, dtype=np.uint64)

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
