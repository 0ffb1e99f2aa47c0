"""LSH Ensemble: containment search with domain partitioning (VLDB 2016).

The problem with plain MinHash LSH for joinability is that *containment*
(query ⊆ candidate) does not translate to a single Jaccard threshold: the
conversion depends on the candidate's size.  LSH Ensemble's fix, reproduced
here, is to

1. partition the indexed domains by cardinality,
2. within each partition use the partition's *upper* size bound to convert
   the containment threshold into a per-partition Jaccard threshold, and
3. tune the LSH ``(b, r)`` parameters per partition, per query, choosing
   among prebuilt band structures (the prefix-of-bands trick).

Candidates from all partitions are verified against their signatures and
ranked by estimated containment.

Partitions are deterministic geometric **size buckets**, not the paper's
equal-depth chunks: a set of cardinality ``s`` lands in bucket
``floor(log2(s))`` with the fixed upper bound ``2^(bucket+1) - 1``.
Bucket and bound are functions of the set's own cardinality alone, so the
band-hit decision for any key is independent of what else is indexed --
an ensemble over any subset of the entries returns exactly the global
matches restricted to that subset.  That is what makes sharded retrieval
byte-identical with the single-store pipeline, at a small tuning cost
(bounds are powers of two rather than observed maxima).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

import numpy as np

from .lsh import BandedLSHIndex, optimal_param, sorted_unique
from .minhash import MinHasher, MinHashSignature, containment_from_jaccard

__all__ = ["LSHEnsemble", "EnsembleMatch"]

_DEFAULT_ALLOWED_R = (1, 2, 4, 8, 16, 32)


@dataclass(frozen=True)
class EnsembleMatch:
    """One query result: the indexed key and its estimated containment."""

    key: Hashable
    containment: float


class _Partition:
    """One size bucket: its fixed *upper* cardinality bound, rows of the
    ensemble's signature matrix, and one banded index per ``r`` built the
    first time a query picks that ``r`` (a query's ``r`` follows from its
    size and threshold, so most of the allowed widths are never probed).
    """

    def __init__(self, upper: int):
        self.upper = upper
        self.rows = np.empty(0, dtype=np.intp)
        self._indexes: dict[int, BandedLSHIndex] = {}

    def add(self, rows: np.ndarray) -> None:
        self.rows = np.concatenate([self.rows, rows])
        self._indexes = {}

    def probe(self, matrix: np.ndarray, values: np.ndarray, b: int, r: int) -> np.ndarray:
        """Matrix rows of this partition colliding with *values* in any
        of the first *b* bands of width *r*."""
        index = self._indexes.get(r)
        if index is None:
            # Racing first probes build equal indexes; one assignment wins.
            index = self._indexes[r] = BandedLSHIndex(matrix[self.rows], r)
        return self.rows[index.query(values, bands=b)]


class LSHEnsemble:
    """Top-k containment search over indexed token sets.

    Usage::

        ensemble = LSHEnsemble(num_perm=128)
        ensemble.index([("lake.T3.City", city_tokens), ...])
        for match in ensemble.query(query_tokens, threshold=0.5, k=10):
            ...

    ``index`` (token sets), ``index_signatures`` and ``index_table``
    (precomputed sketches) may each be called any number of times; every
    entry lands in the size bucket of its own cardinality (see the module
    docstring), whatever else is or will be indexed.
    """

    def __init__(
        self,
        num_perm: int = 128,
        seed: int = 1,
        allowed_r: Sequence[int] | None = None,
    ):
        self.num_perm = num_perm
        self._hasher = MinHasher(num_perm=num_perm, seed=seed)
        self._allowed_r = tuple(
            r for r in (allowed_r or _DEFAULT_ALLOWED_R) if r <= num_perm
        )
        if not self._allowed_r:
            raise ValueError("allowed_r has no entry <= num_perm")
        # Row i of ``_matrix`` is the signature of ``_keys[i]``, a set of
        # ``_sizes[i]`` tokens.
        self._keys: list[Hashable] = []
        self._sizes = np.empty(0, dtype=np.int64)
        self._matrix = np.empty((0, num_perm), dtype=np.uint32)
        # Bucket index -> partition, created on demand.
        self._buckets: dict[int, _Partition] = {}

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._keys)

    @property
    def num_bands(self) -> int:
        """How many bands a query can choose among: every partition
        offers ``num_perm // r`` of them per allowed ``r``."""
        return len(self._buckets) * sum(self.num_perm // r for r in self._allowed_r)

    @property
    def hasher(self) -> MinHasher:
        """The ensemble's MinHasher -- callers holding a signature cache
        (e.g. :class:`~repro.table.stats.ColumnStats`) key sketches by its
        ``(num_perm, seed)`` so one signature serves every consumer."""
        return self._hasher

    def index(self, entries: Iterable[tuple[Hashable, Iterable[Hashable]]]) -> None:
        """Bulk-index ``(key, token set)`` pairs."""
        self.index_signatures(
            (key, self._hasher.signature(tokens)) for key, tokens in entries
        )

    def index_signatures(
        self, entries: Iterable[tuple[Hashable, MinHashSignature]]
    ) -> None:
        """Bulk-index precomputed ``(key, signature)`` pairs (signatures must
        come from a hasher matching :attr:`hasher`)."""
        signed = [(key, sig) for key, sig in entries if sig.size > 0]
        if signed:
            self.index_table(
                [key for key, _ in signed],
                np.array([sig.size for _, sig in signed], dtype=np.int64),
                np.stack([sig.values for _, sig in signed]),
            )

    def index_table(
        self, keys: Sequence[Hashable], sizes: np.ndarray, matrix: np.ndarray
    ) -> None:
        """Bulk-index non-empty sets given as parallel arrays: *keys*,
        their set *sizes* and one signature per row of *matrix*."""
        if not len(keys):
            return
        sizes = np.asarray(sizes, dtype=np.int64)
        rows = self._append(keys, sizes, np.asarray(matrix, dtype=np.uint32))
        # frexp's exponent of a positive integer is its bit length.
        buckets = np.frexp(sizes.astype(np.float64))[1] - 1
        for bucket in sorted_unique(buckets):
            self._bucket_for(int(bucket)).add(rows[buckets == bucket])

    def _append(
        self, keys: Sequence[Hashable], sizes: np.ndarray, matrix: np.ndarray
    ) -> np.ndarray:
        """Add signature rows; returns their row numbers."""
        rows = np.arange(len(self._keys), len(self._keys) + len(keys))
        self._keys.extend(keys)
        self._sizes = np.concatenate([self._sizes, sizes])
        self._matrix = np.concatenate([self._matrix, matrix])
        return rows

    def _bucket_for(self, bucket: int) -> _Partition:
        """The geometric bucket *bucket*, created on first use: it covers
        sizes in ``[2^bucket, 2^(bucket+1) - 1]`` with that fixed upper
        bound."""
        partition = self._buckets.get(bucket)
        if partition is None:
            partition = _Partition(upper=(1 << (bucket + 1)) - 1)
            self._buckets[bucket] = partition
        return partition

    # ------------------------------------------------------------------
    def query(
        self,
        tokens: Iterable[Hashable] | MinHashSignature,
        threshold: float = 0.5,
        k: int | None = None,
    ) -> list[EnsembleMatch]:
        """Indexed sets whose estimated containment of the query is >=
        *threshold*, best first, optionally truncated to *k*.

        *tokens* may be a raw token set or an already-computed
        :class:`MinHashSignature` (from a matching hasher), so cached query
        sketches are probed without re-hashing."""
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must be in [0, 1]")
        query_sig = (
            tokens
            if isinstance(tokens, MinHashSignature)
            else self._hasher.signature(tokens)
        )
        if query_sig.size == 0:
            return []
        keys, sizes, matrix = self._keys, self._sizes, self._matrix
        matches = []
        for _, partition in sorted(self._buckets.items()):
            jaccard_threshold = self._containment_to_jaccard(
                threshold, query_sig.size, partition.upper
            )
            b, r = optimal_param(jaccard_threshold, self.num_perm, self._allowed_r)
            rows = partition.probe(matrix, query_sig.values, b, r)
            # Cardinality gate: containment_from_jaccard is increasing in
            # the Jaccard estimate, so its value at j = 1 -- (|Q| + |C|) /
            # 2|Q| -- bounds every possible estimate for this candidate.
            # A candidate whose (sketched) cardinality puts that bound
            # below the threshold can never verify; skip the signature
            # comparison entirely.  Pure pruning: never changes results.
            upper = (query_sig.size + sizes[rows]) / (2.0 * query_sig.size)
            rows = rows[upper >= threshold]
            if not len(rows):
                continue
            jaccards = (matrix[rows] == query_sig.values).mean(axis=1)
            for row, size, jaccard in zip(
                rows.tolist(), sizes[rows].tolist(), jaccards.tolist()
            ):
                estimate = containment_from_jaccard(jaccard, query_sig.size, size)
                if estimate >= threshold:
                    matches.append(EnsembleMatch(key=keys[row], containment=estimate))
        matches.sort(key=lambda m: (-m.containment, str(m.key)))
        if k is not None:
            matches = matches[:k]
        return matches

    @staticmethod
    def _containment_to_jaccard(threshold: float, query_size: int, upper: int) -> float:
        """Per-partition conversion using the partition's max cardinality.

        For candidate size ``u``: ``j = t·|Q| / (|Q| + u − t·|Q|)``.  Using
        the partition upper bound makes the converted threshold a *lower*
        bound over the partition, so recall is preserved (the Ensemble
        paper's central inequality).
        """
        denominator = query_size + upper - threshold * query_size
        if denominator <= 0:
            return 1.0
        return max(0.0, min(1.0, threshold * query_size / denominator))
