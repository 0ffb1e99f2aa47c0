"""Reference implementations the sketch tests compare against.

Kept out of ``src/`` on purpose: these are the previous dict-of-bytes
band index and the plain posting-list walk, with no reader or caller in
the library.  They pin two contracts:

* the array-backed :class:`repro.sketch.BandedLSHIndex` /
  :class:`repro.sketch.LSHEnsemble` return exactly what one hash bucket
  per band key returned;
* :meth:`repro.candidates.postings.PostingIndex.probe` counts exactly
  what one walk over the plain posting lists counts (this was
  ``PostingIndex._probe_py`` while the probe had a second path in
  ``src/``).
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping

from repro.sketch import LSHEnsemble, MinHashSignature, optimal_param
from repro.sketch.ensemble import EnsembleMatch


class DictBandedLSHIndex:
    """b bands of r rows, one ``{band bytes: [keys]}`` dict per band."""

    def __init__(self, num_perm: int, r: int):
        self.r = r
        self.b = num_perm // r
        self._buckets: list[dict[bytes, list[Hashable]]] = [{} for _ in range(self.b)]

    def _band_key(self, signature: MinHashSignature, band: int) -> bytes:
        start = band * self.r
        return signature.values[start : start + self.r].tobytes()

    def insert(self, key: Hashable, signature: MinHashSignature) -> None:
        for band in range(self.b):
            self._buckets[band].setdefault(self._band_key(signature, band), []).append(key)

    def query(self, signature: MinHashSignature, bands: int | None = None) -> set[Hashable]:
        use = self.b if bands is None else min(bands, self.b)
        result: set[Hashable] = set()
        for band in range(use):
            result.update(self._buckets[band].get(self._band_key(signature, band), ()))
        return result


class _DictPartition:
    def __init__(self, num_perm: int, allowed_r: tuple[int, ...], upper: int):
        self.upper = upper
        self.signatures: dict[Hashable, MinHashSignature] = {}
        self.indexes = {r: DictBandedLSHIndex(num_perm, r) for r in allowed_r}

    def insert(self, key: Hashable, signature: MinHashSignature) -> None:
        self.signatures[key] = signature
        for index in self.indexes.values():
            index.insert(key, signature)


class DictLSHEnsemble:
    """The bulk-index + query behaviour of the dict-based LSH Ensemble."""

    def __init__(
        self,
        num_perm: int = 128,
        allowed_r: tuple[int, ...] = (1, 2, 4, 8, 16, 32),
    ):
        self.num_perm = num_perm
        self._allowed_r = tuple(r for r in allowed_r if r <= num_perm)
        self._partitions: list[_DictPartition] = []

    def index_signatures(self, entries: Iterable[tuple[Hashable, MinHashSignature]]) -> None:
        buckets: dict[int, _DictPartition] = {}
        for key, signature in entries:
            if signature.size == 0:
                continue
            bucket = signature.size.bit_length() - 1
            if bucket not in buckets:
                buckets[bucket] = _DictPartition(
                    self.num_perm, self._allowed_r, upper=(1 << (bucket + 1)) - 1
                )
            buckets[bucket].insert(key, signature)
        self._partitions = [buckets[b] for b in sorted(buckets)]

    def query(self, query_sig: MinHashSignature, threshold: float) -> list[EnsembleMatch]:
        if query_sig.size == 0:
            return []
        matches = []
        for partition in self._partitions:
            jaccard_threshold = LSHEnsemble._containment_to_jaccard(
                threshold, query_sig.size, partition.upper
            )
            b, r = optimal_param(jaccard_threshold, self.num_perm, self._allowed_r)
            for key in partition.indexes[r].query(query_sig, bands=b):
                estimate = query_sig.containment_in(partition.signatures[key])
                if estimate >= threshold:
                    matches.append(EnsembleMatch(key=key, containment=estimate))
        matches.sort(key=lambda m: (-m.containment, str(m.key)))
        return matches


def reference_probe(
    postings: Mapping[str, list[int]], probe_tokens: Iterable[Hashable]
) -> dict[int, int]:
    """Column key -> number of probe tokens whose posting list holds it."""
    hits: dict[int, int] = {}
    for token in probe_tokens:
        for key in postings.get(str(token), ()):
            hits[key] = hits.get(key, 0) + 1
    return hits
