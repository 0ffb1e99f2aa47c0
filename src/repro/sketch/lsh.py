"""Banded locality-sensitive hashing over MinHash signatures.

Standard b-bands-of-r-rows LSH: a pair whose Jaccard is ``s`` collides in at
least one band with probability ``1 - (1 - s^r)^b``.  The Ensemble layer
(:mod:`repro.sketch.ensemble`) picks ``(b, r)`` per query; this module
provides the bucket structure and the false-positive/negative optimizer.
"""

from __future__ import annotations

import numpy as np

__all__ = ["collision_probability", "optimal_param", "BandedLSHIndex"]


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """The distinct members of a 1-D array, ascending: numpy's ``unique``
    without its import of ``numpy.ma``, which nothing else a serving
    process runs needs."""
    ordered = np.sort(values)
    keep = np.empty(len(ordered), dtype=bool)
    keep[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def collision_probability(similarity: float, b: int, r: int) -> float:
    """P[at least one band collides] for a pair with Jaccard *similarity*."""
    return 1.0 - (1.0 - similarity**r) ** b


def _false_positive_area(threshold: float, b: int, r: int, steps: int = 64) -> float:
    """∫₀ᵗ P(collide | s) ds -- mass of unwanted collisions below threshold."""
    if threshold <= 0.0:
        return 0.0
    xs = np.linspace(0.0, threshold, steps)
    ys = 1.0 - (1.0 - xs**r) ** b
    return float(np.trapezoid(ys, xs))


def _false_negative_area(threshold: float, b: int, r: int, steps: int = 64) -> float:
    """∫ₜ¹ P(miss | s) ds -- mass of wanted pairs that never collide."""
    if threshold >= 1.0:
        return 0.0
    xs = np.linspace(threshold, 1.0, steps)
    ys = (1.0 - xs**r) ** b
    return float(np.trapezoid(ys, xs))


def optimal_param(
    threshold: float,
    num_perm: int,
    allowed_r: tuple[int, ...] | None = None,
    fp_weight: float = 0.5,
) -> tuple[int, int]:
    """The ``(b, r)`` pair minimizing weighted FP+FN area at *threshold*.

    Only ``b * r <= num_perm`` combinations are considered; *allowed_r*
    restricts the row counts to those the index has prebuilt.
    """
    threshold = min(max(threshold, 0.0), 1.0)
    candidates = allowed_r if allowed_r is not None else tuple(range(1, num_perm + 1))
    best: tuple[float, int, int] | None = None
    for r in candidates:
        b = num_perm // r
        if b == 0:
            continue
        error = fp_weight * _false_positive_area(threshold, b, r) + (
            1.0 - fp_weight
        ) * _false_negative_area(threshold, b, r)
        if best is None or error < best[0]:
            best = (error, b, r)
    if best is None:
        raise ValueError(f"no feasible (b, r) for num_perm={num_perm}")
    return best[1], best[2]


class BandedLSHIndex:
    """One banded index with fixed ``r`` over the rows of a signature
    matrix; bands can be probed prefix-wise.

    The same stored signatures serve any effective band count ``b' <= b``:
    probing only the first ``b'`` bands is exactly LSH with ``(b', r)``.
    That prefix trick is what lets LSH Ensemble tune parameters per query
    without rebuilding anything.

    A band key is the band's number followed by its ``r`` minima, viewed
    as one opaque ``4 * (r + 1)``-byte value.  Every ``(row, band)`` key
    of the matrix sits in one sorted array, so a probe is two binary
    searches for all of its bands at once, and equal keys -- compared
    byte for byte, never hashed -- are exactly the colliding rows.
    """

    def __init__(self, matrix: np.ndarray, r: int):
        num_perm = matrix.shape[1]
        if r <= 0 or r > num_perm:
            raise ValueError(f"invalid band width r={r} for num_perm={num_perm}")
        self.num_perm = num_perm
        self.r = r
        self.b = num_perm // r
        keys = self._band_keys(matrix).ravel()  # entry ``row * b + band``
        order = np.argsort(keys, kind="stable")
        self._keys = keys[order]
        self._rows = order // self.b

    def __len__(self) -> int:
        return len(self._rows) // self.b

    def _band_keys(self, matrix: np.ndarray) -> np.ndarray:
        """``(len(matrix), b)`` band keys of a ``(n, num_perm)`` matrix."""
        n = len(matrix)
        keyed = np.empty((n, self.b, self.r + 1), dtype=np.uint32)
        keyed[:, :, 0] = np.arange(self.b)
        keyed[:, :, 1:] = matrix[:, : self.b * self.r].reshape(n, self.b, self.r)
        return keyed.view(np.dtype((np.void, 4 * (self.r + 1)))).reshape(n, self.b)

    def query(self, values: np.ndarray, bands: int | None = None) -> np.ndarray:
        """Ascending row numbers colliding with the signature *values* in
        any of the first *bands* bands."""
        use = self.b if bands is None else min(bands, self.b)
        probe = self._band_keys(values[None, :])[0, :use]
        starts = np.searchsorted(self._keys, probe, side="left")
        stops = np.searchsorted(self._keys, probe, side="right")
        found = np.flatnonzero(stops > starts)
        if not len(found):
            return np.empty(0, dtype=np.intp)
        return sorted_unique(
            np.concatenate([self._rows[starts[band] : stops[band]] for band in found])
        )
