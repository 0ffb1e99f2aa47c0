"""Probabilistic sketches: MinHash, banded LSH, LSH Ensemble.

These back the joinable-table discoverer
(:class:`repro.discovery.lshensemble.LSHEnsembleJoinSearch`).
"""

from .ensemble import EnsembleMatch, LSHEnsemble
from .lsh import BandedLSHIndex, collision_probability, optimal_param
from .minhash import (
    DEFAULT_NUM_PERM,
    DEFAULT_SEED,
    MinHasher,
    MinHashSignature,
    containment_from_jaccard,
)

__all__ = [
    "MinHasher",
    "MinHashSignature",
    "containment_from_jaccard",
    "DEFAULT_NUM_PERM",
    "DEFAULT_SEED",
    "BandedLSHIndex",
    "collision_probability",
    "optimal_param",
    "LSHEnsemble",
    "EnsembleMatch",
]
