"""Pairwise feature generation for entity resolution.

For each candidate pair and each shared attribute we compute a similarity
in [0, 1], or ``None`` when either side is null (nulls carry no evidence --
exactly the property that makes ER fail on outer-join fragments in the
paper's Figure 8(c)).

String attributes use :func:`repro.text.distance.name_similarity` boosted by
a **gazetteer**: if both surface forms are registered aliases of one entity
("USA" / "United States", "J&J" / "JnJ"), the similarity is 1.0.  The
default gazetteer comes from the seed alias groups; pass your own or ``None``
to disable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from ..table.values import Cell, is_null
from ..text.distance import name_similarity
from ..text.normalize import to_float
from ..text.tokenize import normalize_token
from .records import Record, attributes_of

__all__ = ["Gazetteer", "PairFeatures", "FeatureGenerator", "default_gazetteer"]


class Gazetteer:
    """Alias lookup: surface form -> canonical entity key."""

    def __init__(self, alias_groups: Iterable[Sequence[str]] = ()):
        self._canonical: dict[str, str] = {}
        for group in alias_groups:
            group = list(group)
            if not group:
                continue
            canonical = normalize_token(group[0])
            for surface in group:
                self._canonical[normalize_token(surface)] = canonical

    def canonical(self, surface: str) -> str:
        """Canonical entity key of a surface form (itself when unknown)."""
        key = normalize_token(surface)
        return self._canonical.get(key, key)

    def same(self, a: str, b: str) -> bool:
        """Whether two surface forms are aliases of one entity."""
        return self.canonical(a) == self.canonical(b)

    def __len__(self) -> int:
        return len(self._canonical)


def default_gazetteer() -> Gazetteer:
    """The seed alias groups (countries, vaccines, agencies, ...)."""
    from ..datalake.seeds import ALIAS_GROUPS

    return Gazetteer(ALIAS_GROUPS)


@dataclass(frozen=True)
class PairFeatures:
    """Similarity vector for one candidate pair.

    ``similarities[attr]`` is None when the attribute was not comparable
    (null on either side or absent).
    """

    left_id: str
    right_id: str
    similarities: tuple[tuple[str, float | None], ...]

    def comparable(self) -> dict[str, float]:
        """Only the attributes where both records had a value."""
        return {name: value for name, value in self.similarities if value is not None}

    def mean(self) -> float:
        """Mean comparable similarity (0.0 when nothing is comparable)."""
        comparable = self.comparable()
        return sum(comparable.values()) / len(comparable) if comparable else 0.0


class FeatureGenerator:
    """Computes :class:`PairFeatures` over a chosen attribute set."""

    def __init__(
        self,
        attributes: Sequence[str] | None = None,
        gazetteer: Gazetteer | None = None,
        numeric_tolerance: float = 0.05,
    ):
        self.attributes = tuple(attributes) if attributes is not None else None
        self.gazetteer = gazetteer
        self.numeric_tolerance = numeric_tolerance

    def features(self, left: Record, right: Record) -> PairFeatures:
        """The similarity vector for one candidate pair."""
        attributes = self.attributes
        if attributes is None:
            attributes = tuple(attributes_of([left, right]))
        similarities = []
        for attribute in attributes:
            similarities.append(
                (attribute, self._attribute_similarity(left.get(attribute), right.get(attribute)))
            )
        return PairFeatures(
            left_id=left.record_id,
            right_id=right.record_id,
            similarities=tuple(similarities),
        )

    def feature_matrix(
        self, records: Mapping[str, Record], pairs: Iterable[tuple[str, str]]
    ) -> list[PairFeatures]:
        """Features for every candidate pair (ids must exist in *records*)."""
        return [self.features(records[a], records[b]) for a, b in pairs]

    # ------------------------------------------------------------------
    def _attribute_similarity(self, a: Cell | None, b: Cell | None) -> float | None:
        if a is None or b is None or is_null(a) or is_null(b):
            return None
        number_a, number_b = to_float(a), to_float(b)
        if number_a is not None and number_b is not None:
            return self._numeric_similarity(number_a, number_b)
        text_a, text_b = str(a), str(b)
        if self.gazetteer is not None and self.gazetteer.same(text_a, text_b):
            return 1.0
        return name_similarity(text_a, text_b)

    def _numeric_similarity(self, a: float, b: float) -> float:
        if a == b:
            return 1.0
        scale = max(abs(a), abs(b))
        if scale == 0.0:
            return 1.0
        relative_gap = abs(a - b) / scale
        if relative_gap <= self.numeric_tolerance:
            return 1.0 - relative_gap / self.numeric_tolerance * 0.5
        return max(0.0, 0.5 - relative_gap)
