"""Knowledge base: the semantic backbone of SANTOS-style union search.

SANTOS annotates columns with *semantic types* and column pairs with
*relationships* by looking values up in a knowledge base.  The original uses
YAGO plus a KB synthesized from the data lake itself; offline we reproduce
both channels:

* a **seed KB** built from :mod:`repro.datalake.seeds` -- a small curated
  ontology (places, vaccines, agencies, people, ...) with alias handling;
* a **synthesized KB** (:meth:`KnowledgeBase.synthesize_from_stats`) that
  clusters lake columns by domain overlap and mints one synthetic type per
  cluster, exactly the role SANTOS's data-driven KB plays when curated
  coverage runs out.

Lookups are case-insensitive on normalized surface forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from ..text.similarity import jaccard
from ..text.tokenize import normalize_token

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..datalake.stats import LakeStats

__all__ = ["Relation", "KnowledgeBase", "seed_knowledge_base"]


@dataclass(frozen=True)
class Relation:
    """A directed, labeled relationship between two semantic types."""

    subject_type: str
    object_type: str
    label: str


@dataclass
class _TypeInfo:
    parent: str | None = None
    children: set[str] = field(default_factory=set)


class KnowledgeBase:
    """Typed entities, a type hierarchy, aliases and typed relations."""

    def __init__(self) -> None:
        self._types: dict[str, _TypeInfo] = {}
        self._entity_types: dict[str, set[str]] = {}
        self._canonical: dict[str, str] = {}
        self._relations: dict[tuple[str, str], set[str]] = {}

    # ------------------------------------------------------------------
    # Types
    # ------------------------------------------------------------------
    def add_type(self, name: str, parent: str | None = None) -> None:
        """Register a type, optionally under *parent* (which must exist)."""
        if parent is not None and parent not in self._types:
            raise KeyError(f"parent type {parent!r} not registered")
        info = self._types.setdefault(name, _TypeInfo())
        if parent is not None:
            info.parent = parent
            self._types[parent].children.add(name)

    def ancestors(self, type_name: str) -> tuple[str, ...]:
        """Proper ancestors of a type, nearest first."""
        chain = []
        current = self._types.get(type_name)
        while current is not None and current.parent is not None:
            chain.append(current.parent)
            current = self._types.get(current.parent)
        return tuple(chain)

    # ------------------------------------------------------------------
    # Entities and aliases
    # ------------------------------------------------------------------
    def add_entity(self, surface: str, type_name: str, canonical: str | None = None) -> None:
        """Register *surface* as an entity of *type_name*.

        If *canonical* is given, the surface form is recorded as an alias of
        that canonical form (which shares the type).
        """
        if type_name not in self._types:
            self.add_type(type_name)
        key = normalize_token(surface)
        if not key:
            return
        self._entity_types.setdefault(key, set()).add(type_name)
        if canonical is not None:
            self._canonical[key] = normalize_token(canonical)
        else:
            self._canonical.setdefault(key, key)

    def add_alias_group(self, surfaces: Iterable[str], type_name: str | None = None) -> None:
        """Register several surface forms of one entity (first = canonical)."""
        surfaces = list(surfaces)
        if not surfaces:
            return
        canonical = surfaces[0]
        for surface in surfaces:
            if type_name is not None:
                self.add_entity(surface, type_name, canonical=canonical)
            else:
                key = normalize_token(surface)
                if key:
                    self._canonical[key] = normalize_token(canonical)

    def canonical_of(self, surface: str) -> str:
        """Canonical normalized form of *surface* (itself if unknown)."""
        key = normalize_token(surface)
        return self._canonical.get(key, key)

    def same_entity(self, a: str, b: str) -> bool:
        """Whether two surface forms are registered aliases of one entity."""
        return self.canonical_of(a) == self.canonical_of(b)

    def types_of(self, value: object, with_ancestors: bool = True) -> frozenset[str]:
        """Semantic types of a cell value (empty frozenset if unknown)."""
        if not isinstance(value, str):
            return frozenset()
        key = normalize_token(value)
        direct = self._entity_types.get(key)
        if direct is None:
            canonical = self._canonical.get(key)
            if canonical is not None:
                direct = self._entity_types.get(canonical)
        if direct is None:
            return frozenset()
        if not with_ancestors:
            return frozenset(direct)
        expanded: set[str] = set()
        for type_name in direct:
            expanded.add(type_name)
            expanded.update(self.ancestors(type_name))
        return frozenset(expanded)

    # ------------------------------------------------------------------
    # Relations
    # ------------------------------------------------------------------
    def add_relation(self, subject_type: str, object_type: str, label: str) -> None:
        """Record that *subject_type* relates to *object_type* via *label*."""
        for type_name in (subject_type, object_type):
            if type_name not in self._types:
                self.add_type(type_name)
        self._relations.setdefault((subject_type, object_type), set()).add(label)

    def relations_between(self, type_a: str, type_b: str) -> frozenset[str]:
        """Labels relating the two types, checked in both directions."""
        labels: set[str] = set()
        labels.update(self._relations.get((type_a, type_b), ()))
        labels.update(self._relations.get((type_b, type_a), ()))
        return frozenset(labels)

    @property
    def num_entities(self) -> int:
        return len(self._entity_types)

    # ------------------------------------------------------------------
    # Data-driven synthesis (SANTOS's synthesized KB)
    # ------------------------------------------------------------------
    def synthesize_from_stats(
        self,
        stats: "LakeStats",
        min_jaccard: float = 0.35,
        min_cluster: int = 2,
        max_values_per_type: int = 2000,
    ) -> int:
        """Mint synthetic types by clustering lake columns on domain overlap.

        Columns whose distinct string-value sets have Jaccard >= *min_jaccard*
        are merged (union-find); every cluster touching >= *min_cluster*
        columns becomes a type ``syn:<n>`` whose entities are the cluster's
        values.  Column pairs co-occurring in a table also mint a synthetic
        relation between their types.  Returns the number of types created.
        """
        # Sorted iteration makes the synthesized KB -- cluster membership,
        # syn:<n> numbering, relation labels -- a pure function of the
        # lake's *contents*, independent of its iteration order.  The
        # sharded build relies on this: one global KB synthesized over the
        # combined lake must be reproducible regardless of how the shard
        # views are stitched together.
        #
        # Domains are the column stats' ``text_values()`` (exactly the
        # normalized string-value set), so over a stored lake the hydrated
        # snapshots answer and no segment is decoded.
        schema: dict[str, tuple[str, ...]] = {}
        columns: list[tuple[str, str, frozenset[str]]] = []
        for table_name, table_stats in sorted(stats, key=lambda item: item[0]):
            schema[table_name] = table_stats.columns
            for column in table_stats.columns:
                domain = table_stats.column(column).text_values()
                if domain:
                    columns.append((table_name, column, domain))
        parent = list(range(len(columns)))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        def union(i: int, j: int) -> None:
            parent[find(i)] = find(j)

        # Only compare columns sharing at least one value (inverted index).
        by_value: dict[str, list[int]] = {}
        for i, (_, _, domain) in enumerate(columns):
            for value in domain:
                by_value.setdefault(value, []).append(i)
        compared: set[tuple[int, int]] = set()
        for owners in by_value.values():
            for a in range(len(owners)):
                for b in range(a + 1, len(owners)):
                    pair = (owners[a], owners[b])
                    if pair in compared:
                        continue
                    compared.add(pair)
                    if jaccard(columns[pair[0]][2], columns[pair[1]][2]) >= min_jaccard:
                        union(*pair)

        clusters: dict[int, list[int]] = {}
        for i in range(len(columns)):
            clusters.setdefault(find(i), []).append(i)

        type_of_column: dict[tuple[str, str], str] = {}
        created = 0
        for members in clusters.values():
            if len(members) < min_cluster:
                continue
            type_name = f"syn:{created}"
            self.add_type(type_name)
            created += 1
            values: set[str] = set()
            for index in members:
                table_name, column, domain = columns[index]
                type_of_column[(table_name, column)] = type_name
                values.update(domain)
            for value in sorted(values)[:max_values_per_type]:
                self.add_entity(value, type_name)

        # Synthetic relations: types whose columns co-occur in some table.
        for table_name, table_columns in schema.items():
            typed = [
                type_of_column.get((table_name, column))
                for column in table_columns
            ]
            present = [t for t in typed if t is not None]
            for i in range(len(present)):
                for j in range(i + 1, len(present)):
                    if present[i] != present[j]:
                        label = f"syn_rel:{min(present[i], present[j])}-{max(present[i], present[j])}"
                        self.add_relation(present[i], present[j], label)
        return created


def seed_knowledge_base() -> KnowledgeBase:
    """The curated offline ontology (the YAGO stand-in).

    Types: places (country, city, us_state), organizations (agency, company),
    vaccines, person names, and a few leisure domains; relations mirror the
    paper's running examples (city located_in country, vaccine approved_by
    agency, vaccine originates_from country).
    """
    from ..datalake import seeds

    kb = KnowledgeBase()
    kb.add_type("place")
    kb.add_type("country", parent="place")
    kb.add_type("city", parent="place")
    kb.add_type("us_state", parent="place")
    kb.add_type("organization")
    kb.add_type("agency", parent="organization")
    kb.add_type("company", parent="organization")
    kb.add_type("vaccine")
    kb.add_type("person_name")
    kb.add_type("first_name", parent="person_name")
    kb.add_type("last_name", parent="person_name")
    kb.add_type("sport")
    kb.add_type("cuisine")
    kb.add_type("school_subject")

    for canonical, aliases in seeds.COUNTRIES.items():
        kb.add_alias_group((canonical, *aliases), type_name="country")
    for city in seeds.CITIES:
        kb.add_entity(city, "city")
    for canonical, (aliases, _, _) in seeds.VACCINES.items():
        kb.add_alias_group((canonical, *aliases), type_name="vaccine")
    for canonical, aliases in seeds.AGENCIES.items():
        kb.add_alias_group((canonical, *aliases), type_name="agency")
    for canonical, aliases in seeds.COMPANIES.items():
        kb.add_alias_group((canonical, *aliases), type_name="company")
    for name in seeds.FIRST_NAMES:
        kb.add_entity(name, "first_name")
    for name in seeds.LAST_NAMES:
        kb.add_entity(name, "last_name")
    for canonical, aliases in seeds.US_STATES.items():
        kb.add_alias_group((canonical, *aliases), type_name="us_state")
    for sport in seeds.SPORTS:
        kb.add_entity(sport, "sport")
    for cuisine in seeds.CUISINES:
        kb.add_entity(cuisine, "cuisine")
    for subject in seeds.SCHOOL_SUBJECTS:
        kb.add_entity(subject, "school_subject")

    kb.add_relation("city", "country", "located_in")
    kb.add_relation("vaccine", "agency", "approved_by")
    kb.add_relation("vaccine", "country", "originates_from")
    kb.add_relation("company", "country", "headquartered_in")
    kb.add_relation("first_name", "last_name", "full_name")
    kb.add_relation("city", "us_state", "city_in_state")
    return kb
