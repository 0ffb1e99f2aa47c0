"""Unit tests for the knowledge base (repro.discovery.kb)."""

from __future__ import annotations

import pytest

from repro.datalake.stats import lake_stats
from repro.discovery.kb import KnowledgeBase, seed_knowledge_base
from repro.table import Table


class TestTypesAndHierarchy:
    def test_add_type_with_unknown_parent(self):
        kb = KnowledgeBase()
        with pytest.raises(KeyError):
            kb.add_type("city", parent="place")

    def test_ancestors_chain(self):
        kb = KnowledgeBase()
        kb.add_type("place")
        kb.add_type("country", parent="place")
        assert kb.ancestors("country") == ("place",)
        assert kb.ancestors("place") == ()

    def test_types_of_includes_ancestors(self):
        kb = KnowledgeBase()
        kb.add_type("place")
        kb.add_type("city", parent="place")
        kb.add_entity("Berlin", "city")
        assert kb.types_of("berlin") == frozenset({"city", "place"})
        assert kb.types_of("Berlin", with_ancestors=False) == frozenset({"city"})

    def test_types_of_non_strings(self):
        kb = seed_knowledge_base()
        assert kb.types_of(42) == frozenset()
        assert kb.types_of(None) == frozenset()


class TestAliases:
    def test_alias_group_shares_type_and_canonical(self):
        kb = KnowledgeBase()
        kb.add_alias_group(["United States", "USA", "US"], type_name="country")
        assert "country" in kb.types_of("usa")
        assert kb.same_entity("USA", "United States")
        assert kb.canonical_of("US") == "united states"

    def test_unknown_surface_is_its_own_canonical(self):
        kb = KnowledgeBase()
        assert kb.canonical_of("Atlantis") == "atlantis"

    def test_empty_surface_ignored(self):
        kb = KnowledgeBase()
        kb.add_entity("  ", "thing")
        assert kb.num_entities == 0


class TestRelations:
    def test_relations_bidirectional_lookup(self):
        kb = KnowledgeBase()
        kb.add_relation("city", "country", "located_in")
        assert "located_in" in kb.relations_between("city", "country")
        assert "located_in" in kb.relations_between("country", "city")
        assert kb.relations_between("city", "sport") == frozenset()


class TestSeedKb:
    def test_paper_entities_present(self):
        kb = seed_knowledge_base()
        assert "city" in kb.types_of("Berlin")
        assert "country" in kb.types_of("Germany")
        assert "vaccine" in kb.types_of("JnJ")
        assert "agency" in kb.types_of("FDA")
        assert kb.same_entity("J&J", "JnJ")
        assert kb.same_entity("USA", "United States")

    def test_paper_relations_present(self):
        kb = seed_knowledge_base()
        assert "located_in" in kb.relations_between("city", "country")
        assert "approved_by" in kb.relations_between("vaccine", "agency")


class TestSynthesis:
    def test_overlapping_columns_mint_one_type(self):
        kb = KnowledgeBase()
        t1 = Table(["c"], [("alpha",), ("beta",), ("gamma",)], name="t1")
        t2 = Table(["k"], [("alpha",), ("beta",), ("delta",)], name="t2")
        t3 = Table(["z"], [("unrelated",), ("tokens",)], name="t3")
        created = kb.synthesize_from_stats(
            lake_stats({"t1": t1, "t2": t2, "t3": t3}), min_jaccard=0.4
        )
        assert created == 1
        types_alpha = kb.types_of("alpha")
        assert any(t.startswith("syn:") for t in types_alpha)
        assert kb.types_of("unrelated") == frozenset()

    def test_synthetic_relation_from_co_occurrence(self):
        kb = KnowledgeBase()
        t1 = Table(["a", "b"], [("x1", "y1"), ("x2", "y2")], name="t1")
        t2 = Table(["a2", "b2"], [("x1", "y1"), ("x2", "y2")], name="t2")
        kb.synthesize_from_stats(lake_stats({"t1": t1, "t2": t2}), min_jaccard=0.5)
        type_x = next(iter(kb.types_of("x1")))
        type_y = next(iter(kb.types_of("y1")))
        assert kb.relations_between(type_x, type_y)


class TestSynthesisReadsStats:
    """Domains come from ``ColumnStats.text_values()``; the synthesized
    KB must be the one the cell-based construction built."""

    @staticmethod
    def lake_tables() -> dict[str, Table]:
        from repro.table import MISSING

        cities = ["Berlin", " berlin ", "OSLO", "Oslo", "Toronto", "Bern", MISSING]
        lake = {}
        for i in range(6):
            rows = [
                (cities[(i + j) % len(cities)], f"country{(i + j) % 4}", j * i)
                for j in range(6)
            ]
            lake[f"t{i}"] = Table(["City", "Country", "N"], rows, name=f"t{i}")
        lake["solo"] = Table(["Word"], [("unrelated",), ("tokens",)], name="solo")
        return lake

    @staticmethod
    def synthesized(tables) -> dict:
        from repro.datalake import stats as lake_stats_module

        kb = KnowledgeBase()
        created = kb.synthesize_from_stats(
            lake_stats_module.lake_stats(tables), min_jaccard=0.3
        )
        assert created >= 2
        # dict order carries the syn:<n> numbering
        return {"types": list(kb._types.items()), **vars(kb)}

    def test_equal_to_the_cell_based_construction(self, tmp_path, monkeypatch):
        from repro.datalake import stats as lake_stats_module
        from repro.obs import metrics
        from repro.store import LakeStore
        from repro.text.tokenize import normalize_token

        tables = self.lake_tables()
        LakeStore.create(tmp_path / "lake.store").ingest(tables)
        decodes = metrics.counter("store.decode").value
        stored = self.synthesized(LakeStore.open(tmp_path / "lake.store").lake())
        assert metrics.counter("store.decode").value == decodes
        assert stored == self.synthesized(tables)

        class CellDomains:
            """What the KB read before: each column's decoded cells."""

            def __init__(self, lake, name=None, column=None):
                self.lake, self.name, self.column_name = lake, name, column

            def table(self, name):
                return CellDomains(self.lake, name)

            def __iter__(self):
                return ((name, self.table(name)) for name in self.lake)

            @property
            def columns(self):
                return self.lake[self.name].columns

            def column(self, column):
                return CellDomains(self.lake, self.name, column)

            def text_values(self):
                cells = self.lake[self.name].column_values(self.column_name)
                return frozenset(normalize_token(v) for v in cells if isinstance(v, str))

        monkeypatch.setattr(lake_stats_module, "lake_stats", CellDomains)
        assert stored == self.synthesized(tables)
