"""Store round-trip fidelity, pinned over random tables.

The ISSUE 2 acceptance property: for arbitrary lakes,
``LakeStore.open(save(lake))`` yields identical ``column_arrays``
(null kinds included), equal :class:`ColumnStats` products, and
byte-identical sketch signatures -- and a warm discover run performs zero
raw-cell scans.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalake import DataLake
from repro.store import LakeStore, SketchConfig
from repro.table import MISSING, PRODUCED, Table

from deltas import deltas
from old_store import add_text_values, with_segment_format_tags

# ----------------------------------------------------------------------
# Strategies: heterogeneous cells with both null kinds and unicode text
# ----------------------------------------------------------------------
cells = st.one_of(
    st.integers(-1_000_000, 1_000_000),
    st.sampled_from(["a", "b", "cc", "", "Zürich", "entity 7", "±", "x,y\n z"]),
    st.booleans(),
    st.sampled_from([0.5, 1.0, -2.0, 3.25e10, 1e-9]),
    st.just(MISSING),
    st.just(PRODUCED),
)


@st.composite
def tables(draw, name: str = "t"):
    num_cols = draw(st.integers(1, 4))
    num_rows = draw(st.integers(0, 8))
    columns = [f"c{i}" for i in range(num_cols)]
    rows = [tuple(draw(cells) for _ in range(num_cols)) for _ in range(num_rows)]
    return Table(columns, rows, name=name)


@st.composite
def lakes(draw):
    count = draw(st.integers(1, 3))
    return DataLake([draw(tables(name=f"t{i}")) for i in range(count)])


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(lakes(), st.booleans())
def test_roundtrip_arrays_stats_and_sketches(tmp_path_factory, lake, tagged):
    """*tagged*: the manifest entries also carry the ``segment_format``
    tag an earlier writer put there, which the reader ignores."""
    store_dir = tmp_path_factory.mktemp("store") / "lake.store"
    store = LakeStore.create(store_dir)
    store.ingest(lake)
    if tagged:
        with_segment_format_tags(store_dir)

    warm = LakeStore.open(store_dir).lake()
    hasher = SketchConfig().hasher
    assert sorted(warm) == sorted(lake)
    for name, original in lake.items():
        stored = warm[name]
        # Cell-exact columnar round trip, null kinds included.
        assert stored.column_arrays == original.column_arrays
        for ours, theirs in zip(stored.column_arrays, original.column_arrays):
            for a, b in zip(ours, theirs):
                if a is MISSING or a is PRODUCED:
                    assert a is b
        for column in original.columns:
            restored = stored.stats.column(column)
            reference = original.stats.column(column)
            assert restored.dtype == reference.dtype
            assert restored.row_count == reference.row_count
            assert restored.null_count == reference.null_count
            assert restored.missing_count == reference.missing_count
            assert restored.distinct == reference.distinct
            assert restored.tokens == reference.tokens
            assert restored.numeric_fraction == reference.numeric_fraction
            assert restored.text_values() == reference.text_values()
            # The sketch restores byte-identically.
            assert (
                restored.minhash(hasher).to_bytes()
                == reference.minhash(hasher).to_bytes()
            )
    # The whole verification above ran from hydrated snapshots: no scans.
    assert all(n == 0 for n in warm.stats.scan_counts().values())


def assert_hydrated_like_scanned(store: LakeStore, lake: DataLake) -> None:
    """Every product of each hydrated column equals the scanned column's.

    Before the first call a hydrated column holds its MinHash as bytes,
    and the unlimited text domain reads no cells: no scan, no segment
    decode.  A limited text domain may page cells in, so it comes last."""
    hasher = SketchConfig().hasher
    decoded = deltas("store.decode")
    hydrated = {name: store.table_stats(name) for name in lake}
    for name, original in lake.items():
        for column in original.columns:
            restored = hydrated[name].column(column)
            reference = original.stats.column(column)
            assert [type(sketch) for sketch in restored._minhash.values()] == [bytes]
            assert restored.text_values() == reference.text_values()
            assert restored.distinct == reference.distinct
            assert restored.tokens == reference.tokens
        assert all(n == 0 for n in hydrated[name].scan_counts.values())
    assert decoded() == {"store.decode": 0}
    for name, original in lake.items():
        for column in original.columns:
            restored = hydrated[name].column(column)
            reference = original.stats.column(column)
            assert (
                restored.minhash(hasher).to_bytes()
                == reference.minhash(hasher).to_bytes()
            )
            for limit in range(reference.row_count + 2):
                assert restored.text_values(limit) == reference.text_values(limit)
        assert all(n == 0 for n in hydrated[name].scan_counts.values())


@settings(max_examples=25, deadline=None)
@given(lakes())
def test_hydrated_products_equal_the_scanned_columns(tmp_path_factory, lake):
    store_dir = tmp_path_factory.mktemp("store") / "lake.store"
    LakeStore.create(store_dir).ingest(lake)
    assert_hydrated_like_scanned(LakeStore.open(store_dir), lake)


@settings(max_examples=15, deadline=None)
@given(lakes())
def test_snapshots_carrying_text_values_hydrate_alike(tmp_path_factory, lake):
    """Every store written before the text domain was derived carries it
    as a ``text_values`` field; the one reader ignores the field and
    serves identical products."""
    store_dir = tmp_path_factory.mktemp("store") / "lake.store"
    LakeStore.create(store_dir).ingest(lake)
    add_text_values(store_dir)
    snapshot = next((store_dir / "stats").glob("*.stats.json"))
    assert '"text_values":' in snapshot.read_text(encoding="utf-8")
    assert_hydrated_like_scanned(LakeStore.open(store_dir), lake)


@settings(max_examples=15, deadline=None)
@given(lakes())
def test_reingest_is_a_fixed_point(tmp_path_factory, lake):
    """Ingesting identical content twice changes nothing: no version bump,
    every table reported unchanged."""
    store_dir = tmp_path_factory.mktemp("store") / "lake.store"
    store = LakeStore.create(store_dir)
    first = store.ingest(lake)
    assert sorted(first.added) == sorted(lake)
    again = store.ingest(lake)
    assert not again.changed
    assert sorted(again.unchanged) == sorted(lake)
    assert again.lake_version == first.lake_version


def test_corrupted_v2_segment_raises_typed_error(tmp_path):
    """Truncation or header damage in a binary segment must surface as
    :class:`SegmentCorrupted`, never as garbage cells or a bare
    struct/unicode error."""
    from repro.store import SegmentCorrupted

    store_dir = tmp_path / "lake.store"
    store = LakeStore.create(store_dir)
    store.ingest(
        DataLake(
            [
                Table(
                    ["a", "b"],
                    [(1, "x"), (2.5, "y"), (MISSING, "Zürich")],
                    name="t0",
                )
            ]
        )
    )
    segment = next(store_dir.glob("segments/*.seg.bin"))
    pristine = segment.read_bytes()

    def load():
        import pytest

        with pytest.raises(SegmentCorrupted):
            LakeStore.open(store_dir, check_sketch=False).load_table("t0")

    for damage in (
        pristine[: len(pristine) // 2],  # truncated mid-body
        pristine[:10],  # shorter than the header
        b"NOPE" + pristine[4:],  # bad magic
        pristine[:-1],  # one byte short
        pristine + b"\x00\x00",  # trailing garbage
    ):
        segment.write_bytes(damage)
        load()

    # A code past the dictionary's end, at the right size: code width 1
    # and two column blocks of 3 codes + 1 bitmap byte, so byte -8 is
    # column a's first code.
    out_of_range = bytearray(pristine)
    out_of_range[-8] = 0xFF
    segment.write_bytes(bytes(out_of_range))
    import pytest

    with pytest.raises(SegmentCorrupted, match="holds code 255"):
        LakeStore.open(store_dir, check_sketch=False).load_table("t0")

    # And the pristine bytes still load (the guard is not over-eager).
    segment.write_bytes(pristine)
    table = LakeStore.open(store_dir, check_sketch=False).load_table("t0")
    assert table.rows[2][1] == "Zürich"


@settings(max_examples=15, deadline=None)
@given(tables(name="q"), st.integers(0, 3))
def test_content_hash_is_content_equality(tmp_path_factory, table, salt):
    """Two tables hash equal iff their header + cells are identical."""
    from repro.store import table_content_hash

    clone = Table(table.columns, list(table.rows), name="other")
    assert table_content_hash(clone) == table_content_hash(table)
    perturbed = Table(
        table.columns,
        list(table.rows) + [tuple(salt for _ in table.columns)],
        name=table.name,
    )
    assert table_content_hash(perturbed) != table_content_hash(table)
