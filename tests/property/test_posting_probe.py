"""The posting probe pinned against a reference posting-list walk.

:meth:`PostingIndex.probe` answers from cached per-token int arrays and
has three ways to count them (a single matched list, a direct tally
below 64 matched entries, ``concatenate`` + ``bincount`` from there up).
Whichever one runs, the mapping must be exactly what walking the plain
posting lists gives -- ``reference_probe`` in ``tests/sketch_oracles.py``.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.candidates.postings import PostingIndex
from sketch_oracles import reference_probe

# ----------------------------------------------------------------------
# Random dense-keyed domains over a small token alphabet, probed with
# hits, misses and duplicate tokens.
# ----------------------------------------------------------------------
TOKENS = [f"tok{i}" for i in range(12)]


@st.composite
def indexed_probes(draw):
    num_columns = draw(st.integers(0, 10))
    domains = [
        (key, draw(st.sets(st.sampled_from(TOKENS), max_size=8)))
        for key in range(num_columns)
    ]
    probe = draw(
        st.lists(
            st.sampled_from(TOKENS + ["absent", "also-absent"]), max_size=12
        )
    )
    return domains, probe


@settings(max_examples=60, deadline=None)
@given(indexed_probes())
def test_probe_matches_reference_walk(case):
    domains, probe = case
    index = PostingIndex.build(domains)
    oracle = reference_probe(index.postings, probe)
    # Key order depends on which way the probe counted; the mapping does not.
    assert index.probe(probe) == oracle
    # Probing again hits the per-token array cache: still identical.
    assert index.probe(probe) == oracle


def test_probe_large_fanout_exact():
    """Above the bincount switchover (>= 64 matched entries) the counts
    stay exact overlap sizes."""
    domains = [(key, {f"tok{key % 12}", "shared"}) for key in range(100)]
    index = PostingIndex.build(domains)
    probe = ["shared", "tok0", "tok1", "absent"]
    assert index.probe(probe) == reference_probe(index.postings, probe)
