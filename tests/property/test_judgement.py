"""The retrieval judgement splits across disjoint parts of a lake.

:func:`repro.candidates.spec.judge` decides what a spec's floor and
budget make of a retrieval.  A sharded lake's reducer calls it over the
union of its shards' rankings -- or, without a budget, over their summed
count alone -- and each shard scores its own top-budget in round one.
Both rest on two properties, checked here over random strengths, floors,
budgets and splits:

* judging the union of the parts equals judging the whole;
* each part's members of the whole's kept tables are a prefix of that
  part's own ranking, no longer than the budget.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.candidates.spec import CandidateSpec, judge, rank

NAMES = [f"t{i:02d}" for i in range(16)]


@st.composite
def split_retrievals(draw):
    """(whole totals, its disjoint parts, every lake table name)."""
    retrieved = draw(st.lists(st.sampled_from(NAMES), unique=True, max_size=12))
    # Few distinct strengths, so name tie-breaks are exercised.
    strengths = draw(
        st.lists(st.integers(1, 4), min_size=len(retrieved), max_size=len(retrieved))
    )
    homes = draw(
        st.lists(st.integers(0, 3), min_size=len(retrieved), max_size=len(retrieved))
    )
    totals = {name: float(s) for name, s in zip(retrieved, strengths)}
    parts = [
        {name: totals[name] for name, home in zip(retrieved, homes) if home == part}
        for part in range(4)
    ]
    return totals, parts, NAMES


budgets = st.none() | st.integers(1, 8)
specs = st.builds(
    lambda floor, is_k, budget: CandidateSpec(
        channels=("values",),
        min_candidates=floor,
        min_candidates_is_k=is_k,
        budget=budget,
    ),
    st.integers(0, 10),
    st.booleans(),
    budgets,
)


@settings(max_examples=300, deadline=None)
@given(
    split=split_retrievals(),
    spec=specs,
    k=st.integers(1, 12),
    default_budget=budgets,
    probes=st.integers(0, 5),
)
def test_judging_the_union_of_parts_equals_judging_the_whole(
    split, spec, k, default_budget, probes
):
    totals, parts, lake = split
    whole = judge("d", spec, k, default_budget, rank(totals), lake, probes)

    union: dict[str, float] = {}
    for part in parts:
        union.update(part)
    assert judge("d", spec, k, default_budget, rank(union), lake, probes) == whole

    # Without rankings the summed count alone gives the whole's report
    # (and, on a fallback, its kept tables: the lake).
    kept, report = judge(
        "d", spec, k, default_budget, (), lake, probes,
        retrieved=sum(len(part) for part in parts),
    )
    assert report == whole[1]
    if report.fallback:
        assert kept == whole[0] == tuple(lake)


@settings(max_examples=300, deadline=None)
@given(
    split=split_retrievals(),
    spec=specs,
    k=st.integers(1, 12),
    default_budget=budgets,
)
def test_a_parts_share_of_the_kept_tables_is_a_prefix_of_its_ranking(
    split, spec, k, default_budget
):
    totals, parts, lake = split
    kept, report = judge("d", spec, k, default_budget, rank(totals), lake, 0)
    if report.fallback:
        return
    budget = spec.effective_budget(default_budget)
    kept_set = set(kept)
    for part in parts:
        ranking = list(rank(part))
        members = [name for name in ranking if name in kept_set]
        assert members == ranking[: len(members)]
        if budget is not None:
            assert len(members) <= budget
