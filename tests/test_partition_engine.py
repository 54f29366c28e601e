"""Factorized counts, pruned listing and lean injection against the walks.

The injection walk takes its sources in prefix runs; the vector-at-a-time
walk in `reference_partitions` must agree with it on every report,
failure string and source count included, also when `_invert` is wrong on
a single source.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_partitions as reference
from oracles import partition_counts_upto
from qdominance.partitions import (
    BASE_LABELS,
    PartitionParams,
    count_profile,
    enumerate_partitions,
    interpretation_check,
)
from qdominance import proposal
from qdominance.proposal import injection_evidence, proposal_params

small = st.integers(1, 4)
partition_params = st.builds(
    PartitionParams, st.integers(1, 6), small, small, small, small, st.integers(1, 3)
)


@settings(max_examples=200, deadline=None)
@given(partition_params, st.integers(0, 14))
def test_counts_match_the_walk(params, max_n):
    assert count_profile(params, max_n) == reference.count_profile(params, max_n)


@settings(max_examples=60, deadline=None)
@given(partition_params, st.integers(0, 14))
def test_counts_and_rows_ignore_the_layers_that_do_not_fit(params, n):
    # no layer above n // m + 1 holds a part of weight <= n
    m, x, y, r, R, _ = params.as_tuple()
    fitting = PartitionParams(m, x, y, r, R, n // m + 1)
    huge = PartitionParams(m, x, y, r, R, 10**9)
    assert count_profile(huge, n) == count_profile(fitting, n)
    assert interpretation_check(huge, n)["rows"] == interpretation_check(fitting, n)["rows"]


@pytest.mark.parametrize("values", [(1, 1, 2, 2), (1, 2, 2, 3), (2, 1, 3, 1), (3, 2, 1, 2)])
def test_counts_match_the_walk_when_some_layers_do_not_fit(values):
    # layers 3 to 5 of m = 6 are heavier than 14, so the lowest-layer keys
    # of XY, RX and RY count down from the fitting layers to the empty L + 1
    params = PartitionParams(6, *values, 5)
    assert count_profile(params, 14) == reference.count_profile(params, 14)


@settings(max_examples=60, deadline=None)
@given(partition_params, st.integers(0, 60))
def test_totals_are_the_product_series(params, max_n):
    totals = count_profile(params, max_n)["totals"]
    sizes = [
        reference.part_size(params, base, index)
        for base in BASE_LABELS
        for index in range(1, params.L + 1)
    ]
    assert totals == partition_counts_upto(max_n, sizes)


@settings(max_examples=150, deadline=None)
@given(partition_params, st.integers(0, 10))
def test_listing_matches_the_sorted_walk(params, n):
    assert enumerate_partitions(n, params) == [
        p.counts for p in reference.enumerate_partitions(n, params)
    ]


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 2).flatmap(
        lambda n: st.tuples(
            st.tuples(*[st.integers(1, 3)] * n), st.tuples(*[st.integers(1, 3)] * n)
        )
    ),
    st.integers(0, 20),
)
def test_injection_matches_the_validated_walk(sizes_and_multipliers, max_weight):
    params = proposal_params(*sizes_and_multipliers)
    assert injection_evidence(params, max_weight) == reference.injection_evidence(
        params, max_weight
    )


short_tuples = st.integers(1, 3).flatmap(
    lambda n: st.tuples(st.tuples(*[st.integers(1, 3)] * n), st.tuples(*[st.integers(1, 3)] * n))
)


@settings(max_examples=100, deadline=None)
@given(short_tuples, st.integers(0, 24))
def test_injection_matches_the_vector_walk(sizes_and_multipliers, max_weight):
    params = proposal_params(*sizes_and_multipliers)
    assert injection_evidence(params, max_weight) == reference.walk_injection_evidence(
        params, max_weight
    )


def wrong_on(source):
    """An `_invert` that pulls back the image of `source` wrongly and every other image right."""
    invert = proposal._invert

    def patched(counts, joint, rs):
        out = invert(counts, joint, rs)
        return (out[0], out[1] + 1) if out == source else out

    return patched


# (sizes, multipliers, source): each source has joint > 0 and a prefix other
# than the first, so it sits inside a run
INSIDE_A_RUN = [
    ((1, 2), (2, 3), ((2, 1), 1)),
    ((1, 2, 1), (1, 1, 3), ((1, 0, 2), 3)),
    ((2, 1, 1), (3, 3, 2), ((0, 2, 1), 2)),
    ((3, 1, 2), (2, 1, 3), ((1, 1, 0), 1)),
]


@pytest.mark.parametrize("sizes, multipliers, source", INSIDE_A_RUN)
def test_one_wrong_pull_back_inside_a_run_fails_as_in_the_vector_walk(
    sizes, multipliers, source, monkeypatch
):
    counts, joint = source
    params = proposal_params(sizes, multipliers)
    sources = [(c, j) for c, j, _ in reference._bounded_vectors(params.source_sizes, 20)]
    assert source in sources and joint > 0 and any(counts)
    monkeypatch.setattr(proposal, "_invert", wrong_on(source))
    got = injection_evidence(params, 20)
    assert got == reference.walk_injection_evidence(params, 20)
    assert got["failure"] == f"round-trip failed on counts={counts}, joint={joint}"
    assert got["source_count"] == sources.index(source) + 1


@settings(max_examples=60, deadline=None)
@given(short_tuples, st.integers(0, 16), st.data())
def test_any_one_wrong_pull_back_fails_as_in_the_vector_walk(sizes_and_multipliers, max_weight, data):
    params = proposal_params(*sizes_and_multipliers)
    sources = [(c, j) for c, j, _ in reference._bounded_vectors(params.source_sizes, max_weight)]
    source = data.draw(st.sampled_from(sources))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(proposal, "_invert", wrong_on(source))
        got = injection_evidence(params, max_weight)
        want = reference.walk_injection_evidence(params, max_weight)
    assert got == want
    assert got["failure"] == f"round-trip failed on counts={source[0]}, joint={source[1]}"
    assert got["source_count"] == sources.index(source) + 1


def test_large_multipliers_clamp_the_first_layer():
    # r and R far above the weight: every first-layer multiplicity is its own
    # statistic, and none reaches the clamp
    params = PartitionParams(2, 1, 2, 9, 7, 3)
    assert count_profile(params, 14) == reference.count_profile(params, 14)
