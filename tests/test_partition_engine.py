"""Factorized counts, pruned listing and lean injection against the walks."""

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


def test_large_multipliers_clamp_the_first_layer():
    # r and R far above the weight: every first-layer multiplicity is its own
    # statistic, and none reaches the clamp
    params = PartitionParams(2, 1, 2, 9, 7, 3)
    assert count_profile(params, 14) == reference.count_profile(params, 14)
