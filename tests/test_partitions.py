"""Colored-partition enumeration, restriction systems, and series cross-checks."""

import random

import pytest

from qdominance.partitions import (
    BASE_LABELS,
    ColoredPart,
    ColoredPartition,
    EnumerationCapError,
    PartitionParams,
    colored_part,
    colored_partition,
    count_profile,
    count_restricted,
    enumerate_partitions,
    interpretation_check,
    interpretation_rows,
    satisfies,
    split_series,
    stats,
    unrestricted_series,
)
from qdominance.series import (
    QSeries,
    product_spec,
    series_add,
    series_sub,
    spec_reciprocal,
)

FLAGSHIP = PartitionParams(5, 1, 1, 2, 2, 2)


class TestParams:
    def test_base_sizes(self):
        params = PartitionParams(5, 1, 2, 2, 3, 4)
        assert [params.base_size(b) for b in BASE_LABELS] == [1, 2, 3, 2, 6, 8]

    def test_part_size_layers(self):
        params = PartitionParams(5, 1, 2, 2, 3, 4)
        assert params.part_size("RX", 1) == 2
        assert params.part_size("RX", 2) == 7
        assert params.part_size("S", 4) == 8 + 15

    def test_index_range_enforced(self):
        params = PartitionParams(5, 1, 2, 2, 3, 4)
        with pytest.raises(ValueError):
            params.part_size("X", 0)
        with pytest.raises(ValueError):
            params.part_size("X", 5)
        with pytest.raises(ValueError):
            params.part_size("X", True)

    def test_validation(self):
        with pytest.raises(ValueError):
            PartitionParams(0, 1, 1, 1, 1, 1)
        with pytest.raises(ValueError):
            PartitionParams(5, 1, 1, 1, 1, 0)
        with pytest.raises(ValueError):
            PartitionParams(5, 1, -2, 1, 1, 1)
        with pytest.raises(ValueError):
            PartitionParams(5, True, 1, 2, 2, 2)

    def test_tuple_round_trip(self):
        values = (5, 1, 2, 2, 3, 4)
        assert PartitionParams.from_values(values).as_tuple() == values


class TestColoredPartition:
    def test_builder_merges_and_drops_zeros(self):
        pi = colored_partition(
            FLAGSHIP, [(("Y", 1), 1), (("Y", 1), 2), (("X", 2), 0)]
        )
        assert pi.counts == ((("Y", 1), 3),)

    def test_builder_rejects_negative(self):
        with pytest.raises(ValueError):
            colored_partition(FLAGSHIP, {("Y", 1): -1})
        with pytest.raises(ValueError):
            colored_partition(FLAGSHIP, {("Y", 1): True})
        with pytest.raises(ValueError):
            colored_partition(FLAGSHIP, {("X", True): 1})

    def test_bad_base_and_index(self):
        with pytest.raises(ValueError):
            colored_partition(FLAGSHIP, {("Q", 1): 1})
        with pytest.raises(ValueError):
            colored_partition(FLAGSHIP, {("Y", 3): 1})  # L == 2
        with pytest.raises(ValueError):
            ColoredPart("X", True, 1)
        with pytest.raises(ValueError):
            ColoredPart("X", 1, True)

    def test_direct_construction_demands_canonical_order(self):
        with pytest.raises(ValueError):
            ColoredPartition(((("Y", 1), 1), (("X", 1), 1)), FLAGSHIP)
        with pytest.raises(ValueError):
            ColoredPartition(((("Y", 1), 1), (("Y", 1), 2)), FLAGSHIP)
        with pytest.raises(ValueError):
            ColoredPartition(((("Y", 1), True),), FLAGSHIP)

    def test_weight_and_multiplicity(self):
        pi = colored_partition(FLAGSHIP, {("Y", 2): 1, ("S", 1): 2, ("X", 1): 3})
        # sizes: y_2 = 1 + 5 = 6, s_1 = 4, x_1 = 1
        assert pi.weight == 6 + 8 + 3
        assert pi.multiplicity("S", 1) == 2
        assert pi.multiplicity("RX", 1) == 0

    def test_parts_carry_sizes(self):
        pi = colored_partition(FLAGSHIP, {("RY", 2): 2})
        ((part, multiplicity),) = pi.parts()
        assert part == ColoredPart("RY", 2, 7)
        assert multiplicity == 2
        assert colored_part(FLAGSHIP, "RY", 2) == part


class TestStats:
    def test_empty_defaults(self):
        params = PartitionParams(5, 1, 2, 2, 3, 4)
        empty = colored_partition(params, {})
        assert stats(empty, "Y") == (0, 5)
        assert stats(empty, "RX") == (0, 5)

    def test_occupied_layers(self):
        params = PartitionParams(5, 1, 2, 2, 3, 4)
        pi = colored_partition(params, {("Y", 1): 1, ("Y", 3): 1})
        assert stats(pi, "Y") == (3, 1)

    def test_other_bases_unaffected(self):
        params = PartitionParams(5, 1, 2, 2, 3, 4)
        pi = colored_partition(params, {("RX", 2): 1})
        assert stats(pi, "RX") == (2, 2)
        assert stats(pi, "X") == (0, 5)

    def test_unknown_base(self):
        with pytest.raises(ValueError):
            stats(colored_partition(FLAGSHIP, {}), "Z")


class TestSatisfies:
    def test_empty_fails_both_leading_rules(self):
        empty = colored_partition(FLAGSHIP, {})
        assert satisfies(empty, "V").violated == "V1"
        assert satisfies(empty, "W").violated == "W1"
        assert not satisfies(empty, "V").satisfied

    def test_first_violation_in_display_order(self):
        # passes V1/V2, fails V3 (an rx part sits below the top y layer) and
        # V7 as well; V3 is the one reported.
        pi = colored_partition(FLAGSHIP, {("Y", 2): 1, ("Y", 1): 3, ("RX", 1): 1})
        assert satisfies(pi, "V").violated == "V3"
        # W side: passes W1-W3, fails W4 (an Ry part in layer 1).
        pi = colored_partition(FLAGSHIP, {("X", 1): 1, ("RY", 1): 1})
        assert satisfies(pi, "W").violated == "W4"

    def test_single_y_part_satisfies_v(self):
        pi = colored_partition(FLAGSHIP, {("Y", 1): 1})
        assert satisfies(pi, "V").satisfied
        assert satisfies(pi, "W").violated == "W1"
        # doubling the first-layer y part exhausts the window
        doubled = colored_partition(FLAGSHIP, {("Y", 1): 2})
        assert satisfies(doubled, "V").violated == "V7"
        assert count_restricted(1, "V", FLAGSHIP) == 1
        assert split_series(FLAGSHIP, 2)[0].coeff(1) == 1

    def test_systems_mutually_exclusive(self):
        for n in range(9):
            for pi in enumerate_partitions(n, FLAGSHIP):
                assert not (
                    satisfies(pi, "V").satisfied and satisfies(pi, "W").satisfied
                )

    def test_unknown_system(self):
        with pytest.raises(ValueError):
            satisfies(colored_partition(FLAGSHIP, {}), "U")
        with pytest.raises(ValueError):
            count_restricted(3, "U", FLAGSHIP)

    def test_r_one_empties_the_v_system(self):
        params = PartitionParams(5, 1, 2, 2, 1, 2)  # R == 1
        v_series, _ = split_series(params, 10)
        assert v_series.is_zero()
        assert all(count_restricted(n, "V", params) == 0 for n in range(11))

    def test_r_one_empties_the_w_system(self):
        params = PartitionParams(5, 2, 1, 1, 3, 2)  # r == 1
        _, w_series = split_series(params, 10)
        assert w_series.is_zero()
        assert all(count_restricted(n, "W", params) == 0 for n in range(11))


class TestEnumerate:
    def test_weight_one_unique(self):
        params = PartitionParams(10, 1, 2, 3, 2, 1)
        assert [pi.counts for pi in enumerate_partitions(1, params)] == [
            ((("X", 1), 1),)
        ]

    def test_weight_zero_is_empty_partition(self):
        (only,) = enumerate_partitions(0, FLAGSHIP)
        assert only.counts == ()
        assert only.weight == 0

    def test_equal_bases_stay_colored(self):
        params = PartitionParams(50, 1, 1, 3, 3, 1)
        listed = enumerate_partitions(2, params)
        assert [pi.counts for pi in listed] == [
            ((("X", 1), 1), (("Y", 1), 1)),
            ((("X", 1), 2),),
            ((("Y", 1), 2),),
            ((("XY", 1), 1),),
        ]

    def test_duplicate_free_and_correct_weights(self):
        for n in range(9):
            listed = enumerate_partitions(n, FLAGSHIP)
            assert len(set(listed)) == len(listed)
            assert all(pi.weight == n for pi in listed)

    def test_totals_match_product_series(self):
        params = PartitionParams(5, 1, 2, 2, 2, 2)
        series = unrestricted_series(params, 12)
        for n in range(13):
            assert len(enumerate_partitions(n, params)) == series.coeff(n)

    def test_cap(self):
        with pytest.raises(EnumerationCapError):
            enumerate_partitions(41, FLAGSHIP)
        with pytest.raises(EnumerationCapError):
            enumerate_partitions(6, FLAGSHIP, cap=5)
        assert enumerate_partitions(5, FLAGSHIP, cap=5)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            enumerate_partitions(-1, FLAGSHIP)


class TestCounts:
    def test_weight_zero_counts_are_zero(self):
        assert count_restricted(0, "V", FLAGSHIP) == 0
        assert count_restricted(0, "W", FLAGSHIP) == 0

    def test_profile_agrees_with_filtering(self):
        profile = count_profile(FLAGSHIP, 8)
        for n in range(9):
            listed = enumerate_partitions(n, FLAGSHIP)
            assert profile["totals"][n] == len(listed)
            for system in ("V", "W"):
                brute = sum(1 for pi in listed if satisfies(pi, system).satisfied)
                assert profile[system][n] == brute
                assert count_restricted(n, system, FLAGSHIP) == brute

    def test_colors_matter_when_sizes_collide(self):
        params = PartitionParams(50, 2, 2, 2, 2, 1)
        # six part kinds of sizes 2, 2, 4, 4, 4, 8; at weight 4 the colored
        # count is 6, far from the 2 partitions of 4 into plain sizes {2, 4}.
        assert unrestricted_series(params, 4).coeff(4) == 6
        assert len(enumerate_partitions(4, params)) == 6


class TestInterpretation:
    def test_flagship_counts_match_series(self):
        result = interpretation_check(FLAGSHIP, 16)
        assert result["ok"] and result["witness"] is None
        assert [row["n"] for row in result["rows"]] == list(range(17))
        assert all(row["match"] for row in result["rows"])

    def test_row_columns(self):
        (row,) = interpretation_rows(FLAGSHIP, 0)
        assert set(row) == {"n", "V_count", "W_count", "series_V", "series_W", "match"}

    def test_equal_bases_tuple(self):
        result = interpretation_check(PartitionParams(4, 2, 2, 2, 2, 2), 14)
        assert result["ok"], result["witness"]

    def test_counts_sum_to_reciprocal_difference(self):
        order = 16
        profile = count_profile(FLAGSHIP, order)
        m, x, y, r, R, L = FLAGSHIP.as_tuple()
        diff = series_sub(
            spec_reciprocal(product_spec((x, y, r * x + R * y), m, L), order),
            spec_reciprocal(product_spec((r * x, R * y, x + y), m, L), order),
        )
        for n in range(order + 1):
            assert profile["V"][n] + profile["W"][n] == diff.coeff(n)

    def test_tampered_series_yields_minimal_witness(self):
        v_series, w_series = split_series(FLAGSHIP, 12)
        bumps = series_add(QSeries.monomial(9, 12), QSeries.monomial(11, 12))
        tampered = (series_add(v_series, bumps), w_series)
        result = interpretation_check(FLAGSHIP, 12, series_pair=tampered)
        assert not result["ok"]
        assert result["witness"] == {
            "n": 9,
            "system": "V",
            "count": v_series.coeff(9),
            "coefficient": v_series.coeff(9) + 1,
        }

    def test_random_small_tuples(self):
        rng = random.Random(20260819)
        for _ in range(4):
            params = PartitionParams(
                rng.randint(2, 6),
                rng.randint(1, 3),
                rng.randint(1, 3),
                rng.randint(1, 3),
                rng.randint(1, 3),
                rng.randint(1, 2),
            )
            result = interpretation_check(params, 10)
            assert result["ok"], (params, result["witness"])
