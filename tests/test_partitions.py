"""Colored-partition enumeration, restriction systems, and series cross-checks."""

import random

import pytest

from oracles import partition_counts_upto
from qdominance import partitions
from qdominance.partitions import (
    BASE_LABELS,
    MAX_ENUMERATED_WEIGHT,
    MAX_INTERPRET_N,
    PartitionParams,
    _first_violation,
    _part_kinds,
    _stat_record,
    count_profile,
    enumerate_partitions,
    interpretation_check,
    split_series,
)
from qdominance.series import ResourceError, product_spec
from reference_partitions import ColoredPartition, part_size
from reference_series import monomial, series_add, series_sub, spec_reciprocal

FLAGSHIP = PartitionParams(5, 1, 1, 2, 2, 2)


def violated(counts, system, params=FLAGSHIP):
    """The first rule of a system that the partition with these counts breaks."""
    return _first_violation(system, params, _stat_record(counts, params.L))


def weight(counts, params):
    return sum(
        multiplicity * part_size(params, base, index)
        for base, index, multiplicity in counts
    )


def totals(params, max_n):
    """Unrestricted colored-partition counts: one part kind per base and layer."""
    sizes = [
        part_size(params, base, index)
        for base in BASE_LABELS
        for index in range(1, params.L + 1)
    ]
    return partition_counts_upto(max_n, sizes)


class TestParams:
    def test_base_sizes(self):
        params = PartitionParams(5, 1, 2, 2, 3, 4)
        assert [params.base_size(b) for b in BASE_LABELS] == [1, 2, 3, 2, 6, 8]

    def test_part_size_layers(self):
        params = PartitionParams(5, 1, 2, 2, 3, 4)
        assert part_size(params, "RX", 1) == 2
        assert part_size(params, "RX", 2) == 7
        assert part_size(params, "S", 4) == 8 + 15

    def test_index_range_enforced(self):
        params = PartitionParams(5, 1, 2, 2, 3, 4)
        with pytest.raises(ValueError):
            part_size(params, "X", 0)
        with pytest.raises(ValueError):
            part_size(params, "X", 5)
        with pytest.raises(ValueError):
            part_size(params, "X", True)

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
        assert PartitionParams(*values).as_tuple() == values


class TestColoredPartition:
    def test_builder_rejects_negative(self):
        with pytest.raises(ValueError):
            ColoredPartition((("Y", 1, -1),), FLAGSHIP)
        with pytest.raises(ValueError):
            ColoredPartition((("Y", 1, True),), FLAGSHIP)
        with pytest.raises(ValueError):
            ColoredPartition((("X", True, 1),), FLAGSHIP)

    def test_bad_base_and_index(self):
        with pytest.raises(ValueError):
            ColoredPartition((("Q", 1, 1),), FLAGSHIP)
        with pytest.raises(ValueError):
            ColoredPartition((("Y", 3, 1),), FLAGSHIP)  # L == 2

    def test_direct_construction_demands_canonical_order(self):
        with pytest.raises(ValueError):
            ColoredPartition((("Y", 1, 1), ("X", 1, 1)), FLAGSHIP)
        with pytest.raises(ValueError):
            ColoredPartition((("Y", 1, 1), ("Y", 1, 2)), FLAGSHIP)
        with pytest.raises(ValueError):
            ColoredPartition((("Y", 1, True),), FLAGSHIP)


class TestStats:
    # the rule record is (Mx, My, Ms, min_rx, min_Ry, min_xy, nu_x1, nu_y1)
    def test_empty_defaults(self):
        assert _stat_record((), 4) == (0, 0, 0, 5, 5, 5, 0, 0)

    def test_occupied_layers(self):
        record = _stat_record((("Y", 1, 1), ("Y", 3, 1)), 4)
        assert record == (0, 3, 0, 5, 5, 5, 0, 1)

    def test_other_bases_unaffected(self):
        record = _stat_record((("RX", 2, 1),), 4)
        assert record == (0, 0, 0, 2, 5, 5, 0, 0)

    def test_unknown_base(self):
        with pytest.raises(ValueError):
            FLAGSHIP.base_size("Z")


class TestSatisfies:
    def test_empty_fails_both_leading_rules(self):
        assert violated((), "V") == "V1"
        assert violated((), "W") == "W1"

    def test_first_violation_in_display_order(self):
        # passes V1/V2, fails V3 (an rx part sits below the top y layer) and
        # V7 as well; V3 is the one reported.
        counts = (("Y", 1, 3), ("Y", 2, 1), ("RX", 1, 1))
        assert violated(counts, "V") == "V3"
        # W side: passes W1-W3, fails W4 (an Ry part in layer 1).
        assert violated((("X", 1, 1), ("RY", 1, 1)), "W") == "W4"

    def test_single_y_part_satisfies_v(self):
        single = (("Y", 1, 1),)
        assert violated(single, "V") is None
        assert violated(single, "W") == "W1"
        # doubling the first-layer y part exhausts the window
        assert violated((("Y", 1, 2),), "V") == "V7"
        assert count_profile(FLAGSHIP, 1)["V"][1] == 1
        assert split_series(FLAGSHIP, 2)[0].coeff(1) == 1

    def test_systems_mutually_exclusive(self):
        for n in range(9):
            for counts in enumerate_partitions(n, FLAGSHIP):
                assert violated(counts, "V") is not None or violated(counts, "W") is not None

    def test_unknown_system(self):
        with pytest.raises(ValueError):
            violated((), "U")

    def test_r_one_empties_the_v_system(self):
        params = PartitionParams(5, 1, 2, 2, 1, 2)  # R == 1
        v_series, _ = split_series(params, 10)
        assert v_series.is_zero()
        assert not any(count_profile(params, 10)["V"])

    def test_r_one_empties_the_w_system(self):
        params = PartitionParams(5, 2, 1, 1, 3, 2)  # r == 1
        _, w_series = split_series(params, 10)
        assert w_series.is_zero()
        assert not any(count_profile(params, 10)["W"])


class TestEnumerate:
    def test_weight_one_unique(self):
        params = PartitionParams(10, 1, 2, 3, 2, 1)
        assert enumerate_partitions(1, params) == [(("X", 1, 1),)]

    def test_weight_zero_is_empty_partition(self):
        (only,) = enumerate_partitions(0, FLAGSHIP)
        assert only == ()
        assert weight(only, FLAGSHIP) == 0

    def test_equal_bases_stay_colored(self):
        params = PartitionParams(50, 1, 1, 3, 3, 1)
        listed = enumerate_partitions(2, params)
        assert listed == [
            (("X", 1, 1), ("Y", 1, 1)),
            (("X", 1, 2),),
            (("Y", 1, 2),),
            (("XY", 1, 1),),
        ]

    def test_duplicate_free_and_correct_weights(self):
        for n in range(9):
            listed = enumerate_partitions(n, FLAGSHIP)
            assert len(set(listed)) == len(listed)
            assert all(weight(counts, FLAGSHIP) == n for counts in listed)

    def test_totals_match_product_series(self):
        params = PartitionParams(5, 1, 2, 2, 2, 2)
        expected = totals(params, 12)
        for n in range(13):
            assert len(enumerate_partitions(n, params)) == expected[n]

    def test_cap(self):
        with pytest.raises(ResourceError, match=f"weight 41 exceeds the enumeration cap {MAX_ENUMERATED_WEIGHT}$"):
            enumerate_partitions(41, FLAGSHIP)
        sparse = PartitionParams(50, 20, 30, 1, 1, 1)
        with pytest.raises(ResourceError, match=f"enumeration cap {MAX_ENUMERATED_WEIGHT}$"):
            enumerate_partitions(MAX_ENUMERATED_WEIGHT + 1, sparse)
        assert len(enumerate_partitions(MAX_ENUMERATED_WEIGHT, sparse)) == 3

    def test_count_bound_is_checked_before_the_walk(self, monkeypatch):
        params = PartitionParams(5, 1, 2, 2, 2, 2)
        count = totals(params, 12)[12]
        monkeypatch.setattr(partitions, "MAX_ENUMERATED_PARTITIONS", count)
        assert len(enumerate_partitions(12, params)) == count
        monkeypatch.setattr(partitions, "MAX_ENUMERATED_PARTITIONS", count - 1)

        def refuse(*args):
            raise AssertionError("the count bound must be checked before the walk")

        monkeypatch.setattr(partitions, "_reachable", refuse)
        with pytest.raises(ResourceError, match=f"{count} partitions of weight 12 exceed the bound {count - 1}$"):
            enumerate_partitions(12, params)

    def test_kinds_above_the_weight_are_never_built(self):
        # layers 4 onwards of m = 5 are all heavier than 14
        small = PartitionParams(5, 1, 2, 2, 2, 3)
        large = PartitionParams(5, 1, 2, 2, 2, 10**4)
        for n in (0, 7, 14):
            assert _part_kinds(large, n) == _part_kinds(small, n)
            assert all(size <= n for _, _, size in _part_kinds(large, n))
            assert enumerate_partitions(n, large) == enumerate_partitions(n, small)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            enumerate_partitions(-1, FLAGSHIP)


class TestCounts:
    def test_weight_zero_counts_are_zero(self):
        profile = count_profile(FLAGSHIP, 0)
        assert (profile["V"][0], profile["W"][0]) == (0, 0)

    def test_profile_agrees_with_filtering(self):
        profile = count_profile(FLAGSHIP, 8)
        for n in range(9):
            listed = enumerate_partitions(n, FLAGSHIP)
            assert profile["totals"][n] == len(listed)
            for system in ("V", "W"):
                brute = sum(1 for counts in listed if violated(counts, system) is None)
                assert profile[system][n] == brute

    def test_colors_matter_when_sizes_collide(self):
        params = PartitionParams(50, 2, 2, 2, 2, 1)
        # six part kinds of sizes 2, 2, 4, 4, 4, 8; at weight 4 the colored
        # count is 6, far from the 2 partitions of 4 into plain sizes {2, 4}.
        assert totals(params, 4)[4] == 6
        assert len(enumerate_partitions(4, params)) == 6


class TestInterpretation:
    def test_flagship_counts_match_series(self):
        result = interpretation_check(FLAGSHIP, 16)
        assert result["ok"] and result["witness"] is None
        assert [row["n"] for row in result["rows"]] == list(range(17))
        assert all(row["match"] for row in result["rows"])

    def test_row_columns(self):
        (row,) = interpretation_check(FLAGSHIP, 0)["rows"]
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

    def test_tampered_series_yields_minimal_witness(self, monkeypatch):
        v_series, w_series = split_series(FLAGSHIP, 12)
        bumps = series_add(monomial(9, 12), monomial(11, 12))
        tampered = (series_add(v_series, bumps), w_series)
        monkeypatch.setattr(partitions, "split_series", lambda params, order: tampered)
        result = interpretation_check(FLAGSHIP, 12)
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

    def test_max_n_above_the_bound_is_refused_before_any_counting(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the bound must be checked before any counting")

        for name in ("count_profile", "split_series"):
            monkeypatch.setattr(partitions, name, refuse)
        with pytest.raises(ResourceError, match=f"^max_n 101 exceeds the interpret-check bound {MAX_INTERPRET_N}$"):
            interpretation_check(PartitionParams(1, 1, 1, 1, 1, 1), MAX_INTERPRET_N + 1)

    def test_the_bound_itself_is_admitted(self, monkeypatch):
        monkeypatch.setattr(partitions, "MAX_INTERPRET_N", 3)
        assert interpretation_check(FLAGSHIP, 3)["ok"]
        with pytest.raises(ResourceError, match="^max_n 4 exceeds the interpret-check bound 3$"):
            interpretation_check(FLAGSHIP, 4)
