"""The packed reciprocal kernel against the list kernel and forward substitution.

`reciprocal_from_exponents` holds the expansion as one int with B-bit
slots (`series._Signed`), B taken from a bound proven before the
expansion.  These tests compare it with `divide_binomials` (the list
kernel, kept in the tests as its oracle) and with `series_reciprocal` of
the expanded product, and check that every bound behind B holds the
largest coefficient.  The pair form, `_Signed.reciprocal_pair` in the
slots of `_Signed.for_reciprocals`, applies the factors two lists share
once, at the width of the wider side; both sides and their difference
are checked against the list kernel over every shape of overlap.
"""

import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qdominance import dominance, series
from qdominance.series import (
    INF,
    MAX_SERIES_WORK,
    QSeries,
    ResourceError,
    SingularSeriesError,
    product_spec,
    reciprocal_from_exponents,
    require_series_work,
)
from reference_series import (
    divide_binomials,
    one_series,
    poly_from_exponents,
    series_reciprocal,
    series_sub,
    spec_reciprocal,
)

orders = st.integers(0, 300)
# Exponents up to 320 reach past every order; a pool of six forces repeats.
exponent_lists = st.one_of(
    st.lists(st.integers(1, 320), max_size=12),
    st.lists(st.integers(1, 6), max_size=12),
)


def max_bits(a: QSeries) -> int:
    return max(c.bit_length() for c in a.coeffs)


def width(order: int, *exponent_lists) -> int:
    return series._Signed.for_reciprocals(order, *exponent_lists).bits


@settings(max_examples=150, deadline=None)
@given(exponent_lists, orders)
@example([], 0)
@example([], 300)
@example([1] * 12, 300)
@example([301, 320], 300)
@example([1, 1, 2], 0)
def test_packed_kernel_matches_list_kernel(exponents, order):
    got = reciprocal_from_exponents(exponents, order)
    assert got == divide_binomials(one_series(order), exponents)
    assert all(type(c) is int for c in got.coeffs)


@settings(max_examples=40, deadline=None)
@given(exponent_lists, orders)
@example([], 300)
@example([2, 2, 3, 300], 300)
def test_packed_kernel_matches_forward_substitution(exponents, order):
    want = series_reciprocal(poly_from_exponents(exponents, order))
    assert reciprocal_from_exponents(exponents, order) == want


@settings(max_examples=150, deadline=None)
@given(exponent_lists, orders, st.integers(2, 2**32))
@example([1] * 12, 300, 2)
@example([1, 2, 3, 4, 5, 6], 300, 2**32)
def test_every_bound_holds_the_largest_coefficient(exponents, order, t):
    # The saddle bound is sound at every t, which is what lets `_coeff_bits`
    # evaluate it once instead of searching for the best t.
    factors = [e for e in exponents if e <= order]
    assume(factors)
    largest = max_bits(divide_binomials(one_series(order), factors))
    assert series._product_bits(factors, order) >= largest
    assert series._coeff_bits(factors, order) >= largest
    ordered = sorted(factors)
    start = series._saddle_start(ordered, order)
    assert series._saddle_bound(ordered, order, start).bit_length() >= largest
    assert series._saddle_bound(ordered, order, t).bit_length() >= largest
    slot = width(order, factors)
    assert slot % 8 == 0 and slot > largest


def test_deep_expansion_takes_its_width_from_the_saddle_bound():
    # BGa (m, r) = (8, 3) at L = 115: 230 factors, order 1356
    spec = product_spec((1, 7), 8, 115)
    order = 1356
    factors = spec.exponents(order)
    got = spec_reciprocal(spec, order)
    assert got == divide_binomials(one_series(order), factors)
    slot = width(order, factors)
    assert series._product_bits(factors, order) > 600
    assert max_bits(got) < slot <= max_bits(got) + 16


OVERLAPS = ("identical", "disjoint", "nested", "one side empty", "one side above the order", "mixed")


@st.composite
def exponent_pairs(draw):
    """(first, second, order) with the two lists overlapping as the drawn shape says."""
    order = draw(orders)
    shape = draw(st.sampled_from(OVERLAPS))
    shared, own, other = draw(exponent_lists), draw(exponent_lists), draw(exponent_lists)
    if shape == "identical":
        first, second = shared, list(shared)
    elif shape == "disjoint":
        first, second = own, [e for e in other if e not in own]
    elif shape == "nested":
        first, second = shared + own, shared
    elif shape == "one side empty":
        first, second = own, []
    elif shape == "one side above the order":
        first, second = shared + own, [order + e for e in shared + other]
    else:
        first, second = own + shared, shared + other
    if draw(st.booleans()):
        first, second = second, first
    return first, second, order


def pair_examples(test):
    # The sides' widths differ by 64 bits, so the narrower one cannot hold
    # the wider side; nesting leaves one side with no leftover factors.
    test = example(([1] * 12, [1], 300))(test)
    test = example(([1], [1] * 12, 300))(test)
    test = example(([2, 3, 5], [2, 3, 5], 200))(test)
    test = example(([1, 2, 3, 4], [1, 4], 250))(test)
    test = example(([], [1, 1, 2], 100))(test)
    return test


def list_pair(first, second, order):
    """(1/first, 1/second, their difference), each side by the list kernel."""
    sides = [divide_binomials(one_series(order), side) for side in (first, second)]
    return (*sides, series_sub(*sides))


@settings(max_examples=150, deadline=None)
@given(exponent_pairs())
@pair_examples
def test_pair_kernel_matches_list_kernel(pair):
    first, second, order = pair
    packing = series._Signed.for_reciprocals(order, first, second)
    a, b = packing.reciprocal_pair(first, second)
    got = packing.decode(a), packing.decode(b), packing.decode(a - b)
    assert got == list_pair(first, second, order)
    assert all(type(c) is int for side in got for c in side.coeffs)


@settings(max_examples=150, deadline=None)
@given(exponent_pairs())
@pair_examples
def test_pair_widths_hold_both_sides(pair):
    first, second, order = pair
    sides = [[e for e in side if e <= order] for side in (first, second)]
    shared, rests = series._split_shared(*sides)
    for side, rest in zip(sides, rests):
        assert sorted(shared + rest) == sorted(side)
    assert not set(rests[0]) & set(rests[1])
    bits = width(order, first, second)
    assert bits % 8 == 0
    # read through a bias of 2^(B-1), so every |coefficient| must be below it
    assert bits > max(map(max_bits, list_pair(first, second, order)))
    assert bits == max(width(order, side) for side in sides)


def test_pair_width_is_the_wider_sides_own():
    # The sides need widths 64 bits apart (80 and 16, the wider from the
    # saddle bound); the pair takes the wider one.
    narrow, wide = width(300, [1]), width(300, [1] * 12)
    assert wide - narrow == 64
    assert width(300, [1] * 12, [1]) == width(300, [1], [1] * 12) == wide


def test_pair_shares_the_common_factors_of_a_deep_proposal():
    # Proposal n = 4 (L, m) = (21, 1): 97 of the 105 factors of each side are shared.
    P, Q = dominance.nbase_pair((1, 2, 3, 2), (2, 1, 2, 1), 1, 21)
    order = 1453
    sides = [P.exponents(order), Q.exponents(order)]
    shared, rests = series._split_shared(*sides)
    assert (len(shared), len(rests[0]), len(rests[1])) == (97, 8, 8)
    packing = series._Signed.for_reciprocals(order, *sides)
    a, b = packing.reciprocal_pair(*sides)
    got = packing.decode(a), packing.decode(b), packing.decode(a - b)
    assert got == list_pair(*sides, order)
    assert packing.bits > max(map(max_bits, got))


@pytest.mark.parametrize(
    "first, second, order, error",
    [
        ([0], [1, 2], 5, SingularSeriesError),
        ([1, 2], [0], 5, SingularSeriesError),
        ([3], [5, 0], 4, SingularSeriesError),
        ([2], [-1], 6, ValueError),
        ([-1, 2], [2], 6, ValueError),
    ],
)
def test_pair_refuses_bad_exponents_before_packing(first, second, order, error, monkeypatch):
    def refuse(*args):
        raise AssertionError("the exponents must be checked before anything is packed")

    monkeypatch.setattr(series, "_double", refuse)
    with pytest.raises(error):
        series._Signed.for_reciprocals(order, first, second)
    with pytest.raises(error):
        series._Signed(order, 8).reciprocal_pair(first, second)


@pytest.mark.parametrize("exponents, order", [([0], 5), ([3, 0], 0), ([9, 0], 4)])
def test_exponent_zero_is_singular(exponents, order):
    with pytest.raises(SingularSeriesError):
        reciprocal_from_exponents(exponents, order)


def test_negative_exponent_is_refused():
    with pytest.raises(ValueError):
        reciprocal_from_exponents([2, -1], 6)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(1, 60), max_size=6),
    st.integers(1, 30),
    st.one_of(st.just(INF), st.integers(1, 12)),
    st.integers(0, 200),
)
def test_factor_count_counts_the_exponents(bases, modulus, length, order):
    spec = product_spec(bases, modulus, length)
    assert spec.factor_count(order) == len(spec.exponents(order))


def test_series_work_guard_at_the_bound():
    # A base above the order puts no factor under it: the work is order + 1.
    far = product_spec((10 * MAX_SERIES_WORK,), 1, INF)
    require_series_work((far,), MAX_SERIES_WORK - 1)
    with pytest.raises(ResourceError, match=rf"\(1 \+ factors\) = {MAX_SERIES_WORK + 1} exceeds the bound {MAX_SERIES_WORK}$"):
        require_series_work((far,), MAX_SERIES_WORK)
    # Unbounded with modulus 1, `order` factors: the work is (order + 1)^2.
    dense = product_spec((1,), 1, INF)
    side = 3161  # 3162^2 <= MAX_SERIES_WORK < 3163^2
    require_series_work((dense,), side)
    with pytest.raises(ResourceError, match=rf"\(1 \+ factors\) = {(side + 2) ** 2} exceeds the bound {MAX_SERIES_WORK}$"):
        require_series_work((dense,), side + 1)


@pytest.mark.parametrize("width", range(1, 10))
def test_slot_reads_match_the_byte_loop(width, monkeypatch):
    # Widths of 1, 2, 4 and 8 bytes are read by one memoryview cast on a
    # little-endian host; every width must read what the per-slot loop reads.
    rng = random.Random(width)
    bits = 8 * width
    cases = [(order, rng.getrandbits((order + 1) * bits)) for order in (0, 1, 7, 60, 300)]
    cases.append((5, (1 << 6 * bits) - 1))
    fast = [series._slots(x, order, bits) for order, x in cases]
    monkeypatch.setattr(series, "_CAST_FORMATS", {})
    assert fast == [series._slots(x, order, bits) for order, x in cases]
    for (order, x), slots in zip(cases, fast):
        assert sum(c << n * bits for n, c in enumerate(slots)) == x
