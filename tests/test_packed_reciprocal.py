"""The packed reciprocal kernel against the list kernel and forward substitution.

`reciprocal_from_exponents` holds the expansion as one int with B-bit
slots (`series._Signed`), B taken from a bound proven before the
expansion.  These tests compare it with `divide_binomials` (the list
kernel, kept in the tests as its oracle) and with `series_reciprocal` of
the expanded product, and check that every bound behind B holds the
largest coefficient.  The pair form, `_Signed.reciprocal_pair` in the
slots of `_Signed.for_reciprocals`, applies the factors two lists share
once, at the width of the wider side; both sides and their difference
are checked against the list kernel over every shape of overlap.  The
pair is expanded in stages of growing slot width: it is checked against
`divide`, every factor doubled at full width, and each stage's width
against the largest coefficient of its prefix product, and the pairs
`dominates` expands for small-order checks are pinned under the
one-stage cut.
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
    exponents,
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
    factors = exponents(spec, order)
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
    sides = [exponents(P, order), exponents(Q, order)]
    shared, rests = series._split_shared(*sides)
    assert (len(shared), len(rests[0]), len(rests[1])) == (97, 8, 8)
    packing = series._Signed.for_reciprocals(order, *sides)
    a, b = packing.reciprocal_pair(*sides)
    got = packing.decode(a), packing.decode(b), packing.decode(a - b)
    assert got == list_pair(*sides, order)
    assert packing.bits > max(map(max_bits, got))


def full_width_pair(packing, first, second):
    """The pair as `divide` gives it: every factor doubled in the packing's own slots."""
    order = packing.order
    shared, (a, b) = series._split_shared(series._factors(first, order), series._factors(second, order))
    x = packing.divide(1, shared)
    return packing.divide(x, a), packing.divide(x, b)


def pair_plan(packing, first, second):
    """The stages `reciprocal_pair` runs for the pair in the packing's slots."""
    order = packing.order
    return series._pair_stages(series._factors(first, order), series._factors(second, order), order, packing.bits // 8)


@st.composite
def staged_pairs(draw):
    """(first, second, order, bits): pairs on both sides of the one-stage
    cut, in the slots `for_reciprocals` proves or in narrower ones."""
    first, second, order = draw(exponent_pairs())
    order = draw(st.one_of(st.just(order), st.integers(150, 700)))
    bits = series._Signed.for_reciprocals(order, first, second).bits
    return first, second, order, draw(st.sampled_from((bits, 8, 24)))


@settings(max_examples=150, deadline=None)
@given(staged_pairs())
@example(([1] * 8 + [2] * 6, [1] * 8, 227, 80))
@example(([1] * 12, [1, 2, 3], 2100, 8))
@example(([], [1, 1, 2, 700], 600, 64))
@example(([5, 5, 5, 3], [5, 5, 9, 9, 9, 701], 700, 48))
def test_staged_pair_matches_full_width_doubling(case):
    # Every narrow stage is exact, so the staged pair is the residue that
    # doubling every factor at the packing's width gives, even in slots too
    # narrow for the series, where both wrap.
    first, second, order, bits = case
    packing = series._Signed(order, bits)
    staged, full = packing.reciprocal_pair(first, second), full_width_pair(packing, first, second)
    assert [x & packing.mask for x in staged] == [x & packing.mask for x in full]
    if bits == series._Signed.for_reciprocals(order, first, second).bits:
        assert staged == full


def test_side_stages_count_the_shared_least_exponent():
    # Side one's factors, 2, are larger than the shared ones, 1, so its
    # bound takes k = order // 1 from the shared factors; k = order // 2
    # would plan slots too narrow for its prefix products.
    first, second, order = [1] * 8 + [2] * 6, [1] * 8, 227
    packing = series._Signed.for_reciprocals(order, first, second)
    (_, shared), (_, side), _ = pair_plan(packing, first, second)
    assert len(shared) + len(side) >= 3
    assert side == [(3, 8), (6, 10)]
    assert packing.reciprocal_pair(first, second) == full_width_pair(packing, first, second)


def apply_stages(x, width, factors, stages, top):
    """x times 1/(1 - q^e) over the factors, by the list kernel, checking
    each stage's slots against the product of every factor applied by its
    end; (the product, the last stage's width)."""
    start = 0
    for end, size in stages:
        # stages widen at least twofold, up to the packing's width
        assert width <= size <= top and (size in (width, top) or size >= 2 * width)
        x = divide_binomials(x, factors[start:end])
        assert max_bits(x) <= 8 * size, (factors, stages)
        start, width = end, size
    return x, width


def test_every_stage_holds_its_prefix_product():
    # Each part starts where the shared factors end, and each side ends in
    # the packing's own slots.
    rng = random.Random(35)
    staged = 0
    for _ in range(40):
        order = rng.randrange(100, 500)
        pool = rng.choice((6, 30, order + 40))
        shared = [rng.randint(1, pool) for _ in range(rng.randrange(0, 10))]
        first = shared + [rng.randint(1, pool) for _ in range(rng.randrange(0, 10))]
        second = shared + [rng.randint(1, pool) for _ in range(rng.randrange(0, 10))]
        packing = series._Signed.for_reciprocals(order, first, second)
        top = packing.bits // 8
        (shared, stages), *sides = pair_plan(packing, first, second)
        x, width = apply_stages(one_series(order), 0, shared, stages, top)
        for side, side_stages in sides:
            apply_stages(x, width, side, side_stages, top)
            assert side_stages[-1][1] == top
        staged += len(stages) + len(sides[0][1]) > 1
    assert staged >= 30


@pytest.mark.parametrize(
    "ineq, params, order",
    [
        ("BGa", {"m": 8, "r": 3, "L": 115}, 1356),
        ("Thm2", {"L": 33, "m": 3, "x": 4, "y": 4, "z": 4, "r": 1, "R": 2, "rho": 2}, 1467),
        ("Proposal", {"L": 21, "m": 1, "xs": (1, 2, 3, 2), "rs": (2, 1, 2, 1)}, 1453),
    ],
)
def test_deep_dump_pairs_are_staged(ineq, params, order):
    # the pairs of the check-bga-deep-dump, check-thm2-deep-dump and
    # check-proposal-n4-deep-dump goldens; CI times the Thm2 check
    P, Q = dominance.build_specs(dominance.NamedInequality(ineq, params))
    sides = exponents(P, order), exponents(Q, order)
    packing = series._Signed.for_reciprocals(order, *sides)
    (_, shared), *rest = pair_plan(packing, *sides)
    assert all(len(shared) + len(stages) >= 2 for _, stages in rest)


def dominates_plans(monkeypatch, ineq, params, order):
    """[(series bytes, stages per part)] of every pair `dominates` expands for the check."""
    plan_of, plans = series._pair_stages, []

    def recorded(first, second, order, top):
        plan = plan_of(first, second, order, top)
        plans.append(((order + 1) * top, [len(stages) for _, stages in plan]))
        return plan

    monkeypatch.setattr(series, "_pair_stages", recorded)
    dominance.dominates(*dominance.build_specs(dominance.NamedInequality(ineq, params)), order)
    return plans


@pytest.mark.parametrize("R", range(1, 5))
@pytest.mark.parametrize("rho", range(1, 5))
def test_split_sweep_walks_take_one_stage(R, rho, monkeypatch):
    # The CI split sweep's Thm2 pairs, checked by `dominates` as `check`
    # would: at order 60 the series is under _STAGED_BYTES and every part
    # takes one stage; at order 400 it is over, and the shared part is staged.
    params = {"L": 4, "m": 2, "x": 1, "y": 1, "z": 2, "r": 2, "R": R, "rho": rho}
    [(size, stages)] = dominates_plans(monkeypatch, "Thm2", params, 60)
    assert size < series._STAGED_BYTES and stages == [1, 1, 1]
    [(size, stages)] = dominates_plans(monkeypatch, "Thm2", params, 400)
    assert size >= series._STAGED_BYTES and stages[0] >= 2


@pytest.mark.parametrize(
    "ineq, params, order",
    [
        ("RR", {}, 20),
        ("Thm1", {"L": 2, "m": 2, "x": 1, "y": 2, "r": 2, "R": 2}, 60),
        ("Proposal", {"L": 2, "m": 1, "xs": (1, 2, 3, 2), "rs": (2, 1, 2, 1)}, 100),
    ],
)
def test_small_check_pairs_take_one_stage(ineq, params, order, monkeypatch):
    # Staging these pairs made `dominates` 1.2 to 2.8 times slower.
    [(size, stages)] = dominates_plans(monkeypatch, ineq, params, order)
    assert size < series._STAGED_BYTES and stages == [1, 1, 1]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2000), st.integers(1, 320))
def test_bias_is_the_division_formula(order, bits):
    packing = series._Signed(order, bits)
    B = packing.bits
    assert packing.bias == packing.mask // ((1 << B) - 1) << (B - 1)


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
    # The bound lists exactly the exponents it counts, and counts each one.
    spec = product_spec(bases, modulus, length)
    listed = exponents(spec, order)
    assert require_series_work((spec,), order) == [listed]
    work = (order + 1) * (1 + len(listed))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(series, "MAX_SERIES_WORK", work)
        assert require_series_work((spec,), order) == [listed]
        mp.setattr(series, "MAX_SERIES_WORK", work - 1)
        with pytest.raises(ResourceError):
            require_series_work((spec,), order)


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
