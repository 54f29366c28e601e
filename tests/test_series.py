"""Series arithmetic: exactness, truncation semantics, product constructors."""

import random
from fractions import Fraction

import pytest

from oracles import partition_counts_upto, residue_parts
from qdominance.series import (
    INF,
    FactorFamily,
    OrderMismatchError,
    ProductSpec,
    QSeries,
    SingularSeriesError,
    deserialize,
    divide_binomial,
    divide_binomials,
    first_negative,
    multiply_binomial,
    multiply_binomials,
    pochhammer,
    poly_from_exponents,
    product_spec,
    serialize,
    series_mul,
    series_reciprocal,
    series_shift,
    series_sub,
    spec_reciprocal,
)


def S(*coeffs):
    return QSeries.from_coeffs(list(coeffs))


def rand_series(rng, order, unit=False):
    cs = [rng.randint(-4, 4) for _ in range(order + 1)]
    if unit:
        cs[0] = rng.choice([1, -1, 2])
    return QSeries.from_coeffs(cs, order)


class TestFromCoeffs:
    def test_integral_fraction_becomes_int(self):
        a = QSeries.from_coeffs([Fraction(4, 2), 1])
        assert a.coeffs == (2, 1)
        assert type(a.coeffs[0]) is int

    def test_mixed_list_is_normalized(self):
        a = QSeries.from_coeffs([1, Fraction(3, 1), Fraction(1, 2), 0])
        assert [type(c) for c in a.coeffs] == [int, int, Fraction, int]
        assert a.coeffs == (1, 3, Fraction(1, 2), 0)

    def test_all_int_list_is_kept_as_given(self):
        given = [10**30, -7, 0, 5]
        a = QSeries.from_coeffs(given)
        assert all(got is want for got, want in zip(a.coeffs, given))

    def test_padding_and_truncation(self):
        assert QSeries.from_coeffs([1, 2], 3).coeffs == (1, 2, 0, 0)
        assert QSeries.from_coeffs([1, Fraction(2), 3], 1).coeffs == (1, 2)


class TestShiftAndBinomials:
    def test_shift_moves_coefficients_up(self):
        assert series_shift(S(1, 2, 3, 4), 2) == S(0, 0, 1, 2)
        assert series_shift(S(1, 2), 0) == S(1, 2)
        assert series_shift(S(1, 2), 5).is_zero()
        with pytest.raises(ValueError):
            series_shift(S(1, 2), -1)

    def test_binomial_helpers_invert_each_other(self):
        rng = random.Random(5)
        a = rand_series(rng, 20)
        exps = [3, 1, 7, 30]
        assert divide_binomials(multiply_binomials(a, exps), exps) == a
        assert multiply_binomials(QSeries.one(12), exps) == poly_from_exponents(exps, 12)


class TestMul:
    def test_difference_of_squares(self):
        assert series_mul(S(1, 1, 0), S(1, -1, 0)) == S(1, 0, -1)

    def test_truncated_convolution(self):
        a = S(1, 1, 1, 1)
        b = S(1, 1, 0, 0)
        assert series_mul(a, b) == S(1, 2, 2, 2)

    def test_rational_scaling(self):
        a = QSeries.from_coeffs([Fraction(1, 2), Fraction(1, 2)])
        b = S(2, 0)
        assert series_mul(a, b) == S(1, 1)

    def test_order_mismatch_rejected(self):
        with pytest.raises(OrderMismatchError):
            series_mul(S(1, 0), S(1, 0, 0))

    def test_truncation_consistency(self):
        # the first N coefficients of a product never depend on higher terms
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(0, 12)
            a = rand_series(rng, 2 * n + 1)
            b = rand_series(rng, 2 * n + 1)
            full = series_mul(a, b)
            short = series_mul(
                QSeries.from_coeffs(a.coeffs[: n + 1], n),
                QSeries.from_coeffs(b.coeffs[: n + 1], n),
            )
            assert full.coeffs[: n + 1] == short.coeffs


class TestSub:
    def test_self_cancels(self):
        a = S(3, -1, 2)
        assert series_sub(a, a).is_zero()

    def test_basic(self):
        assert series_sub(S(1, 1), S(1, 0)) == S(0, 1)

    def test_infinite_product_difference_nonnegative(self):
        # parts congruent to 1,4 mod 5 dominate parts congruent to 2,3 mod 5
        n = 20
        lhs = partition_counts_upto(n, residue_parts([1, 4], 5, n))
        rhs = partition_counts_upto(n, residue_parts([2, 3], 5, n))
        diff = series_sub(QSeries.from_coeffs(lhs), QSeries.from_coeffs(rhs))
        assert first_negative(diff) is None


class TestReciprocal:
    def test_geometric(self):
        assert series_reciprocal(S(1, -1, 0, 0, 0, 0)) == S(1, 1, 1, 1, 1, 1)

    def test_parts_one_and_two(self):
        denom = poly_from_exponents([1, 2], 6)
        expected = partition_counts_upto(6, [1, 2])
        assert expected == [1, 1, 2, 2, 3, 3, 4]
        assert series_reciprocal(denom) == QSeries.from_coeffs(expected)

    def test_sparse_binomial(self):
        a = QSeries.monomial(0, 4)
        assert series_reciprocal(multiply_binomial(a, 5)) == S(1, 0, 0, 0, 0)

    def test_zero_constant_term_rejected(self):
        with pytest.raises(SingularSeriesError):
            series_reciprocal(S(0, 1, 0))

    def test_round_trip_on_random_units(self):
        rng = random.Random(11)
        for _ in range(60):
            a = rand_series(rng, rng.randint(0, 15), unit=True)
            prod = series_mul(a, series_reciprocal(a))
            assert prod == QSeries.one(a.order)

    def test_nonunit_constant(self):
        a = S(2, 1)
        b = series_reciprocal(a)
        assert b == QSeries.from_coeffs([Fraction(1, 2), Fraction(-1, 4)])


class TestBinomialShortcuts:
    def test_divide_binomial_matches_reciprocal(self):
        rng = random.Random(3)
        for _ in range(30):
            order = rng.randint(1, 20)
            e = rng.randint(1, order)
            a = rand_series(rng, order)
            via_recip = series_mul(
                a, series_reciprocal(poly_from_exponents([e], order))
            )
            assert divide_binomial(a, e) == via_recip

    def test_exponent_zero(self):
        assert multiply_binomial(S(1, 2), 0).is_zero()
        with pytest.raises(SingularSeriesError):
            divide_binomial(S(1, 2), 0)

    def test_exponent_beyond_order_is_identity(self):
        a = S(1, 2, 3)
        assert multiply_binomial(a, 9) == a
        assert divide_binomial(a, 9) == a


class TestPochhammer:
    def test_single_factor(self):
        assert pochhammer(product_spec([1], 1, 1), 3) == S(1, -1, 0, 0)

    def test_two_factor_expansion(self):
        spec = product_spec([1, 4], 5, 1)
        assert pochhammer(spec, 5) == S(1, -1, 0, 0, -1, 1)

    def test_infinite_reciprocal_counts_partitions(self):
        spec = product_spec([1, 4], 5, INF)
        got = spec_reciprocal(spec, 8)
        # parts congruent to 1,4 mod 5 that fit under the order: 1, 4, 6
        assert got == QSeries.from_coeffs([1, 1, 1, 1, 2, 2, 3, 3, 4])
        assert list(got.coeffs) == partition_counts_upto(8, [1, 4, 6])

    def test_inf_agrees_with_long_finite(self):
        spec_inf = product_spec([2, 3], 7, INF)
        spec_fin = product_spec([2, 3], 7, 30)
        assert pochhammer(spec_inf, 40) == pochhammer(spec_fin, 40)

    def test_empty_spec_is_one(self):
        assert pochhammer(ProductSpec(()), 5) == QSeries.one(5)

    def test_spec_reciprocal_matches_series_reciprocal(self):
        spec = product_spec([1, 2, 5], 3, 4)
        order = 25
        assert spec_reciprocal(spec, order) == series_reciprocal(
            pochhammer(spec, order)
        )

    def test_family_validation(self):
        with pytest.raises(ValueError):
            FactorFamily(0, 5, 1)
        with pytest.raises(ValueError):
            FactorFamily(1, 0, 1)
        with pytest.raises(ValueError):
            FactorFamily(1, 5, 0)
        with pytest.raises(ValueError):
            FactorFamily(True, 5, 2)
        with pytest.raises(ValueError):
            product_spec((1.5,), 5, 2)
        with pytest.raises(ValueError):
            product_spec((1,), 5, 2.0)


class TestFirstNegative:
    def test_finds_minimal_index(self):
        assert first_negative(S(1, 0, -1)) == (2, -1)

    def test_none_for_nonnegative(self):
        assert first_negative(S(1, 1, 1, 1)) is None

    def test_fractional(self):
        a = QSeries.from_coeffs([1, Fraction(-1, 2)])
        assert first_negative(a) == (1, Fraction(-1, 2))


class TestSerialization:
    def test_round_trip(self):
        a = QSeries.from_coeffs([1, Fraction(-3, 2), 0, 7])
        assert deserialize(serialize(a)) == a

    def test_format(self):
        a = QSeries.from_coeffs([1, Fraction(1, 2)])
        assert serialize(a) == "0: 1\n1: 1/2"

    def test_random_round_trips(self):
        rng = random.Random(5)
        for _ in range(25):
            cs = [
                Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                for _ in range(rng.randint(1, 12))
            ]
            a = QSeries.from_coeffs(cs)
            assert deserialize(serialize(a)) == a
