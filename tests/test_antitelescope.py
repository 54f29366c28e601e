"""Telescoping addends and their positivity splits."""

from fractions import Fraction

import pytest

from qdominance import antitelescope
from qdominance.antitelescope import decompositions, positivity_scan, split_identity_sides
from qdominance.dominance import nbase_pair
from qdominance.polyring import MultiPoly, RationalTerm, _Form, decide_identity, identity_check
from qdominance.series import QSeries, product_spec
from reference_lemma import expand_rational
from reference_polyring import four_factor_identity_sides, mono, mp_add, mp_mul, mp_sub, three_factor_identity_sides
from reference_series import (
    divide_binomial,
    exponents,
    first_negative,
    monomial,
    multiply_binomial,
    poly_from_exponents,
    series_mul,
    series_reciprocal,
    series_scale,
    series_sub,
    spec_reciprocal,
    specialize,
)
from reference_split import denominator_exponents, layer_exponents, thm_pair


def finite_rr_pair(L):
    return product_spec((1, 4), 5, L), product_spec((2, 3), 5, L)


def addends(P, Q, order):
    return [dec.addend for dec in decompositions(P, Q, order)]


def split_at(values, i, order):
    """Index i of the engine's walk over a Thm1/Thm2 tuple, groups at true value."""
    split = "thm1" if len(values) == 6 else "thm2"
    return list(decompositions(*thm_pair(values), order, split))[i - 1].unscaled()


def sum_series(items):
    total = items[0]
    for s in items[1:]:
        total = QSeries.from_coeffs(
            [a + b for a, b in zip(total.coeffs, s.coeffs)], total.order
        )
    return total


class TestProductFamily:
    """A length-L ProductSpec is the family of products P(0) .. P(L)."""

    def test_base_validation(self):
        with pytest.raises(ValueError):
            product_spec((0, 2), 5, 2)
        with pytest.raises(ValueError):
            product_spec((1,), 0, 2)

    def test_spec_zero_is_empty(self):
        P, _ = finite_rr_pair(2)
        assert layer_exponents(P, 0, 0) == []

    def test_layers_partition_the_spec(self):
        _, Q = finite_rr_pair(3)
        full = sorted(exponents(Q, 100))
        layered = sorted(
            layer_exponents(Q, 0, 1) + layer_exponents(Q, 1, 2) + layer_exponents(Q, 2, 3)
        )
        assert full == layered == sorted(layer_exponents(Q, 0, 3))

    def test_denominator_exponents(self):
        P, Q = finite_rr_pair(2)
        # P(2) * Q(2)/Q(1): P layers 0,1 plus Q layer 1
        assert sorted(denominator_exponents(P, Q, 2, 2)) == sorted(
            [1, 4, 6, 9, 7, 8]
        )


class TestEngineInputs:
    @pytest.mark.parametrize(
        "P, Q",
        [
            (product_spec((1, 4), 5), product_spec((2, 3), 5)),
            (product_spec((1, 4), 5, 2), product_spec((2, 3), 5)),
            (product_spec((1, 4), 5, 2), product_spec((2, 3), 5, 3)),
            (product_spec((1, 4), 5, 2), product_spec((2, 3), 6, 2)),
            (product_spec((), 5, 2), product_spec((), 5, 2)),
        ],
        ids=["infinite", "one-infinite", "lengths-differ", "moduli-differ", "empty"],
    )
    def test_engine_refuses_pairs_without_one_modulus_and_length(self, P, Q):
        with pytest.raises(ValueError, match="one shared modulus and length"):
            next(decompositions(P, Q, 10))
        with pytest.raises(ValueError, match="one shared modulus and length"):
            positivity_scan(P, Q, 10)


class TestAddend:
    def test_index_validation(self):
        """The walk yields indices 1..L and nothing outside them."""
        for L in (1, 2, 5):
            indices = [dec.index for dec in decompositions(*finite_rr_pair(L), 10)]
            assert indices == list(range(1, L + 1))

    def test_first_addend_closed_form(self):
        n = 20
        L = 2
        P, Q = finite_rr_pair(L)
        direct = addends(P, Q, n)[0]
        numerator = series_sub(
            poly_from_exponents(layer_exponents(Q, 0, 1), n),
            poly_from_exponents(layer_exponents(P, 0, 1), n),
        )
        denominator = series_mul(
            poly_from_exponents(layer_exponents(P, 0, 1), n),
            poly_from_exponents(exponents(Q, n), n),
        )
        assert direct == series_mul(numerator, series_reciprocal(denominator))

    def test_documented_negative_addend(self):
        second = addends(*finite_rr_pair(2), 10)[1]
        assert second.coeff(6) == 1
        assert second.coeff(7) == 0
        assert second.coeff(8) == -1
        assert first_negative(second) == (8, -1)

    def test_telescoping_identity(self):
        n = 25
        for L in (1, 2, 3):
            P, Q = finite_rr_pair(L)
            total = sum_series(addends(P, Q, n))
            want = series_sub(spec_reciprocal(P, n), spec_reciprocal(Q, n))
            assert total == want

    def test_telescoping_identity_four_bases(self):
        n = 30
        P, Q = thm_pair((3, 3, 1, 1, 1, 2, 2, 2))
        total = sum_series(addends(P, Q, n))
        want = series_sub(spec_reciprocal(P, n), spec_reciprocal(Q, n))
        assert total == want

    def test_integer_coefficients(self):
        for series in addends(*thm_pair((2, 5, 1, 1, 2, 2)), 30):
            assert all(isinstance(c, int) for c in series.coeffs)


class TestThm1Split:
    def test_group_sum_and_positivity(self):
        params = (2, 5, 1, 1, 2, 2)
        for i in (1, 2):
            dec = split_at(params, i, 30)
            assert [name for name, _ in dec.groups] == ["V", "W"]
            assert sum_series([g for _, g in dec.groups]) == dec.addend
            for _, g in dec.groups:
                assert first_negative(g) is None
                assert all(isinstance(c, int) for c in g.coeffs)

    def test_t_exponent(self):
        assert split_at((2, 5, 1, 1, 2, 2), 2, 10).t_exponent == 5
        assert split_at((2, 5, 1, 1, 2, 2), 1, 10).t_exponent == 0

    def test_r_one_kills_w(self):
        dec = split_at((2, 3, 1, 2, 1, 2), 1, 20)
        groups = dict(dec.groups)
        assert groups["W"].is_zero()
        assert groups["V"] == dec.addend

    def test_big_r_one_kills_v(self):
        dec = split_at((2, 3, 1, 2, 2, 1), 1, 20)
        groups = dict(dec.groups)
        assert groups["V"].is_zero()
        assert groups["W"] == dec.addend

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            nbase_pair((1, 1), (2,), 5, 2)
        with pytest.raises(ValueError):
            nbase_pair((0, 1), (2, 2), 5, 2)
        with pytest.raises(ValueError):
            nbase_pair((1, 1.5), (2, 2), 5, 2)


class TestThm2Split:
    def test_first_index_three_groups(self):
        dec = split_at((1, 2, 1, 1, 1, 2, 2, 2), 1, 20)
        assert [name for name, _ in dec.groups] == ["G1", "G2", "G3"]
        assert sum_series([g for _, g in dec.groups]) == dec.addend
        for _, g in dec.groups:
            assert first_negative(g) is None

    def test_later_index_four_groups(self):
        dec = split_at((2, 3, 1, 1, 1, 2, 2, 2), 2, 30)
        assert [name for name, _ in dec.groups] == ["G1", "G2", "G3", "G4"]
        assert sum_series([g for _, g in dec.groups]) == dec.addend
        for _, g in dec.groups:
            assert first_negative(g) is None

    def test_half_integral_coefficients(self):
        dec = split_at((2, 3, 1, 2, 1, 2, 3, 2), 2, 25)
        for _, g in dec.groups:
            for c in g.coeffs:
                assert isinstance(c, int) or c.denominator == 2
        assert all(isinstance(c, int) for c in dec.addend.coeffs)

    def test_rho_one_kills_g3_g4(self):
        dec = split_at((2, 2, 1, 1, 1, 2, 2, 1), 2, 20)
        groups = dict(dec.groups)
        assert groups["G3"].is_zero()
        assert groups["G4"].is_zero()

    def test_g4_matches_kernel_specialization(self):
        # Rebuild G4 through the two-variable kernel: expand
        #   [(1-xy)(1-t x^r)(1-t y^R) + (1-t^2)(x-x^r)(y-y^R)]
        #     / ((1-t x^r)(1-t y^R)(1-x)(1-y)(1-tx)(1-ty))
        # on the (t, x, y) lattice, substitute q-powers, and divide by the
        # leftover denominator factors.
        L, m, x, y, z, r, R, rho = 2, 3, 1, 2, 1, 2, 3, 2
        i, n = 2, 18
        t = (i - 1) * m

        v = ("t", "x", "y")

        def mm(coeff=1, **exps):
            return mono(v, coeff, **exps)

        def b1(**exps):
            return mp_sub(mm(), mm(**exps))

        numerator = mp_add(
            mp_mul(b1(x=1, y=1), b1(t=1, x=r), b1(t=1, y=R)),
            mp_mul(b1(t=2), mp_sub(mm(x=1), mm(x=r)), mp_sub(mm(y=1), mm(y=R))),
        )
        factors = (b1(t=1, x=r), b1(t=1, y=R), b1(x=1), b1(y=1), b1(t=1, x=1), b1(t=1, y=1))
        bounds = (n // t, n // x, n // y)
        tri = expand_rational(RationalTerm(numerator, factors), bounds)
        kernel = specialize(tri, t, x, y, n)

        P, Q = nbase_pair((x, y, z), (r, R, rho), m, L)
        denominator = denominator_exponents(P, Q, i, L)
        for used in (x, y, t + x, t + y, t + r * x, t + R * y):
            denominator.remove(used)
        lead = multiply_binomial(monomial(t + z, n), (rho - 1) * z)
        rebuilt = series_mul(lead, kernel)
        # what is left in the denominator includes (1-t q^rho.z)(1-q^z)(1-t q^z)
        for e in denominator:
            rebuilt = divide_binomial(rebuilt, e)
        rebuilt = series_scale(rebuilt, Fraction(1, 2))

        dec = split_at((L, m, x, y, z, r, R, rho), i, n)
        assert dict(dec.groups)["G4"] == rebuilt


class TestPositivityScan:
    def test_plain_scan_flags_documented_failure(self):
        report = positivity_scan(*finite_rr_pair(2), 20, split="none")
        assert report["all_nonnegative"] is False
        assert report["rows"][0]["addend"] is None
        assert report["rows"][1]["addend"] == (8, -1)

    def test_thm1_scan_clean(self):
        report = positivity_scan(*thm_pair((2, 5, 1, 1, 2, 2)), 60, split="thm1")
        assert report["all_nonnegative"] is True
        for row in report["rows"]:
            assert row["addend"] is None
            assert set(row["groups"]) == {"V", "W"}
            assert all(v is None for v in row["groups"].values())

    def test_thm2_scan_clean(self):
        report = positivity_scan(*thm_pair((2, 3, 1, 1, 1, 2, 2, 2)), 60, split="thm2")
        assert report["all_nonnegative"] is True
        assert set(report["rows"][0]["groups"]) == {"G1", "G2", "G3"}
        assert set(report["rows"][1]["groups"]) == {"G1", "G2", "G3", "G4"}

    def test_split_requires_matching_families(self):
        P, Q = finite_rr_pair(2)
        with pytest.raises(ValueError):
            positivity_scan(P, Q, 20, split="thm1")
        with pytest.raises(ValueError):
            positivity_scan(P, Q, 20, split="weird")

    def test_structural_divisibility(self):
        L = 3
        P, Q = thm_pair((L, 3, 1, 1, 1, 2, 2, 2))
        for i in range(1, L + 1):
            t = (i - 1) * 3
            q_tail = layer_exponents(Q, i - 1, L)
            for e in (t + 2, t + 2, t + 2):  # t q^rx, t q^Ry, t q^rho.z
                assert e in q_tail
            p_list = layer_exponents(P, 0, i)
            for e in (1, 1, 1, t + 1, t + 1, t + 1):
                assert e in p_list


# --- the numerator identity ----------------------------------------------------


def times(p: MultiPoly, k: int, t_zero: bool = False) -> MultiPoly:
    """k * p, with T = q^t set to q^0 = 1 when t_zero."""
    terms = {}
    for exps, c in p.terms.items():
        if t_zero:
            exps = (0, *exps[1:])
        terms[exps] = terms.get(exps, 0) + k * c
    return MultiPoly(p.variables, terms)


def drop_first_binomial(numerators):
    def patched(values, t):
        (name, [(lead, exps), *more]), *rest = numerators(values, t)
        return ((name, [(lead, exps[1:]), *more]), *rest)

    return patched


def move_first_lead(numerators):
    def patched(values, t):
        (name, [(lead, exps), *more]), *rest = numerators(values, t)
        return ((name, [(lead + values[0], exps), *more]), *rest)

    return patched


# the sides of each split's row of the identity table
ROWS = {
    split: dict(antitelescope.IDENTITIES)[name]
    for split, name in (("thm1", "three-factor-difference"), ("thm2", "four-factor-difference"))
}


class TestSplitIdentity:
    """The split numerators the walk uses, read as polynomials, against the
    hand transcriptions in `reference_polyring`."""

    @pytest.mark.parametrize(
        "split, hand, scale", [("thm1", three_factor_identity_sides, 1), ("thm2", four_factor_identity_sides, 2)]
    )
    def test_sides_equal_the_hand_transcription(self, split, hand, scale):
        hand_lhs, hand_rhs = hand()
        (zero_lhs, zero_rhs), generic = split_identity_sides(split)
        assert generic == ([RationalTerm(times(hand_lhs, scale))], [RationalTerm(times(hand_rhs, scale))])
        # t = 0: the hand form at T = 1; the index-1 groups regroup the same sum
        assert zero_lhs == zero_rhs == [RationalTerm(times(hand_lhs, scale, t_zero=True))]

    @pytest.mark.parametrize("split", ["thm1", "thm2"])
    def test_identity_holds(self, split):
        assert decide_identity(ROWS[split]).equal

    @pytest.mark.parametrize(
        "split, perturb", [("thm2", drop_first_binomial), ("thm1", move_first_lead), ("thm1", drop_first_binomial)]
    )
    def test_a_perturbed_numerator_is_refused_at_both_t(self, split, perturb, monkeypatch):
        n, numerators, scale = antitelescope._SPLITS[split]
        monkeypatch.setitem(antitelescope._SPLITS, split, (n, perturb(numerators), scale))
        for t, (lhs, rhs) in zip(("zero", "generic"), split_identity_sides(split)):
            assert not identity_check(lhs, rhs).equal, t
        verdict = decide_identity(ROWS[split])
        assert not verdict.equal
        assert verdict.witness["monomial"]["t"] == 0

    def test_int_and_form_readings_agree(self):
        """The walk's int exponents are the forms evaluated at (t, sizes, scaled sizes)."""
        values, t = (2, 3, 5, 4, 9, 10), 7
        point = (t, *values)
        _, numerators, _ = antitelescope._SPLITS["thm2"]
        forms = _Form.units(7)

        def at(form):
            return sum(c * v for c, v in zip(form, point))

        by_form = numerators(forms[1:], forms[0])
        by_int = numerators(values, t)
        assert [
            (name, [(at(lead), tuple(map(at, exps))) for lead, exps in pieces]) for name, pieces in by_form
        ] == [(name, pieces) for name, pieces in by_int]
