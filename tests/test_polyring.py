"""Polynomial arithmetic, the reference rational expansion, and identity checking."""

import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdominance.polyring import (
    MultiPoly,
    RationalTerm,
    VariableMismatchError,
    _Form,
    from_pieces,
    identity_check,
    to_text,
)
from qdominance.series import reciprocal_from_exponents
from reference_lemma import SingularDenominatorError, TriSeries, expand_rational
from reference_polyring import (
    four_factor_identity_sides,
    mono,
    mp_add,
    mp_mul,
    mp_sub,
    mp_times_int,
    mp_zero,
    three_factor_identity_sides,
)
from reference_series import (
    CoverageError,
    monomial,
    series_mul,
    specialize,
    tri_multiply,
    tri_truncate_poly,
    zero_series,
)

XY = ("x", "y")

_TERM_SPLIT = re.compile(r"(?=[+-])")
_FACTOR = re.compile(r"^([A-Za-z_]\w*)(?:\^(\d+))?$")


def from_text(text: str, variables) -> MultiPoly:
    """Parse the canonical text form back into a polynomial: the round-trip oracle of to_text."""
    variables = tuple(variables)
    index = {v: i for i, v in enumerate(variables)}
    terms = {}
    body = text.strip()
    if body == "0":
        return mp_zero(variables)
    for chunk in _TERM_SPLIT.split(body):
        chunk = chunk.strip()
        if not chunk:
            continue
        sign = 1
        if chunk[0] in "+-":
            sign = -1 if chunk[0] == "-" else 1
            chunk = chunk[1:].strip()
        coeff = 1
        exps = [0] * len(variables)
        for factor in chunk.replace("*", " ").split():
            if re.fullmatch(r"-?\d+(/\d+)?", factor):
                coeff = coeff * Fraction(factor)
                continue
            m = _FACTOR.match(factor)
            if m is None or m.group(1) not in index:
                raise ValueError(f"cannot parse factor {factor!r} in {text!r}")
            exps[index[m.group(1)]] += int(m.group(2)) if m.group(2) else 1
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + sign * coeff
    return MultiPoly(variables, terms)


def xy(coeff=1, **exps):
    return mono(XY, coeff, **exps)


def binomial(variables, **exps):
    """1 - monomial over the given variables."""
    return mp_sub(mono(variables, 1), mono(variables, 1, **exps))


class TestArith:
    def test_difference_of_squares(self):
        one_minus = mp_sub(xy(), xy(x=1))
        one_plus = mp_add(xy(), xy(x=1))
        assert mp_mul(one_minus, one_plus) == mp_sub(xy(), xy(x=2))

    def test_self_subtraction_empty(self):
        p = mp_add(xy(3, x=2, y=1), xy(-1))
        assert mp_sub(p, p).is_zero()

    def test_four_term_expansion(self):
        v = ("x", "a", "b")
        p = mp_mul(
            mp_sub(mono(v, 1, x=1), mono(v, 1, a=1)),
            mp_sub(mono(v, 1), mono(v, 1, b=1)),
        )
        assert p.terms == {
            (1, 0, 0): 1,
            (1, 0, 1): -1,
            (0, 1, 0): -1,
            (0, 1, 1): 1,
        }

    def test_variable_mismatch(self):
        with pytest.raises(VariableMismatchError):
            mp_add(xy(), mono(("x",), 1))

    def test_zero_terms_pruned(self):
        p = mp_add(xy(1, x=1), xy(-1, x=1))
        assert p.terms == {}


def piece_product(variables, weight, lead, binomials) -> MultiPoly:
    """weight * v^lead * prod (1 - v^e), multiplied out with the reference arithmetic."""
    out = mono(variables, weight, **dict(zip(variables, lead)))
    for e in binomials:
        out = mp_mul(out, mp_sub(mono(variables, 1), mono(variables, 1, **dict(zip(variables, e)))))
    return out


@st.composite
def piece_lists(draw):
    """2-3 variables and up to four pieces: weights beyond +-1, negative and zero exponents."""
    variables = ("x", "y", "z")[: draw(st.integers(2, 3))]
    vectors = st.tuples(*[st.integers(-3, 3)] * len(variables))
    weights = st.one_of(st.integers(-5, 5), st.fractions(-3, 3, max_denominator=4))
    pieces = draw(st.lists(st.tuples(weights, vectors, st.lists(vectors, max_size=3)), max_size=4))
    return variables, pieces


class TestFromPieces:
    @settings(max_examples=200)
    @given(piece_lists())
    @example((XY, [(1, (1, 0), [(-1, 1)])]))  # x - y
    @example((XY, [(-3, (2, 1), [(0, 2)]), (Fraction(1, 2), (0, 0), [])]))
    @example((XY, [(5, (1, 2), [(1, 0), (0, 0)])]))  # a zero binomial
    @example((("x", "y", "z"), []))
    def test_matches_the_reference_product(self, drawn):
        variables, pieces = drawn
        want = mp_zero(variables)
        for piece in pieces:
            want = mp_add(want, piece_product(variables, *piece))
        assert from_pieces(variables, pieces) == want

    def test_zero_binomial_and_no_pieces_give_zero(self):
        assert from_pieces(XY, [(5, (1, 2), [(1, 0), (0, 0)])]).is_zero()
        assert from_pieces(XY, []).is_zero()


class TestForms:
    def test_int_scaling_scales_every_coefficient(self):
        x, y, X = _Form.units(3)
        assert 3 * X == X * 3 == X + X + X == _Form((0, 0, 3))
        assert 2 * (X - x) + y == _Form((-2, 1, 2))
        assert -X == 0 * X - X == _Form((0, 0, -1))
        assert not 0 * X and type(3 * X) is _Form

    def test_a_form_times_a_form_is_refused(self):
        x, y = _Form.units(2)
        with pytest.raises(TypeError):
            x * y

    def test_k_times_r_reads_the_same_with_ints_and_forms(self):
        """The exponent k r + 1 of x^(kr+1), as an int and at the form of X = x^r."""
        x, X = _Form.units(2)
        for k in range(-2, 4):
            for r in range(1, 5):
                form = k * X + x
                assert form == _Form((1, k))
                assert form[0] + r * form[1] == k * r + 1


class TestText:
    def test_canonical_output(self):
        p = mp_add(mp_sub(xy(2, x=2, y=1), xy(1, y=3)), xy(Fraction(1, 2)))
        assert to_text(p) == "2 * x^2 y - y^3 + 1/2"

    def test_round_trip(self):
        p = mp_add(mp_sub(xy(2, x=2, y=1), xy(1, y=3)), xy(Fraction(1, 2)))
        assert from_text(to_text(p), XY) == p

    def test_zero(self):
        assert to_text(mp_zero(XY)) == "0"
        assert from_text("0", XY).is_zero()


class TestExpandRational:
    def test_geometric_along_x(self):
        term = RationalTerm(mono(("x",), 1), (binomial(("x",), x=1),))
        tri = expand_rational(term, (0, 3, 0))
        assert [tri.coeffs[0][j][0] for j in range(4)] == [1, 1, 1, 1]

    def test_two_variable_lattice(self):
        # (1 - xy) / ((1-x)(1-y)) has coefficient 1 exactly on the axes
        num = mp_sub(xy(), xy(x=1, y=1))
        term = RationalTerm(num, (binomial(XY, x=1), binomial(XY, y=1)))
        tri = expand_rational(term, (0, 3, 3))
        for j in range(4):
            for k in range(4):
                expected = 1 if j == 0 or k == 0 else 0
                assert tri.coeffs[0][j][k] == expected

    def test_multiply_back_recovers_numerator(self):
        v = ("t", "x", "y")
        num = mp_add(mono(v, 1), mono(v, 2, t=1, x=1))
        factors = (binomial(v, t=1, x=1), binomial(v, y=2), binomial(v, x=1))
        tri = expand_rational(RationalTerm(num, factors), (4, 6, 6))
        back = tri
        for f in factors:
            back = tri_multiply(back, f)
        assert back == tri_truncate_poly(num, (4, 6, 6))

    def test_non_unit_denominator_rejected(self):
        bad = mp_sub(xy(1, x=1), xy(1, y=1))
        with pytest.raises(SingularDenominatorError):
            expand_rational(RationalTerm(xy(), (bad,)), (0, 2, 2))

    def test_numerator_outside_bounds_ignored(self):
        term = RationalTerm(mono(("x",), 1, x=9), ())
        tri = expand_rational(term, (0, 3, 0))
        assert tri == TriSeries.zero((0, 3, 0))


class TestSpecialize:
    def test_single_monomial(self):
        tri = tri_truncate_poly(mono(("t", "x"), 1, t=1, x=2), (3, 5, 2))
        got = specialize(tri, 3, 2, 5, 10)
        assert got == monomial(7, 10)

    def test_linearity(self):
        a = tri_truncate_poly(mono(("t", "x", "y"), 2, t=1, y=1), (3, 3, 3))
        b = tri_truncate_poly(mono(("t", "x", "y"), 5, x=2, y=1), (3, 3, 3))
        both = TriSeries(
            a.bounds,
            [
                [
                    [a.coeffs[n][j][k] + b.coeffs[n][j][k] for k in range(4)]
                    for j in range(4)
                ]
                for n in range(4)
            ],
        )
        lhs = specialize(both, 1, 1, 1, 3)
        rhs_a = specialize(a, 1, 1, 1, 3)
        rhs_b = specialize(b, 1, 1, 1, 3)
        assert lhs.coeffs == tuple(
            x + y for x, y in zip(rhs_a.coeffs, rhs_b.coeffs)
        )

    def test_univariate_oracle(self):
        # (1 - xy)/((1-x)(1-y)(1-tx)(1-ty)) at t,x,y -> q equals
        # (1 - q^2) / ((1-q)^2 (1-q^2)^2) = 1 / ((1-q)^2 (1-q^2))
        v = ("t", "x", "y")
        num = mp_sub(mono(v, 1), mono(v, 1, x=1, y=1))
        factors = (
            binomial(v, x=1),
            binomial(v, y=1),
            binomial(v, t=1, x=1),
            binomial(v, t=1, y=1),
        )
        tri = expand_rational(RationalTerm(num, factors), (4, 4, 4))
        got = specialize(tri, 1, 1, 1, 4)
        assert got == reciprocal_from_exponents([1, 1, 2], 4)

    def test_coverage_error(self):
        tri = TriSeries.zero((2, 40, 40))
        with pytest.raises(CoverageError):
            specialize(tri, 1, 1, 1, 10)

    def test_empty_is_zero(self):
        tri = TriSeries.zero((3, 3, 3))
        assert specialize(tri, 2, 2, 2, 5) == zero_series(5)


class TestIdentityCheck:
    def test_trivial_equal(self):
        term = RationalTerm(mono(("x",), 1), (binomial(("x",), x=1),))
        assert identity_check([term], [term]).equal

    def test_three_factor_split_identity(self):
        lhs, rhs = three_factor_identity_sides()
        verdict = identity_check([RationalTerm(lhs)], [RationalTerm(rhs)])
        assert verdict.equal

    def test_four_factor_split_identity(self):
        # doubled, so that the half-weighted groups have int coefficients
        lhs, rhs = (mp_times_int(side, 2) for side in four_factor_identity_sides())
        verdict = identity_check([RationalTerm(lhs)], [RationalTerm(rhs)])
        assert verdict.equal

    def test_exact_inequality_gives_witness(self):
        lhs = RationalTerm(xy(1, x=1))
        rhs = RationalTerm(xy(1, y=1))
        verdict = identity_check([lhs], [rhs])
        assert not verdict.equal
        assert verdict.witness is not None

    def test_cleared_denominators(self):
        # 1/(1-x) - 1/(1-y) == (x - y)/((1-x)(1-y))
        one = xy()
        fx = binomial(XY, x=1)
        fy = binomial(XY, y=1)
        lhs = [RationalTerm(one, (fx,)), RationalTerm(mp_sub(mp_zero(XY), one), (fy,))]
        rhs = [RationalTerm(mp_sub(xy(1, x=1), xy(1, y=1)), (fx, fy))]
        assert identity_check(lhs, rhs).equal

    def test_sign_normalized_factors(self):
        # (x - y) and (y - x) denominators must combine consistently
        one = xy()
        d1 = mp_sub(xy(1, x=1), xy(1, y=1))
        d2 = mp_sub(xy(1, y=1), xy(1, x=1))
        lhs = [RationalTerm(one, (d1,))]
        rhs = [RationalTerm(mp_sub(mp_zero(XY), one), (d2,))]
        assert identity_check(lhs, rhs).equal
