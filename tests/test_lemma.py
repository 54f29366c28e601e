"""Kernel expansion, slice closed forms, and the negativity-window argument."""

from fractions import Fraction
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_lemma as transcribed
from qdominance import lemma
from qdominance.lemma import LemmaParams, certify_lemma, packings, slice_planes
from qdominance.polyring import (
    IdentityVerdict,
    MultiPoly,
    RationalTerm,
    _Form,
    decide_identity,
    from_pieces,
    identity_check,
)
from reference_lemma import eqtwo_symbolic, lattice, slice_identity
from reference_lemma import unpack


def slice_eqtwo(n, params):
    """The n-th t-slice of f as the sum of its slice terms' planes, as rows."""
    planes = packings(params)
    return unpack(planes, sum(grids[n] for _, grids in slice_planes(params, planes)))


class TestFExpand:
    def test_constant_coefficient(self):
        for r, R in [(1, 1), (2, 3), (4, 1)]:
            tri = lattice(LemmaParams(r, R, (2, 4, 4)))
            assert tri[0][0][0] == 1

    def test_unit_parameters_closed_form(self):
        # r=R=1 collapses the kernel to (1-xy)/((1-x)(1-y)(1-tx)(1-ty));
        # its (0,j,k) slice is 1 on the axes and 0 elsewhere
        tri = lattice(LemmaParams(1, 1, (3, 6, 6)))
        assert tri[0][1][1] == 0
        assert tri[0][0][5] == 1
        assert tri[0][5][0] == 1
        # higher t-slices: coefficient of t^n x^j y^k counts lattice paths;
        # spot value c(1,1,1) = [t x y] (1-xy)(1+tx)(1+ty)... = 2
        assert tri[1][1][1] == 2

    def test_lemma_claim_small_grid(self):
        for r, R in [(2, 2), (3, 2), (1, 4)]:
            tri = lattice(LemmaParams(r, R, (6, 15, 15)))
            assert min(min(map(min, plane)) for plane in tri) >= 0

    def test_params_validation(self):
        with pytest.raises(ValueError):
            LemmaParams(0, 1, (2, 2, 2))
        with pytest.raises(ValueError):
            LemmaParams(1, 1, (2, -1, 2))
        # only exact ints: bools and floats are refused before any expansion
        for r, R, bounds in [
            (True, 2, (2, 2, 2)),
            (2, True, (2, 2, 2)),
            (1.5, 2, (2, 2, 2)),
            (2, 2.0, (2, 2, 2)),
            (2, 2, (True, 4, 4)),
            (2, 2, (2, 4.0, 4)),
            (2, 2, (2, 4)),
        ]:
            with pytest.raises(ValueError):
                LemmaParams(r, R, bounds)


class TestSliceEqtwo:
    def test_matches_f_expand(self):
        for r, R in [(1, 1), (2, 2), (3, 2), (2, 4), (5, 1)]:
            params = LemmaParams(r, R, (6, 18, 18))
            tri = lattice(params)
            for n in range(7):
                got = slice_eqtwo(n, params)
                assert got == tri[n], (r, R, n)

    def test_n_zero_closed_form(self):
        # ((1-xy) + (x-x^r)(y-y^R)) / ((1-x)(1-y)): ones on the axes plus
        # the (x+...+x^(r-1))(y+...+y^(R-1)) block
        r, R = 3, 2
        params = LemmaParams(r, R, (2, 8, 8))
        got = slice_eqtwo(0, params)
        for j in range(9):
            for k in range(9):
                want = (min(j, k) == 0) + (1 <= j <= r - 1 and 1 <= k <= R - 1)
                assert got[j][k] == want, (j, k)

    def test_delta_parity_toggles_last_term(self):
        r, R = 2, 3
        for n in (2, 3, 4, 5):
            terms = dict(
                (name, monomials)
                for name, monomials, _ in eqtwo_symbolic(n, r, R)
            )
            t9 = [m for m in terms["T9"] if m[0]]
            if n % 2:
                assert t9 == [(1, 1, (n + 1) * R)]
            else:
                assert t9 == []

    def test_shape_and_min(self):
        params = LemmaParams(2, 2, (3, 5, 7))
        s = slice_eqtwo(2, params)
        assert (len(s) - 1, len(s[0]) - 1) == (5, 7)
        assert min(map(min, s)) >= 0


class TestIdentities:
    def test_trivial_unit_case(self):
        assert slice_identity(0).equal

    def test_documented_case(self):
        assert slice_identity(3).equal

    def test_small_sweep(self):
        for n in range(4):
            verdict = slice_identity(n)
            assert verdict.one_vs_three.equal and verdict.three_vs_two.equal, n


def assert_same_terms(got, want, where):
    """Equal as MultiPoly values: each numerator, and every factor in order."""
    assert len(got) == len(want), where
    for i, (a, b) in enumerate(zip(got, want)):
        assert a.numerator == b.numerator, (where, i)
        assert a.denominator_factors == b.denominator_factors, (where, i)


class TestTermsMatchTheTranscription:
    """The weighted binomial pieces against the MultiPoly transcriptions they replaced."""

    def test_kernel_term(self):
        for r in range(1, 7):
            for R in range(1, 7):
                assert_same_terms([lemma.kernel_term(r, R)], [transcribed.kernel_term(r, R)], (r, R))

    @pytest.mark.parametrize("name", ["eqone_terms", "eqthree_terms", "eqtwo_terms_rational"])
    def test_closed_forms(self, name):
        for n in range(9):
            for r in range(1, 5):
                for R in range(1, 5):
                    got = getattr(transcribed, name)(n, r, R)
                    assert_same_terms(got, getattr(transcribed, "mp_" + name)(n, r, R), (n, r, R))


READINGS = ("eqone_terms", "eqthree_terms", "eqtwo_terms_rational")
# the two comparisons of a slice, as pairs of readings
COMPARED = ((0, 1), (1, 2))
x_FORM, y_FORM, X_FORM, Y_FORM = transcribed.SLICE_FORMS


def form_readings(n, r=X_FORM):
    """The three closed forms of slice n over (x, y, X, Y), with r read as the form `r`."""
    return [getattr(transcribed, name)(n, r, Y_FORM) for name in READINGS]


def refused(forms, changed):
    """Whether both comparisons that read the changed form fail."""
    return all(not identity_check(forms[a], forms[b]).equal for a, b in COMPARED if changed in (a, b))


def with_term(terms, i, term):
    return terms[:i] + [term] + terms[i + 1 :]


def specialised(poly, r, R):
    """A polynomial over (x, y, X, Y) at X = x^r and Y = y^R, as a polynomial in x, y."""
    terms = {}
    for (a, b, c, d), k in poly.terms.items():
        key = (a + r * c, b + R * d)
        terms[key] = terms.get(key, 0) + k
    return MultiPoly(transcribed.XY, terms)


class TestSliceFormIdentities:
    """The reference chain: one identity per slice over (x, y, X, Y), with X = x^r and Y = y^R free."""

    @pytest.mark.parametrize("n", range(5))
    def test_each_slice_holds_for_every_r_and_R(self, n):
        verdict = slice_identity(n)
        assert verdict.one_vs_three.equal and verdict.three_vs_two.equal

    @pytest.mark.parametrize("n", range(5))
    def test_one_monomial_doubled_or_dropped_is_refused(self, n):
        forms = form_readings(n)
        for f, terms in enumerate(forms):
            for i, term in enumerate(terms):
                numerator = term.numerator
                for exps, c in numerator.terms.items():
                    for edit in (2 * c, 0):
                        edited = MultiPoly(lemma.SLICE_VARIABLES, {**numerator.terms, exps: edit})
                        changed = with_term(terms, i, RationalTerm(edited, term.denominator_factors))
                        assert refused(with_term(forms, f, changed), f), (n, READINGS[f], i, exps, edit)

    @pytest.mark.parametrize("n", range(5))
    def test_one_x_to_the_r_written_as_x_to_the_r_plus_one_is_refused(self, n):
        """Each term whose value reads r, rebuilt at X -> X + x alone, breaks the identity."""
        forms, shifted = form_readings(n), form_readings(n, X_FORM + x_FORM)
        edits = 0
        for f, (terms, moved) in enumerate(zip(forms, shifted)):
            for i, (term, other) in enumerate(zip(terms, moved)):
                if not identity_check([term], [other]).equal:
                    edits += 1
                    assert refused(with_term(forms, f, with_term(terms, i, other)), f), (n, READINGS[f], i)
        assert edits >= 8

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 8), st.integers(1, 6), st.integers(1, 6), st.sampled_from(READINGS))
    def test_the_form_reading_specialises_to_the_int_reading(self, n, r, R, name):
        got = [
            RationalTerm(specialised(t.numerator, r, R), tuple(specialised(f, r, R) for f in t.denominator_factors))
            for t in getattr(transcribed, name)(n, X_FORM, Y_FORM)
        ]
        assert_same_terms(got, getattr(transcribed, name)(n, r, R), (n, r, R))


class TestNegativityWindow:
    def test_clean_grid_point(self):
        # with the expansion nonnegative and every slice matching, each slice total is >= 0
        report = certify_lemma(2, 2, (8, 20, 20))
        assert report["checks"] == dict.fromkeys(("expansion_nonnegative", "slices_match", "window", "symmetry"), True)
        assert report["window"]["checks"]["window_contained"] is True

    def test_documented_t2_instance(self):
        # n=3, r=2, R=2: term two = -x^2 (y^4+y^5+y^6+y^7)
        params = LemmaParams(2, 2, (4, 10, 10))
        planes = packings(params)
        grid = transcribed.t2_closed_form(3, 2, 2, 10, 10)
        cells = {
            (j, k): c
            for j in range(11)
            for k in range(11)
            if (c := grid[j][k])
        }
        assert cells == {(2, k): -1 for k in (4, 5, 6, 7)}
        t2 = dict(slice_planes(params, planes))["T2"]
        assert unpack(planes, t2[3]) == grid

    def test_totals_stay_nonnegative_in_window(self):
        params = LemmaParams(2, 2, (4, 12, 12))
        tri = lattice(params)
        for k in (4, 5, 6, 7):
            assert tri[3][2][k] >= 0

    def test_r_at_least_n_has_no_negative_terms(self):
        # slices n <= r carry no negative per-term cells at all
        report = certify_lemma(5, 3, (5, 15, 15))
        assert report["window"]["negative_term_cells"] == 0
        assert report["checks"]["window"] is True

    def test_unit_r_negatives_stay_in_window(self):
        report = certify_lemma(1, 3, (6, 15, 15))
        assert report["window"]["negative_term_cells"] > 0
        assert report["window"]["checks"]["window_contained"] is True
        assert report["checks"]["window"] is True


class TestSymmetry:
    def test_equal_parameters_transpose(self):
        assert certify_lemma(2, 2, (4, 10, 10))["symmetry"]["equal"]

    def test_swapped_parameters(self):
        assert certify_lemma(2, 3, (6, 25, 25))["symmetry"]["equal"]
        assert certify_lemma(1, 4, (6, 25, 25))["symmetry"]["equal"]

    def test_holds_on_non_square_bounds(self):
        # the x/y swap is one identity for every r and R, whatever the box
        report = certify_lemma(2, 3, (4, 10, 12))
        assert report["symmetry"] == {"equal": True, "first_mismatch": None}
        assert report["checks"]["symmetry"] is True


# f over (t, x, y, X, Y), with X = x^r and Y = y^R free
KERNEL_VARIABLES = ("t", "x", "y", "X", "Y")
t_FORM, x5, y5, X5, Y5 = _Form.units(5)


def kernel(t=t_FORM, x=x5, y=y5, X=X5, Y=Y5):
    return lemma._kernel(KERNEL_VARIABLES, t, x, y, X, Y)


def assert_refused(lhs, rhs):
    """identity_check refuses the two terms with a monomial witness over the five variables."""
    assert_sides_refused([lhs], [rhs])


def assert_sides_refused(lhs, rhs):
    """identity_check refuses the two sides with a monomial witness over the five variables."""
    verdict = identity_check(lhs, rhs)
    assert not verdict.equal
    assert set(verdict.witness) == {"monomial", "coefficient"}
    assert set(verdict.witness["monomial"]) == set(KERNEL_VARIABLES)
    assert int(verdict.witness["coefficient"]) != 0


def swapped():
    """The identity's other side: f with (x, X) and (y, Y) exchanged."""
    return kernel(x=y5, y=x5, X=Y5, Y=X5)


class TestKernelSymmetry:
    """f_(r,R)(t, x, y) = f_(R,r)(t, y, x) as one identity over (t, x, y, X, Y)."""

    def test_holds_for_every_r_and_R(self):
        assert decide_identity(lemma.kernel_symmetry_sides) == IdentityVerdict(True)

    def test_x_and_y_swapped_without_X_and_Y_is_refused(self):
        assert_refused(kernel(), kernel(x=y5, y=x5))

    def test_X_and_Y_swapped_without_x_and_y_is_refused(self):
        assert_refused(kernel(), kernel(X=Y5, Y=X5))

    def test_t_plus_t_written_as_t_is_refused(self, monkeypatch):
        def t_for_t_plus_t(variables, pieces):
            return from_pieces(variables, [(w, lead, [t_FORM if e == 2 * t_FORM else e for e in b]) for w, lead, b in pieces])

        lhs, rhs = kernel(), swapped()
        monkeypatch.setattr(lemma, "from_pieces", t_for_t_plus_t)
        edited = swapped()
        assert edited.numerator != rhs.numerator and edited.denominator_factors == rhs.denominator_factors
        assert_refused(lhs, edited)

    @pytest.mark.parametrize("side", [0, 1], ids=["lhs", "rhs"])
    @pytest.mark.parametrize("edit", ["doubled", "dropped"])
    def test_one_numerator_monomial_doubled_or_dropped_is_refused(self, side, edit):
        pair = [kernel(), swapped()]
        term = pair[side]
        for exps, c in term.numerator.terms.items():
            changed = MultiPoly(KERNEL_VARIABLES, {**term.numerator.terms, exps: 2 * c if edit == "doubled" else 0})
            pair[side] = RationalTerm(changed, term.denominator_factors)
            assert_refused(*pair)

    @pytest.mark.parametrize("r", range(1, 7))
    def test_the_five_variable_kernel_at_X_x_to_the_r_is_kernel_term(self, r):
        """Substituting X = x^r and Y = y^R in the identities' kernel and slice
        terms gives the kernel and the slice terms the lattice expands,
        numerator and factors in order."""
        for R in range(1, 7):
            assert_same_terms([at_powers(kernel(), r, R)], [lemma.kernel_term(r, R)], R)
            read = lemma.slice_terms(r, R)
            assert [name for name, _ in read] == [name for name, _ in slice_groups()]
            assert_same_terms(flat(read), [at_powers(term, r, R) for term in flat(slice_groups())], (r, R))

    def test_the_sides_are_the_public_ones(self):
        [(lhs, rhs)] = lemma.kernel_symmetry_sides()
        assert_same_terms(lhs, [kernel()], "lhs")
        assert_same_terms(rhs, [swapped()], "rhs")


def at_powers(term, r, R):
    """A term over (t, x, y, X, Y) at X = x^r and Y = y^R, over (t, x, y)."""

    def specialised(poly):
        terms = {}
        for (t, x, y, X, Y), c in poly.terms.items():
            key = (t, x + r * X, y + R * Y)
            terms[key] = terms.get(key, 0) + c
        return MultiPoly(lemma.TXY, terms)

    return RationalTerm(specialised(term.numerator), tuple(map(specialised, term.denominator_factors)))


def slice_groups():
    """The nine slice terms' generating functions over (t, x, y, X, Y), by name."""
    return lemma._slices(KERNEL_VARIABLES, t_FORM, x5, y5, X5, Y5)


def flat(groups):
    return [term for _, terms in groups for term in terms]


def moved(term, select, shift):
    """The term with each numerator monomial that `select` picks times the monomial `shift`."""
    terms = {}
    for exps, c in term.numerator.terms.items():
        key = tuple(map(add, exps, shift)) if select(exps) else exps
        terms[key] = terms.get(key, 0) + c
    return RationalTerm(MultiPoly(KERNEL_VARIABLES, terms), term.denominator_factors)


def t_series(poly, point, order):
    """A polynomial over (t, x, y) at (x, y) = point, as its t-coefficients up to t^order."""
    series = [Fraction(0)] * (order + 1)
    for (n, a, b), c in poly.terms.items():
        if n <= order:
            series[n] += c * point[0] ** a * point[1] ** b
    return series


def divided(series, divisor):
    """series / divisor as truncated power series in t; divisor[0] is not 0."""
    quotient = []
    for n, c in enumerate(series):
        quotient.append((c - sum(divisor[k] * quotient[n - k] for k in range(1, n + 1))) / divisor[0])
    return quotient


class TestKernelSlices:
    """f = sum over n of t^n (slice n's nine terms) as one identity over (t, x, y, X, Y)."""

    def test_holds_for_every_n_r_and_R(self):
        assert decide_identity(lemma.kernel_slices_sides) == IdentityVerdict(True)

    def test_the_sides_are_the_nine_terms_and_the_kernel(self):
        [(lhs, rhs)] = lemma.kernel_slices_sides()
        groups = slice_groups()
        assert [name for name, _ in groups] == [name for name, _, _ in eqtwo_symbolic(0, 1, 1)]
        assert len(lhs) == 18
        assert_same_terms(lhs, flat(groups), "terms")
        assert_same_terms(rhs, [kernel()], "kernel")

    @pytest.mark.parametrize("edit", ["dropped", "doubled"])
    @pytest.mark.parametrize("index", range(9), ids=[f"T{i}" for i in range(1, 10)])
    def test_one_term_dropped_or_doubled_is_refused(self, index, edit):
        groups = slice_groups()
        name, terms = groups[index]
        groups[index] = (name, [] if edit == "dropped" else terms + terms)
        assert_sides_refused(flat(groups), [kernel()])

    def test_T5_s_X_squared_written_as_X_squared_x_is_refused(self):
        groups = slice_groups()
        name, terms = groups[4]
        assert name == "T5"
        edited = [moved(term, lambda exps: exps[3] == 3, x5) for term in terms]
        assert all(a.numerator != b.numerator for a, b in zip(edited, terms))
        groups[4] = (name, edited)
        assert_sides_refused(flat(groups), [kernel()])

    def test_T9_s_Y_squared_written_as_Y_cubed_is_refused(self):
        groups = slice_groups()
        name, [term] = groups[8]
        assert name == "T9" and set(exps[4] for exps in term.numerator.terms) == {2}
        groups[8] = (name, [moved(term, lambda exps: True, Y5)])
        assert_sides_refused(flat(groups), [kernel()])

    @pytest.mark.parametrize("r", range(1, 4))
    def test_read_at_X_x_to_the_r_the_terms_sum_to_kernel_term(self, r):
        """The terms the lattice expands, read over (t, x, y) with X = x^r and
        Y = y^R, sum to the kernel it expands."""
        for R in range(1, 4):
            verdict = identity_check(flat(lemma.slice_terms(r, R)), [lemma.kernel_term(r, R)])
            assert verdict == IdentityVerdict(True), (r, R)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 5),
        st.integers(1, 5),
        st.tuples(*[st.fractions(-2, 2, max_denominator=7).filter(lambda v: v != 1)] * 2),
    )
    def test_each_term_s_t_coefficients_are_its_eqtwo_symbolic_term(self, r, R, point):
        """Each generating function, expanded in t at an exact point, has slice n's term as its t^n coefficient."""
        order = 12
        want = {name: [] for name, _ in slice_groups()}
        for n in range(order + 1):
            for name, monomials, (px, py) in eqtwo_symbolic(n, r, R):
                value = sum(c * point[0] ** a * point[1] ** b for c, a, b in monomials)
                want[name].append(value / ((1 - point[0]) ** px * (1 - point[1]) ** py))
        for name, terms in lemma.slice_terms(r, R):
            got = [Fraction(0)] * (order + 1)
            for term in terms:
                series = t_series(term.numerator, point, order)
                for factor in term.denominator_factors:
                    series = divided(series, t_series(factor, point, order))
                got = list(map(add, got, series))
            assert got == want[name], name
