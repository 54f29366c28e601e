"""The packed h series against the list oracle, and the four-size identity's gate.

`proposal.h_series` reads `_h_numerator` with ints, writes every h addend
as q^lead times binomials over six fixed denominators and sums 6h in one
`series._Signed`; `reference_proposal` builds the same addends as list
series with the Cauchy product.  Values must agree, also when one
addend's weight or lead is patched on both sides, and 6h must fit its
proven slots.  `proposal.fourvar_identity_sides` reads the same numerator
with unit forms: the two readings must agree at every point, and the
identity must refuse every change of one addend's weight or of one of its
letters.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_proposal as reference
from qdominance import proposal, series
from qdominance.polyring import _Form, decide_identity, identity_check
from qdominance.proposal import fourvar_identity_sides, h_series, injection_evidence, proposal_params
from qdominance.series import MAX_SERIES_WORK, ResourceError, reciprocal_from_exponents
from reference_series import series_scale, series_shift

sizes = st.integers(1, 5)
h_params = st.tuples(*[sizes] * 6)


@settings(max_examples=80, deadline=None)
@given(h_params, st.integers(0, 80))
def test_h_series_matches_the_list_oracle(params, order):
    got = h_series(params, order)
    want = reference.h_series(params, order)
    assert got == want
    assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]


def largest_bits(*sides) -> int:
    return max(abs(c).bit_length() for side in sides for c in side.coeffs)


def proven_packings(mp) -> list:
    """Record every packing that `_Signed.for_bound` proves while the patch is in place."""
    made = []
    for_bound = series._Signed.for_bound.__func__

    def recording(cls, *args):
        made.append(for_bound(cls, *args))
        return made[-1]

    mp.setattr(series._Signed, "for_bound", classmethod(recording))
    return made


@settings(max_examples=30, deadline=None)
@given(h_params, st.integers(0, 80))
def test_h_width_holds_six_h(params, order):
    with pytest.MonkeyPatch.context() as mp:
        made = proven_packings(mp)
        h_series(params, order)
    six_h = series_scale(reference.h_series(params, order), 6)
    (packing,) = made
    assert packing.bits >= 2 + largest_bits(six_h)


@settings(max_examples=60, deadline=None)
@given(st.tuples(*[st.integers(-50, 50)] * 6))
def test_int_and_form_readings_agree(point):
    """`_h_numerator` at unit forms, evaluated at (sizes, scaled sizes), is its int reading."""
    forms = _Form.units(6)

    def at(form):
        return sum(c * v for c, v in zip(form, point))

    by_form = proposal._h_numerator(forms[:3], forms[3:])
    assert [(w, at(lead), tuple(map(at, exps))) for w, lead, exps in by_form] == proposal._h_numerator(
        point[:3], point[3:]
    )


def changed_addends():
    """Every table with one addend's weight moved by +-1 (38) or one of its letters changed (114)."""
    for i, (weight, code) in enumerate(proposal._H_ADDENDS):
        changes = [(weight + 1, code), (weight - 1, code)]
        changes += [(weight, code[:j] + c + code[j + 1 :]) for j in range(3) for c in "AG-" if c != code[j]]
        for change in changes:
            table = list(proposal._H_ADDENDS)
            table[i] = change
            yield tuple(table)


def test_every_weight_and_letter_change_is_refused(monkeypatch):
    tables = list(changed_addends())
    assert len(tables) == 38 + 114
    for table in tables:
        monkeypatch.setattr(proposal, "_H_ADDENDS", table)
        [(lhs, rhs)] = fourvar_identity_sides()
        assert not identity_check(lhs, rhs).equal, table


# (addend index, patched six-fold weight, extra lead in units of the first
# size): each changes one of the nineteen addends, in every h alike.
PATCHES = [(0, 7, 0), (4, 3, 1), (10, 1, 0), (12, 2, 3), (18, 5, 2)]


@pytest.mark.parametrize("index, weight, shift", PATCHES)
def test_a_patched_addend_fails_with_the_oracles_witness(index, weight, shift, monkeypatch):
    """The identity and the patched list oracle both refuse, and the packed h reads the patch like the oracle."""
    numerator = proposal._h_numerator

    def patched(sizes, scaled):
        pieces = numerator(sizes, scaled)
        _, lead, binomials = pieces[index]
        for _ in range(shift):
            lead = lead + sizes[0]
        pieces[index] = (weight, lead, binomials)
        return pieces

    def patched_terms(params, order):
        terms = reference.h_terms(params, order)
        terms[index] = (weight, series_shift(terms[index][1], shift * params[0]))
        return terms

    monkeypatch.setattr(proposal, "_h_numerator", patched)
    params = (1, 2, 1, 3, 2, 3, 2, 2)
    verdict = decide_identity(fourvar_identity_sides)
    assert not verdict.equal and verdict.witness is not None
    oracle = reference.fourvar_identity(params, 30, patched_terms)
    assert not oracle["equal"], oracle
    h = params[:3] + params[4:7]
    assert h_series(h, 30) == reference.h_series(h, 30, patched_terms)


class TestInjectionBound:
    EIGHT_UNITS = proposal_params((1,) * 8, (1,) * 8)

    def test_the_count_is_the_walk(self):
        params = proposal_params((1, 2, 1), (2, 3, 2))
        counted = sum(reciprocal_from_exponents(params.source_sizes, 20).coeffs)
        assert injection_evidence(params, 20)["source_count"] == counted

    def test_eight_unit_sizes_are_refused_before_any_vector(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the bound must be checked before any vector is built")

        monkeypatch.setattr(proposal, "_count_prefixes", refuse)
        with pytest.raises(ResourceError, match=f"up to weight 24 exceed the bound {proposal.MAX_INJECTION_SOURCES}$"):
            injection_evidence(self.EIGHT_UNITS, 24)
        assert sum(reciprocal_from_exponents(self.EIGHT_UNITS.source_sizes, 24).coeffs) > 10**7

    def test_a_weight_over_the_series_work_bound_is_refused_before_the_count(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the weight must be checked before any expansion")

        monkeypatch.setattr(proposal, "reciprocal_from_exponents", refuse)
        with pytest.raises(ResourceError, match=f"^series work .* exceeds the bound {MAX_SERIES_WORK}$"):
            injection_evidence(proposal_params((1, 2), (2, 3)), MAX_SERIES_WORK)

    def test_five_unit_sizes_stay_under_the_bound(self):
        five = proposal_params((1,) * 5, (1,) * 5)
        planned = sum(reciprocal_from_exponents(five.source_sizes, 24).coeffs)
        assert planned == 175_015 < proposal.MAX_INJECTION_SOURCES
