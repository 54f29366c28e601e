"""The shared-denominator engine against the per-group-divide reference."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdominance.antitelescope import (
    AddendDecomposition,
    addend,
    certify_split,
    decompositions,
    family,
    positivity_scan,
    thm1_families,
    thm1_split,
    thm2_families,
    thm2_split,
)
from qdominance.series import QSeries, serialize
from reference_split import reference_addend, reference_thm1_split, reference_thm2_split

small = st.integers(1, 4)
orders = st.integers(0, 30)


@settings(max_examples=80, deadline=None)
@given(st.tuples(*[small] * 6), orders)
def test_thm1_engine_matches_reference(params, order):
    L, m, x, y, r, R = params
    P, Q = thm1_families(m, x, y, r, R)
    engine = list(decompositions(P, Q, L, order, "thm1"))
    assert [d.index for d in engine] == list(range(1, L + 1))
    for dec in engine:
        want = reference_thm1_split(params, dec.index, order)
        assert dec.scale == 1
        assert dec == want
        assert thm1_split(params, dec.index, order) == want
        assert addend(P, Q, dec.index, L, order) == want.addend


@settings(max_examples=80, deadline=None)
@given(st.tuples(*[small] * 8), orders)
def test_thm2_engine_matches_reference(params, order):
    L, m, x, y, z, r, R, rho = params
    P, Q = thm2_families(m, x, y, z, r, R, rho)
    for dec in decompositions(P, Q, L, order, "thm2"):
        want = reference_thm2_split(params, dec.index, order)
        assert dec.scale == 2
        assert all(type(c) is int for _, g in dec.groups for c in g.coeffs)
        assert dec.unscaled() == want
        assert thm2_split(params, dec.index, order) == want
        assert dec.addend == reference_addend(P, Q, dec.index, L, order)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(1, 9), min_size=1, max_size=4),
    st.lists(st.integers(1, 9), min_size=1, max_size=4),
    st.integers(1, 9),
    st.integers(1, 4),
    orders,
)
def test_unsplit_addends_match_reference(p_bases, q_bases, modulus, L, order):
    P, Q = family(p_bases, modulus), family(q_bases, modulus)
    for dec in decompositions(P, Q, L, order):
        assert dec.groups == ()
        assert dec.addend == reference_addend(P, Q, dec.index, L, order)


class TestReportBoundary:
    def test_doubled_groups_halve_to_half_integers(self):
        params = (2, 3, 1, 2, 1, 2, 3, 2)
        P, Q = thm2_families(3, 1, 2, 1, 2, 3, 2)
        second = list(decompositions(P, Q, 2, 25, "thm2"))[1]
        halves = [c for _, g in second.unscaled().groups for c in g.coeffs]
        assert any(isinstance(c, Fraction) for c in halves)
        assert second.unscaled() == reference_thm2_split(params, 2, 25)

    def test_group_negatives_report_true_values(self):
        doubled = QSeries.from_coeffs([0, 4, -3, -2])
        dec = AddendDecomposition(1, QSeries.zero(3), (("G1", doubled),), 0, scale=2)
        assert dec.group_negatives() == {"G1": (2, Fraction(-3, 2))}
        even = AddendDecomposition(1, QSeries.zero(3), (("G1", QSeries.from_coeffs([0, -2, 0, 0])),), 0, 2)
        negative = even.group_negatives()["G1"]
        assert negative == (1, -1) and type(negative[1]) is int

    def test_group_sum_compares_at_scale(self):
        addend_series = QSeries.from_coeffs([0, 1, 2])
        halves = (("A", QSeries.from_coeffs([0, 1, 1])), ("B", QSeries.from_coeffs([0, 1, 3])))
        assert AddendDecomposition(1, addend_series, halves, 0, 2).groups_sum_to_addend()
        assert not AddendDecomposition(1, addend_series, halves, 0, 1).groups_sum_to_addend()

    def test_dump_series_serializes_the_true_groups(self):
        P, Q = thm2_families(2, 1, 2, 1, 2, 3, 2)
        report = positivity_scan(P, Q, 3, 20, split="thm2", dump_series=True)
        assert list(report) == ["L", "order", "split", "rows", "all_nonnegative", "series"]
        for entry in report["series"]:
            want = reference_thm2_split((3, 2, 1, 2, 1, 2, 3, 2), entry["i"], 20)
            assert entry["addend"] == serialize(want.addend)
            assert entry["groups"] == {name: serialize(g) for name, g in want.groups}

    def test_scan_without_dump_has_no_series(self):
        P, Q = thm1_families(5, 1, 1, 2, 2)
        assert "series" not in positivity_scan(P, Q, 2, 20, split="thm1")


class TestCertifySplit:
    @pytest.mark.parametrize(
        "split, params",
        [("thm1", (3, 2, 1, 2, 3, 2)), ("thm2", (3, 2, 1, 2, 1, 2, 3, 2))],
    )
    def test_clean_tuples_certify(self, split, params):
        assert certify_split(split, params, 40) == {"ok": True, "witness": None}

    def test_bad_parameters_raise(self):
        with pytest.raises(ValueError):
            certify_split("thm1", (0, 2, 1, 2, 3, 2), 20)
        with pytest.raises(ValueError):
            certify_split("thm2", (1, 2, 1, 2, True, 2, 3, 2), 20)
        with pytest.raises(ValueError):
            certify_split("none", (1, 2, 1, 2, 3, 2), 20)
