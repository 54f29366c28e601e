"""The shared-denominator engine against the per-group-divide reference."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdominance.antitelescope import (
    AddendDecomposition,
    certify_split,
    decompositions,
    positivity_scan,
)
from qdominance.series import QSeries, product_spec, serialize
from reference_split import (
    reference_addend,
    reference_thm1_split,
    reference_thm2_split,
    thm_pair,
)

small = st.integers(1, 4)
orders = st.integers(0, 30)


@settings(max_examples=80, deadline=None)
@given(st.tuples(*[small] * 6), orders)
def test_thm1_engine_matches_reference(params, order):
    L = params[0]
    engine = list(decompositions(*thm_pair(params), order, "thm1"))
    assert [d.index for d in engine] == list(range(1, L + 1))
    for dec in engine:
        want = reference_thm1_split(params, dec.index, order)
        assert dec.scale == 1
        assert dec == want


@settings(max_examples=80, deadline=None)
@given(st.tuples(*[small] * 8), orders)
def test_thm2_engine_matches_reference(params, order):
    L = params[0]
    P, Q = thm_pair(params)
    engine = list(decompositions(P, Q, order, "thm2"))
    assert [d.index for d in engine] == list(range(1, L + 1))
    for dec in engine:
        want = reference_thm2_split(params, dec.index, order)
        assert dec.scale == 2
        assert all(type(c) is int for _, g in dec.groups for c in g.coeffs)
        assert dec.unscaled() == want
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
    P, Q = product_spec(p_bases, modulus, L), product_spec(q_bases, modulus, L)
    for dec in decompositions(P, Q, order):
        assert dec.groups == ()
        assert dec.addend == reference_addend(P, Q, dec.index, L, order)


class TestReportBoundary:
    def test_doubled_groups_halve_to_half_integers(self):
        params = (2, 3, 1, 2, 1, 2, 3, 2)
        second = list(decompositions(*thm_pair(params), 25, "thm2"))[1]
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
        P, Q = thm_pair((3, 2, 1, 2, 1, 2, 3, 2))
        report = positivity_scan(P, Q, 20, split="thm2", dump_series=True)
        assert list(report) == ["L", "order", "split", "rows", "all_nonnegative", "series"]
        for entry in report["series"]:
            want = reference_thm2_split((3, 2, 1, 2, 1, 2, 3, 2), entry["i"], 20)
            assert entry["addend"] == serialize(want.addend)
            assert entry["groups"] == {name: serialize(g) for name, g in want.groups}

    def test_scan_without_dump_has_no_series(self):
        P, Q = thm_pair((2, 5, 1, 1, 2, 2))
        assert "series" not in positivity_scan(P, Q, 20, split="thm1")


class TestCertifySplit:
    @pytest.mark.parametrize(
        "split, params",
        [("thm1", (3, 2, 1, 2, 3, 2)), ("thm2", (3, 2, 1, 2, 1, 2, 3, 2))],
    )
    def test_clean_tuples_certify(self, split, params):
        assert certify_split(*thm_pair(params), 40, split) == {"ok": True, "witness": None}

    def test_bad_parameters_raise(self):
        with pytest.raises(ValueError):
            thm_pair((0, 2, 1, 2, 3, 2))
        with pytest.raises(ValueError):
            thm_pair((1, 2, 1, 2, True, 2, 3, 2))
        with pytest.raises(ValueError):
            certify_split(*thm_pair((1, 2, 1, 2, 3, 2)), 20, "none")

    @pytest.mark.parametrize(
        "split, params",
        [("thm2", (2, 2, 1, 2, 3, 2)), ("thm1", (2, 2, 1, 2, 1, 2, 3, 2))],
    )
    def test_split_of_the_other_shape_raises(self, split, params):
        with pytest.raises(ValueError, match=f"{split} split"):
            certify_split(*thm_pair(params), 20, split)

    def test_pairs_that_are_not_nbase_raise(self):
        P, Q = product_spec((1, 4), 5, 2), product_spec((2, 3), 5, 2)
        with pytest.raises(ValueError, match="n-base"):
            certify_split(P, Q, 20, "thm1")
