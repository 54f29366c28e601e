"""The shared-denominator engine against the per-group-divide reference."""

from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdominance import antitelescope
from qdominance.antitelescope import (
    AddendDecomposition,
    certify_split,
    decompositions,
    group_totals,
    positivity_scan,
)
from qdominance.dominance import dominates
from qdominance.series import INF, ProductSpec, QSeries, ResourceError, _Signed, product_spec, serialize
from reference_series import exponents, zero_series
from reference_split import (
    group_negatives,
    groups_sum_to_addend,
    reference_addend,
    reference_exponents,
    reference_thm1_split,
    reference_thm2_split,
    thm_pair,
)

small = st.integers(1, 4)
orders = st.integers(0, 30)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(1, 60), max_size=6),
    st.integers(1, 30),
    st.one_of(st.just(INF), st.integers(1, 12)),
    st.integers(0, 200),
)
def test_product_exponents_match_per_family_loop(bases, modulus, length, order):
    spec = product_spec(bases, modulus, length)
    assert exponents(spec, order) == reference_exponents(bases, modulus, length, order)


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
        dec = AddendDecomposition(1, zero_series(3), (("G1", doubled),), 0, scale=2)
        assert group_negatives(dec) == {"G1": (2, Fraction(-3, 2))}
        even = AddendDecomposition(1, zero_series(3), (("G1", QSeries.from_coeffs([0, -2, 0, 0])),), 0, 2)
        negative = group_negatives(even)["G1"]
        assert negative == (1, -1) and type(negative[1]) is int

    def test_group_sum_compares_at_scale(self):
        addend_series = QSeries.from_coeffs([0, 1, 2])
        halves = (("A", QSeries.from_coeffs([0, 1, 1])), ("B", QSeries.from_coeffs([0, 1, 3])))
        assert groups_sum_to_addend(AddendDecomposition(1, addend_series, halves, 0, 2))
        assert not groups_sum_to_addend(AddendDecomposition(1, addend_series, halves, 0, 1))

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

    @pytest.mark.parametrize(
        "split, params, perturbed",
        [
            ("thm1", (1, 1, 1, 1, 1), False),
            ("thm1", (3, 1, 2, 3, 2), False),
            ("thm2", (2, 1, 2, 1, 2, 3, 2), False),
            ("thm2", (1, 2, 1, 1, 2, 2, 2), True),
        ],
    )
    def test_a_huge_L_certifies_like_L_order_plus_one(self, split, params, perturbed, monkeypatch):
        """From the first index with t = (i-1)m above the order every addend
        and group is 0, so the walk stops there: L = 10^6 costs what L =
        order + 1 costs and gives the same verdict and witness."""
        order = 10
        if perturbed:
            n, numerators, scale = antitelescope._SPLITS[split]

            def without_last_group(values, t):
                return numerators(values, t)[:-1]

            monkeypatch.setitem(antitelescope._SPLITS, split, (n, without_last_group, scale))
        short = certify_split(*thm_pair((order + 1, *params)), order, split)
        assert short["ok"] is not perturbed
        divide, calls = _Signed.divide, []

        def counted(packing, x, exponents):
            calls.append(exponents)
            return divide(packing, x, exponents)

        monkeypatch.setattr(_Signed, "divide", counted)
        assert certify_split(*thm_pair((10**6, *params)), order, split) == short
        assert len(calls) <= order + 3


class TestScanWorkBound:
    def test_every_row_is_one_pass_in_the_bound(self, monkeypatch):
        """finiteRR at L = 5 and order 10: 8 factors under the order, 5 rows."""
        P, Q = product_spec((1, 4), 5, 5), product_spec((2, 3), 5, 5)
        work = 11 * (1 + 5 + 8)
        monkeypatch.setattr("qdominance.series.MAX_SERIES_WORK", work)
        assert positivity_scan(P, Q, 10)["L"] == 5
        monkeypatch.setattr("qdominance.series.MAX_SERIES_WORK", work - 1)
        with pytest.raises(ResourceError, match=rf"\(1 \+ rows \+ factors\) = {work} "):
            positivity_scan(P, Q, 10)


def counted_ranges(monkeypatch) -> list:
    """The specs `ProductSpec._ranges` is called on from now on, in call order."""
    ranges, calls = ProductSpec._ranges, []

    def counted(spec, order):
        calls.append(spec)
        return ranges(spec, order)

    monkeypatch.setattr(ProductSpec, "_ranges", counted)
    return calls


class TestFrontDoor:
    """`_Walk` admits each walk once: the bound counts the factor ranges and
    lists only what it admitted, and the walk stops a summing walk itself."""

    @pytest.mark.parametrize(
        "run",
        [
            lambda P, Q: certify_split(P, Q, 40, "thm2"),
            lambda P, Q: group_totals(P, Q, 40, "thm2"),
            lambda P, Q: list(decompositions(P, Q, 40, "thm2")),
            lambda P, Q: positivity_scan(P, Q, 40, "thm2"),
            lambda P, Q: dominates(P, Q, 40),
        ],
        ids=["certify_split", "group_totals", "decompositions", "positivity_scan", "dominates"],
    )
    def test_each_spec_has_its_ranges_taken_once(self, run, monkeypatch):
        P, Q = thm_pair((3, 2, 1, 2, 1, 2, 3, 2))
        calls = counted_ranges(monkeypatch)
        run(P, Q)
        assert calls == [P, Q]

    @staticmethod
    def refuse_expansion(monkeypatch):
        def refuse(*args):
            raise AssertionError("a walk over the bound must expand nothing")

        monkeypatch.setattr(_Signed, "divide", refuse)

    def test_decompositions_over_the_bound_expand_nothing(self, monkeypatch):
        self.refuse_expansion(monkeypatch)
        # every index is a row: 61 x (1 + 10^6 rows + 176 factors)
        walk = decompositions(*thm_pair((10**6, 2, 1, 2, 2, 2)), 60, "thm1")
        with pytest.raises(ResourceError, match=r"\(1 \+ rows \+ factors\) = 61010797 "):
            next(walk)

    def test_group_totals_over_the_bound_expand_nothing(self, monkeypatch):
        self.refuse_expansion(monkeypatch)
        # a summing walk counts no rows, but about 6 factors per coefficient
        with pytest.raises(ResourceError, match=r"\(1 \+ factors\) = "):
            group_totals(*thm_pair((10**6, 1, 1, 2, 2, 2)), 3000, "thm1")

    @pytest.mark.parametrize(
        "params, order",
        [((10**6, 2, 1, 2, 2, 2), 60), ((10**6, 3, 1, 2, 1, 2, 3, 2), 40), ((10**6, 1, 1, 1, 1, 1), 0), ((5, 1, 1, 2, 2, 2), 60)],
    )
    def test_a_summing_walk_stops_itself(self, params, order):
        L, m = params[:2]
        split = "thm1" if len(params) == 6 else "thm2"
        walk = antitelescope._Walk(*thm_pair(params), order, split)
        expected = min(L, order // m + 1)
        # one step past the expected stop is asked for, so a walk that goes on is caught at once
        steps = list(islice(walk.steps(), expected + 1))
        assert [i for i, *_ in steps] == list(range(1, expected + 1))

    @pytest.mark.parametrize("params, order", [((30, 2, 1, 2, 2, 2), 10), ((7, 3, 1, 2, 1, 2, 3, 2), 0)])
    def test_a_per_index_walk_steps_every_index(self, params, order):
        L, m = params[:2]
        assert L > order // m + 1
        split = "thm1" if len(params) == 6 else "thm2"
        walk = antitelescope._Walk(*thm_pair(params), order, split, per_index=True)
        steps = list(walk.steps())
        assert [i for i, *_ in steps] == list(range(1, L + 1))
        # past the summed indices every addend and group is 0 through the order
        zero = [x for _, t, addend, groups in steps if t > order for x in (addend, *(g for _, g in groups))]
        assert zero and not any(x & walk.packing.mask for x in zero)
