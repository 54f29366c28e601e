"""Dominance checks against independent partition-counting oracles."""

import logging

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdominance import series
from qdominance.antitelescope import certify_split
from qdominance.dominance import (
    DominanceReport,
    NamedInequality,
    bga_degenerate,
    build_specs,
    check_named,
    dominates,
    nbase_pair,
    nbase_params,
    report_dict,
)
from qdominance.series import INF, product_spec

from oracles import bga_expected, partition_counts_upto, residue_parts
from reference_series import dominates_by_lists, exponents, spec_reciprocal


def named(ineq_id, **parameters):
    return NamedInequality(ineq_id, parameters)


class TestDominates:
    def test_reflexive(self):
        spec = product_spec((1, 4), 5, 3)
        report = dominates(spec, spec, 25)
        assert report.holds
        assert report.failure is None

    def test_the_difference_is_decoded_once_and_only_when_read(self, monkeypatch):
        decoded = []
        decode = series._Signed.decode

        def counting(packing, residue):
            decoded.append(residue)
            return decode(packing, residue)

        monkeypatch.setattr(series._Signed, "decode", counting)
        P, Q = product_spec((1, 7), 8, 12), product_spec((6, 2), 8, 12)
        report = dominates(P, Q, 150)
        report_dict(report, "BGa")
        assert not report.holds and decoded == []
        difference = report.difference
        assert report.difference is difference and len(decoded) == 1
        assert isinstance(difference, series.QSeries)
        assert (report.failure, difference) == dominates_by_lists(P, Q, 150)

    def test_transitive_chain(self):
        # all parts >= parts {1,3,5,...} >= parts {1,5,9,...}
        every = product_spec((1,), 1)
        odds = product_spec((1,), 2)
        sparse = product_spec((1,), 4)
        assert dominates(every, odds, 25).holds
        assert dominates(odds, sparse, 25).holds
        assert dominates(every, sparse, 25).holds

    def test_failure_is_minimal_and_stable(self):
        lhs = product_spec((1, 5), 6, 1)
        rhs = product_spec((2, 4), 6, 1)
        for order in (4, 10, 30):
            report = dominates(lhs, rhs, order)
            assert report.failure == (4, -1)

    def test_oracle_agreement_infinite_residues(self):
        lhs = product_spec((1, 4), 5)
        rhs = product_spec((2, 3), 5)
        n = 24
        want_lhs = partition_counts_upto(n, residue_parts([1, 4], 5, n))
        want_rhs = partition_counts_upto(n, residue_parts([2, 3], 5, n))
        got = spec_reciprocal(lhs, n).coeffs
        sub = spec_reciprocal(rhs, n).coeffs
        assert list(got) == want_lhs
        assert list(sub) == want_rhs


def separate_reciprocals(P, Q, order):
    return spec_reciprocal(P, order), spec_reciprocal(Q, order)


def separate_packed_reciprocals(packing, first, second):
    return packing.divide(1, first), packing.divide(1, second)


def paired_reciprocals(P, Q, order):
    first, second = exponents(P, order), exponents(Q, order)
    packing = series._Signed.for_reciprocals(order, first, second)
    return tuple(map(packing.decode, packing.reciprocal_pair(first, second)))


class TestSharedFactorPair:
    # Each caller expands 1/P and 1/Q in one pair call that applies the factors
    # they share once; its results must be those of two separate expansions.

    def test_identical_sides_give_a_zero_difference(self):
        P = nbase_pair((1, 2, 3), (2, 1, 2), 1, 20)[0]
        report = dominates(P, P, 300)
        assert report.holds
        assert report.failure is None
        assert report.difference.is_zero()
        assert paired_reciprocals(P, P, 300) == separate_reciprocals(P, P, 300)

    def test_dominates_matches_separate_expansions(self, monkeypatch):
        P, Q = nbase_pair((1, 2, 3, 2), (2, 1, 2, 1), 1, 21)
        assert paired_reciprocals(P, Q, 400) == separate_reciprocals(P, Q, 400)
        paired = dominates(P, Q, 400)
        monkeypatch.setattr(series._Signed, "reciprocal_pair", separate_packed_reciprocals)
        separate = dominates(P, Q, 400)
        assert (separate.failure, separate.difference) == (paired.failure, paired.difference)

    @pytest.mark.parametrize(
        "split, sizes", [("thm1", ((1, 2), (2, 2))), ("thm2", ((1, 2, 1), (2, 3, 2)))]
    )
    def test_certify_split_matches_separate_expansions(self, split, sizes, monkeypatch):
        P, Q = nbase_pair(*sizes, 1, 3)
        assert paired_reciprocals(P, Q, 40) == separate_reciprocals(P, Q, 40)
        paired = certify_split(P, Q, 40, split)
        assert paired == {"ok": True, "witness": None}
        monkeypatch.setattr(series._Signed, "reciprocal_pair", separate_packed_reciprocals)
        assert certify_split(P, Q, 40, split) == paired


lengths = st.one_of(st.just(INF), st.integers(1, 8))
small_bases = st.lists(st.integers(1, 12), min_size=1, max_size=4)
PAIR_SHAPES = ("disjoint", "shared", "identical", "free")


@st.composite
def dominance_pairs(draw):
    """(P, Q, order), the two products related as the drawn shape says.

    "disjoint" draws two residue pairs {r, m - r} of one modulus, as RR and
    BGa are; "shared" an n-base pair, whose sides share most factors;
    "identical" one product twice; "free" two unrelated products, which
    mostly fail.
    """
    order = draw(st.integers(0, 150))
    shape = draw(st.sampled_from(PAIR_SHAPES))
    L = draw(lengths)
    if shape == "disjoint":
        m = draw(st.integers(2, 12))
        r, s = draw(st.integers(1, m - 1)), draw(st.integers(1, m - 1))
        P, Q = product_spec((r, m - r), m, L), product_spec((s, m - s), m, L)
    elif shape == "shared":
        n = draw(st.integers(2, 4))
        sizes = st.lists(st.integers(1, 4), min_size=n, max_size=n)
        P, Q = nbase_pair(draw(sizes), draw(sizes), draw(st.integers(1, 4)), L)
    elif shape == "identical":
        P = Q = product_spec(draw(small_bases), draw(st.integers(1, 8)), L)
    else:
        m = draw(st.integers(1, 10))
        P, Q = product_spec(draw(small_bases), m, L), product_spec(draw(small_bases), m, draw(lengths))
    if draw(st.booleans()):
        P, Q = Q, P
    return P, Q, order


@settings(max_examples=120, deadline=None)
@given(dominance_pairs())
@example((product_spec((1, 4), 5), product_spec((2, 3), 5), 150))  # RR
@example((product_spec((1, 5), 6, 1), product_spec((2, 4), 6, 1), 30))  # BGa (6, 2): fails at q^4
@example((product_spec((1, 7), 8, 12), product_spec((6, 2), 8, 12), 150))  # BGa (8, 6): fails
@example((*nbase_pair((1, 2, 3, 2), (2, 1, 2, 1), 1, 21), 400))
@example((product_spec((1, 2, 3), 1, 20), product_spec((1, 2, 3), 1, 20), 300))
@example((product_spec((1,), 1), product_spec((1,), 1, 1), 0))
def test_dominates_matches_the_list_kernel(pair):
    # The oracle expands each side on its own by the list kernel and
    # subtracts the two lists.
    P, Q, order = pair
    report = dominates(P, Q, order)
    failure, difference = dominates_by_lists(P, Q, order)
    assert (report.holds, report.failure, report.difference) == (failure is None, failure, difference)
    assert all(type(c) is int for c in report.difference.coeffs)


class TestNamed:
    def test_rr_holds(self):
        assert check_named(named("RR"), 40).holds

    def test_finite_rr_holds_and_matches_oracle(self):
        ineq = named("finiteRR", L=3)
        report = check_named(ineq, 30)
        assert report.holds
        lhs_parts = [1, 6, 11, 4, 9, 14]
        rhs_parts = [2, 7, 12, 3, 8, 13]
        want_lhs = partition_counts_upto(30, lhs_parts)
        want_rhs = partition_counts_upto(30, rhs_parts)
        lhs, rhs = build_specs(ineq)
        assert list(spec_reciprocal(lhs, 30).coeffs) == want_lhs
        assert list(spec_reciprocal(rhs, 30).coeffs) == want_rhs

    def test_bga_known_failure(self):
        report = check_named(named("BGa", m=6, r=2, L=1), 10)
        assert report.failure == (4, -1)

    def test_bga_holds_when_neither_divides(self):
        report = check_named(named("BGa", m=7, r=2, L=2), 40)
        assert report.holds

    def test_bga_expected_criterion(self):
        assert bga_expected(7, 2)
        assert bga_expected(8, 3)
        assert not bga_expected(6, 2)
        assert not bga_expected(6, 3)
        assert not bga_expected(8, 2)

    def test_bga_degenerate_cases(self):
        assert bga_degenerate(6, 1)
        assert bga_degenerate(6, 5)
        assert not bga_degenerate(6, 2)
        report = check_named(named("BGa", m=6, r=1, L=2), 20)
        assert report.holds

    def test_a_degenerate_bga_pair_is_logged(self, caplog):
        """`dominance` imports logging only to emit this line; it still reaches its logger."""
        with caplog.at_level(logging.INFO, logger="qdominance.dominance"):
            assert check_named(named("BGa", m=4, r=1, L=2), 20).holds
        assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
            ("qdominance.dominance", logging.INFO, "BGa m=4 r=1 is degenerate: both sides identical")
        ]
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="qdominance.dominance"):
            check_named(named("BGa", m=7, r=2, L=2), 20)
        assert caplog.records == []

    def test_little_gollnitz_holds_and_matches_oracle(self):
        ineq = named("littleGollnitz", L=4)
        assert check_named(ineq, 40).holds
        lhs, rhs = build_specs(named("littleGollnitz", L=5))
        n = 20
        assert list(spec_reciprocal(lhs, n).coeffs) == partition_counts_upto(
            n, residue_parts([1, 5, 6], 8, n)
        )
        assert list(spec_reciprocal(rhs, n).coeffs) == partition_counts_upto(
            n, residue_parts([2, 3, 7], 8, n)
        )

    def test_bgr_matches_little_gollnitz_at_y3(self):
        lhs_g, rhs_g = build_specs(named("littleGollnitz", L=2))
        lhs_b, rhs_b = build_specs(named("BGr", y=3, L=2))
        assert lhs_g == lhs_b and rhs_g == rhs_b
        assert check_named(named("BGr", y=5, L=2), 40).holds

    def test_thm1_trivial_equal_specs(self):
        ineq = named("Thm1", L=1, m=1, x=1, y=1, r=1, R=1)
        lhs, rhs = build_specs(ineq)
        diff = spec_reciprocal(lhs, 15).coeffs
        assert check_named(ineq, 15).holds
        assert diff == spec_reciprocal(rhs, 15).coeffs

    def test_thm1_holds_and_matches_oracle(self):
        ineq = named("Thm1", L=2, m=3, x=1, y=2, r=2, R=2)
        assert check_named(ineq, 40).holds
        lhs, rhs = build_specs(ineq)
        assert list(spec_reciprocal(lhs, 12).coeffs) == partition_counts_upto(
            12, [1, 4, 2, 5, 6, 9]
        )
        assert list(spec_reciprocal(rhs, 12).coeffs) == partition_counts_upto(
            12, [2, 5, 4, 7, 3, 6]
        )

    def test_thm2_holds_and_matches_oracle(self):
        ineq = named("Thm2", L=1, m=2, x=1, y=1, z=1, r=2, R=2, rho=2)
        assert check_named(ineq, 40).holds
        lhs, rhs = build_specs(ineq)
        assert list(spec_reciprocal(lhs, 12).coeffs) == partition_counts_upto(
            12, [1, 1, 1, 6]
        )
        assert list(spec_reciprocal(rhs, 12).coeffs) == partition_counts_upto(
            12, [2, 2, 2, 3]
        )

    def test_proposal_matches_sextuple_form(self):
        ineq = named("Proposal", L=2, m=9, xs=(1, 2), rs=(2, 3))
        lhs, rhs = build_specs(ineq)
        expected = build_specs(named("Thm1", L=2, m=9, x=1, y=2, r=2, R=3))
        assert (lhs, rhs) == expected
        assert check_named(ineq, 30).holds


class TestNbasePair:
    def test_bases(self):
        P, Q = nbase_pair((1, 2, 3), (2, 3, 4), 7, 2)
        assert P.bases == (1, 2, 3, 20)
        assert Q.bases == (2, 6, 12, 6)
        assert (P.modulus, P.length) == (Q.modulus, Q.length) == (7, 2)

    def test_theorems_are_the_two_and_three_size_cases(self):
        thm1 = build_specs(named("Thm1", L=3, m=4, x=1, y=2, r=3, R=2))
        assert thm1 == nbase_pair((1, 2), (3, 2), 4, 3)
        thm2 = build_specs(named("Thm2", L=2, m=5, x=1, y=2, z=3, r=2, R=1, rho=3))
        assert thm2 == nbase_pair((1, 2, 3), (2, 1, 3), 5, 2)

    def test_params_invert_the_pair(self):
        for xs, rs in [((1,), (1,)), ((2, 2), (1, 3)), ((1, 2, 1), (4, 1, 2)), ((3, 1, 2, 5), (1, 1, 2, 2))]:
            assert nbase_params(*nbase_pair(xs, rs, 6, 2)) == (xs, rs)

    def test_params_refuse_other_pairs(self):
        P, Q = nbase_pair((1, 2), (2, 3), 5, 2)
        others = [
            build_specs(named("finiteRR", L=2)),
            build_specs(named("BGr", y=3, L=2)),
            (Q, P),
            (P, nbase_pair((1, 2), (2, 3), 6, 2)[1]),
            (P, nbase_pair((1, 2), (2, 3), 5, 3)[1]),
            (product_spec((3, 1), 5, 2), product_spec((1, 4), 5, 2)),
        ]
        for pair in others:
            with pytest.raises(ValueError, match="n-base"):
                nbase_params(*pair)

    def test_rejects_bad_sizes(self):
        for xs, rs in [((), ()), ((1, 2), (2,)), ((True, 2), (2, 2)), ((1, 2), (2, 0))]:
            with pytest.raises(ValueError):
                nbase_pair(xs, rs, 5, 2)


class TestValidation:
    def test_unknown_id(self):
        with pytest.raises(ValueError):
            named("Thm3", L=1)

    def test_missing_parameter(self):
        with pytest.raises(ValueError):
            named("BGa", m=6, r=2)

    def test_extra_parameter(self):
        with pytest.raises(ValueError):
            named("RR", L=1)

    def test_bga_range(self):
        with pytest.raises(ValueError):
            build_specs(named("BGa", m=6, r=6, L=1))

    def test_bgr_even_y(self):
        with pytest.raises(ValueError):
            build_specs(named("BGr", y=4, L=1))

    def test_nonpositive(self):
        with pytest.raises(ValueError):
            build_specs(named("Thm1", L=1, m=0, x=1, y=1, r=1, R=1))
        with pytest.raises(ValueError):
            build_specs(named("Thm2", L=1, m=2, x=1, y=1, z=True, r=1, R=1, rho=1))
        with pytest.raises(ValueError):
            build_specs(named("finiteRR", L=2.0))

    def test_proposal_length_mismatch(self):
        with pytest.raises(ValueError):
            build_specs(named("Proposal", L=1, m=5, xs=(1, 2), rs=(2,)))

    def test_proposal_rejects_bool_sizes(self):
        with pytest.raises(ValueError, match="xs"):
            build_specs(named("Proposal", L=1, m=5, xs=(True, 2), rs=(2, 2)))


class TestReportDict:
    def test_holding_report(self):
        report = check_named(named("RR"), 12)
        data = report_dict(report, "RR", {})
        assert data == {
            "inequality": "RR",
            "parameters": {},
            "order": 12,
            "holds": True,
            "failure_exponent": None,
            "deficit": None,
        }

    def test_failing_report(self):
        params = {"m": 6, "r": 2, "L": 1}
        report = check_named(named("BGa", **params), 10)
        data = report_dict(report, "BGa", params)
        assert data["holds"] is False
        assert data["failure_exponent"] == 4
        assert data["deficit"] == -1

    def test_plain_report(self):
        spec = product_spec((1,), 1)
        data = report_dict(dominates(spec, spec, 5))
        assert data["inequality"] is None
        assert data["holds"] is True
