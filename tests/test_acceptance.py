"""Release acceptance suite: the end-to-end certification runs.

Everything here is exact integer/rational arithmetic on truncated
series; a single negative coefficient or count mismatch anywhere is a
release blocker, and the assertion message carries the witness.
"""

import itertools
import random
import time

from qdominance.antitelescope import decompositions
from qdominance.dominance import (
    NamedInequality,
    bga_degenerate,
    bga_expected,
    build_specs,
    check_named,
)
from qdominance.lemma import (
    LemmaParams,
    check_eqone_eqthree,
    f_expand,
    negativity_window,
    slice_eqtwo,
)
from qdominance.partitions import PartitionParams, interpretation_check
from qdominance.polyring import (
    RationalTerm,
    four_factor_identity_sides,
    identity_check,
    three_factor_identity_sides,
)
from qdominance.proposal import (
    check_proposal,
    fourvar_identity,
    h_series,
    injection_evidence,
    proposal_params,
)
from qdominance.series import (
    QSeries,
    first_negative,
    poly_from_exponents,
    product_spec,
    reciprocal_from_exponents,
    series_add,
    series_mul,
    series_reciprocal,
    series_sub,
    spec_reciprocal,
)

SEED = 20260819

# Interpretation tuples (m, x, y, r, R, L): five size collisions (x == y),
# one y == r*x collision, unit multipliers on either side, lengths 1..3.
INTERPRETATION_TUPLES = (
    (5, 1, 1, 2, 2, 2),
    (3, 1, 2, 2, 2, 1),
    (4, 2, 3, 1, 2, 2),
    (3, 2, 2, 3, 1, 1),
    (6, 1, 3, 2, 1, 2),
    (3, 3, 3, 2, 2, 2),
    (2, 1, 2, 3, 3, 1),
    (4, 1, 1, 4, 4, 2),
    (5, 2, 3, 2, 3, 1),
    (10, 1, 1, 2, 2, 3),
    (4, 2, 2, 2, 2, 2),
    (2, 2, 1, 3, 2, 3),
)


def truncate(a: QSeries, order: int) -> QSeries:
    return QSeries.from_coeffs(a.coeffs[: order + 1], order)


class TestNaiveFailure:
    def test_second_addend_dips_at_exponent_eight(self):
        """The naive two-product telescoping goes negative at q^8, every length."""
        started = time.perf_counter()
        for L in (2, 3, 4, 5):
            P, Q = product_spec((1, 4), 5, L), product_spec((2, 3), 5, L)
            a = list(decompositions(P, Q, 16))[1].addend
            assert a.coeff(8) == -1, L
        assert time.perf_counter() - started < 1.0


class TestTwoBaseSplitBox:
    def test_full_box_is_nonnegative_and_telescopes(self):
        """All 4096 sextuples in [1,4]^6 at N=60: difference and every V(i),
        W(i) nonnegative, and the groups sum back to the difference exactly."""
        order = 60
        for values in itertools.product(range(1, 5), repeat=6):
            L, m, x, y, r, R = values
            ineq = NamedInequality(
                "Thm1", {"L": L, "m": m, "x": x, "y": y, "r": r, "R": R}
            )
            lhs, rhs = build_specs(ineq)
            diff = series_sub(spec_reciprocal(lhs, order), spec_reciprocal(rhs, order))
            assert first_negative(diff) is None, values
            total = QSeries.zero(order)
            for decomposition in decompositions(lhs, rhs, order, "thm1"):
                i = decomposition.index
                group_total = QSeries.zero(order)
                for name, group in decomposition.groups:
                    assert first_negative(group) is None, (values, i, name)
                    group_total = series_add(group_total, group)
                assert group_total == decomposition.addend, (values, i)
                total = series_add(total, group_total)
            assert total == diff, values


class TestThreeBaseSplitSample:
    def test_sampled_octuples_are_nonnegative_and_telescope(self):
        """500 sampled octuples in [1,4]^8 at N=60: difference nonnegative,
        every split group nonnegative, groups sum to addends, addends to the
        difference."""
        order = 60
        rng = random.Random(SEED)
        for _ in range(500):
            values = tuple(rng.randint(1, 4) for _ in range(8))
            L, m, x, y, z, r, R, rho = values
            ineq = NamedInequality(
                "Thm2",
                {"L": L, "m": m, "x": x, "y": y, "z": z, "r": r, "R": R, "rho": rho},
            )
            lhs, rhs = build_specs(ineq)
            diff = series_sub(spec_reciprocal(lhs, order), spec_reciprocal(rhs, order))
            assert first_negative(diff) is None, values
            total = QSeries.zero(order)
            for decomposition in decompositions(lhs, rhs, order, "thm2"):
                i = decomposition.index
                decomposition = decomposition.unscaled()
                group_total = QSeries.zero(order)
                for name, group in decomposition.groups:
                    assert first_negative(group) is None, (values, i, name)
                    group_total = series_add(group_total, group)
                assert group_total == decomposition.addend, (values, i)
                total = series_add(total, group_total)
            assert total == diff, values


class TestKernelGrid:
    def test_signs_slices_window_and_symmetry(self):
        """(r, R) in [1,5]^2 at bounds (10,40,40): nonnegative expansion,
        term slices reproduce it for every n <= 10, per-term negativity stays
        inside the window, and swapping (r, R) transposes the grid."""
        bounds = (10, 40, 40)
        expansions = {}
        for r in range(1, 6):
            for R in range(1, 6):
                params = LemmaParams(r, R, bounds)
                tri = f_expand(params)
                expansions[(r, R)] = tri
                assert tri.min_coefficient() >= 0, (r, R)
                for n in range(bounds[0] + 1):
                    got = slice_eqtwo(n, params)
                    assert got.coeffs == tuple(
                        tuple(row) for row in tri.slice_at(n)
                    ), (r, R, n)
                window = negativity_window(params)
                assert window["checks"]["window_contained"], (r, R)
                assert window["ok"], (r, R, window)
        for (r, R), tri in expansions.items():
            other = expansions[(R, r)]
            for n in range(bounds[0] + 1):
                rows = tri.slice_at(n)
                transposed = [list(col) for col in zip(*other.slice_at(n))]
                assert rows == transposed, (r, R, n)


class TestIdentityCertification:
    def test_slice_closed_forms_agree_exactly(self):
        for n in range(7):
            for r in range(1, 5):
                for R in range(1, 5):
                    verdict = check_eqone_eqthree(n, r, R)
                    assert verdict.one_vs_three.equal, (n, r, R)
                    assert verdict.three_vs_two.equal, (n, r, R)

    def test_five_variable_polynomial_identity(self):
        lhs, rhs = three_factor_identity_sides()
        assert identity_check([RationalTerm(lhs)], [RationalTerm(rhs)]).equal

    def test_seven_variable_polynomial_identity(self):
        lhs, rhs = four_factor_identity_sides()
        assert identity_check([RationalTerm(lhs)], [RationalTerm(rhs)]).equal


class TestPartitionInterpretation:
    def test_counts_match_series_for_every_configured_tuple(self):
        """Restricted counts equal the split-series coefficients for all
        n <= 30; a mismatch fails with the minimal witness."""
        assert len(INTERPRETATION_TUPLES) >= 10
        assert sum(1 for m, x, y, *_ in INTERPRETATION_TUPLES if x == y) >= 3
        for values in INTERPRETATION_TUPLES:
            params = PartitionParams.from_values(values)
            check = interpretation_check(params, 30)
            assert check["ok"], {"params": values, "witness": check["witness"]}


class TestDivisibilityBoundary:
    def test_both_directions_over_the_box(self):
        """m in [3,8], r in [1,m-1], L in [1,3] at N=40: dominance holds
        exactly when neither of r, m-r divides the other; divisible distinct
        pairs fail; equal-spec cases are logged, not counted."""
        held = failed = degenerate = 0
        for m in range(3, 9):
            for r in range(1, m):
                for L in range(1, 4):
                    report = check_named(
                        NamedInequality("BGa", {"m": m, "r": r, "L": L}), 40
                    )
                    if bga_degenerate(m, r):
                        degenerate += 1
                        assert report.holds, (m, r, L)
                        continue
                    if bga_expected(m, r):
                        assert report.holds, (m, r, L)
                        held += 1
                    else:
                        assert not report.holds, (m, r, L)
                        failed += 1
        assert (held, failed, degenerate) == (24, 21, 36)

    def test_known_failure_exponent(self):
        report = check_named(NamedInequality("BGa", {"m": 6, "r": 2, "L": 1}), 40)
        assert report.failure[0] == 4


class TestGeneralizedSuite:
    def test_h_series_nonnegative_on_the_full_small_box(self):
        for values in itertools.product(range(1, 4), repeat=6):
            assert first_negative(h_series(values, 60)) is None, values

    def test_four_variable_identity_on_sampled_tuples(self):
        rng = random.Random(SEED)
        for _ in range(50):
            values = tuple(rng.randint(1, 3) for _ in range(8))
            outcome = fourvar_identity(values, 40)
            assert outcome["equal"], (values, outcome["witness"])

    def test_injection_exhaustive_on_small_parameters(self):
        """Weight preservation, injectivity and round-trip for every size and
        multiplier vector with entries <= 3 and at most 3 slots, weights <= 40."""
        for n in (1, 2, 3):
            for sizes in itertools.product(range(1, 4), repeat=n):
                for multipliers in itertools.product(range(1, 4), repeat=n):
                    params = proposal_params(sizes, multipliers)
                    evidence = injection_evidence(params, 40)
                    assert evidence["ok"], (sizes, multipliers, evidence["failure"])

    def test_short_tuples_hold_everywhere_tested(self):
        for n in (1, 2, 3):
            for sizes in itertools.product((1, 2), repeat=n):
                for multipliers in itertools.product((1, 2), repeat=n):
                    for m in (1, 3):
                        outcome = check_proposal(
                            proposal_params(sizes, multipliers), m, 1, 40
                        )
                        assert outcome["holds"], (sizes, multipliers, m)
                        assert outcome["status"] == "theorem"
                        assert outcome["injection"]["ok"]

    def test_longer_tuples_at_unit_length_hold(self):
        rng = random.Random(SEED)
        for _ in range(50):
            n = rng.randint(4, 5)
            sizes = tuple(rng.randint(1, 3) for _ in range(n))
            multipliers = tuple(rng.randint(1, 3) for _ in range(n))
            m = rng.randint(1, 4)
            outcome = check_proposal(proposal_params(sizes, multipliers), m, 1, 40)
            assert outcome["holds"], (sizes, multipliers, m)
            assert outcome["status"] == "proved-L1"
            assert outcome["injection"]["ok"]

    def test_sampled_longer_lengths_gather_conjecture_evidence(self):
        rng = random.Random(SEED)
        for _ in range(200):
            n = rng.randint(4, 5)
            sizes = tuple(rng.randint(1, 3) for _ in range(n))
            multipliers = tuple(rng.randint(1, 3) for _ in range(n))
            m = rng.randint(1, 4)
            L = rng.choice((2, 3))
            outcome = check_proposal(proposal_params(sizes, multipliers), m, L, 40)
            assert outcome["holds"], (sizes, multipliers, m, L)
            assert outcome["status"] == "conjecture-evidence"
            assert outcome["injection"] is None


class TestInfrastructureProperties:
    def test_one_thousand_randomized_property_checks(self):
        rng = random.Random(SEED)
        for check in range(1000):
            kind = check % 3
            order = rng.randint(8, 24)
            if kind == 0:
                # reciprocal round-trip on a random unit series
                a = QSeries.from_coeffs(
                    [1] + [rng.randint(-3, 3) for _ in range(order)], order
                )
                assert series_mul(a, series_reciprocal(a)) == QSeries.one(order), check
            elif kind == 1:
                # truncating before or after a product gives the same series
                a = QSeries.from_coeffs(
                    [rng.randint(-3, 3) for _ in range(order + 1)], order
                )
                b = QSeries.from_coeffs(
                    [rng.randint(-3, 3) for _ in range(order + 1)], order
                )
                shorter = rng.randint(0, order)
                assert truncate(series_mul(a, b), shorter) == series_mul(
                    truncate(a, shorter), truncate(b, shorter)
                ), check
            else:
                # finite-product reciprocals are nonnegative integers and invert
                exponents = [rng.randint(1, 6) for _ in range(rng.randint(1, 5))]
                rec = reciprocal_from_exponents(exponents, order)
                assert all(isinstance(c, int) and c >= 0 for c in rec.coeffs), check
                poly = poly_from_exponents(exponents, order)
                assert series_mul(rec, poly) == QSeries.one(order), check
