"""Injection machinery, the h splitting, and the generalized checker."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from qdominance.dominance import NamedInequality, build_specs
from qdominance.proposal import (
    CountVector,
    NotInImageError,
    ProposalParams,
    check_proposal,
    fourvar_identity,
    h_scan,
    h_series,
    image_vectors,
    inject,
    injection_evidence,
    invert,
    proposal_params,
    proposal_status,
    source_vectors,
)
from qdominance.series import first_negative

EXAMPLE = proposal_params((1, 2), (2, 3))


class TestProposalParams:
    def test_sums_and_sizes(self):
        assert EXAMPLE.n == 2
        assert EXAMPLE.weighted_sum == 8
        assert EXAMPLE.plain_sum == 3
        assert EXAMPLE.source_sizes == (2, 6, 3)
        assert EXAMPLE.image_sizes == (1, 2, 8)

    def test_validation(self):
        with pytest.raises(ValueError):
            proposal_params((), ())
        with pytest.raises(ValueError):
            proposal_params((1, 2), (1,))
        with pytest.raises(ValueError):
            proposal_params((1, 0), (1, 1))
        with pytest.raises(ValueError):
            proposal_params((1, 1), (1, -2))
        with pytest.raises(ValueError):
            proposal_params((True, 2), (2, 2))
        with pytest.raises(ValueError):
            proposal_params((1, 2), (2, 2.0))


class TestCountVector:
    def test_minimum(self):
        assert CountVector((3, 1), 2).minimum == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            CountVector((), 0)
        with pytest.raises(ValueError):
            CountVector((1, -1), 0)
        with pytest.raises(ValueError):
            CountVector((1, 1), -1)

    def test_witness_defaults_to_none(self):
        assert CountVector((1,), 0).witness is None


class TestInject:
    def test_worked_example(self):
        source = CountVector((3, 1), 2)
        image = inject(source, EXAMPLE)
        assert image.counts == (6, 2)
        assert image.joint == 1
        assert image.witness == 2
        assert EXAMPLE.source_weight(source) == 18
        assert EXAMPLE.image_weight(image) == 18

    def test_zero_maps_to_zero(self):
        image = inject(CountVector((0, 0), 0), EXAMPLE)
        assert (image.counts, image.joint) == ((0, 0), 0)

    def test_zero_minimum_formula(self):
        # with mu' = 0 the image counts are r_(i) * count + joint directly
        source = CountVector((0, 4), 5)
        image = inject(source, EXAMPLE)
        assert image.counts == (2 * 0 + 5, 3 * 4 + 5)
        assert image.joint == 0

    def test_arity_checked(self):
        with pytest.raises(ValueError):
            inject(CountVector((1, 1, 1), 0), EXAMPLE)

    def test_weight_preserved_and_witness_valid(self):
        for source in source_vectors(EXAMPLE, 20):
            image = inject(source, EXAMPLE)
            assert EXAMPLE.image_weight(image) == EXAMPLE.source_weight(source)
            assert all(
                (c - image.witness) % r == 0
                for c, r in zip(image.counts, EXAMPLE.r)
            )

    def test_injective_on_enumeration(self):
        images = {
            (img.counts, img.joint)
            for img in (inject(s, EXAMPLE) for s in source_vectors(EXAMPLE, 20))
        }
        assert len(images) == sum(1 for _ in source_vectors(EXAMPLE, 20))


class TestInvert:
    def test_round_trip_of_worked_example(self):
        image = CountVector((6, 2), 1)
        source = invert(image, EXAMPLE)
        assert source.counts == (3, 1)
        assert source.joint == 2

    def test_zero(self):
        assert invert(CountVector((0, 0), 0), EXAMPLE).counts == (0, 0)

    def test_not_in_image(self):
        with pytest.raises(NotInImageError):
            invert(CountVector((1, 0), 0), EXAMPLE)

    def test_arity_checked(self):
        with pytest.raises(ValueError):
            invert(CountVector((1,), 0), EXAMPLE)

    def test_identity_on_all_sources(self):
        for source in source_vectors(EXAMPLE, 24):
            assert invert(inject(source, EXAMPLE), EXAMPLE) == source

    def test_image_characterization(self):
        # dominant-side vectors that invert cleanly biject with the sources,
        # weight by weight; the rest fail the divisibility precondition
        sources = Counter(
            EXAMPLE.source_weight(s) for s in source_vectors(EXAMPLE, 16)
        )
        in_image = Counter()
        for pi in image_vectors(EXAMPLE, 16):
            try:
                back = invert(pi, EXAMPLE)
            except NotInImageError:
                continue
            reinjected = inject(back, EXAMPLE)
            assert (reinjected.counts, reinjected.joint) == (pi.counts, pi.joint)
            in_image[EXAMPLE.image_weight(pi)] += 1
        assert in_image == sources


class TestHSeries:
    def test_all_unit_multipliers_vanish(self):
        assert h_series((1, 1, 1, 1, 1, 1), 20).is_zero()
        assert h_series((3, 4, 5, 1, 1, 1), 20).is_zero()

    def test_documented_tuples_nonnegative(self):
        assert first_negative(h_series((1, 1, 1, 2, 2, 2), 40)) is None
        assert first_negative(h_series((2, 3, 5, 2, 2, 3), 40)) is None

    def test_fractional_coefficients_appear(self):
        # only the weight-1/3 lone block reaches the smallest exponent
        assert h_series((1, 2, 3, 2, 2, 2), 10).coeff(1) == Fraction(1, 3)

    def test_scan_shape(self):
        scan = h_scan((1, 1, 1, 2, 2, 2), 12)
        assert scan == {
            "params": (1, 1, 1, 2, 2, 2),
            "order": 12,
            "first_negative": None,
            "nonnegative": True,
        }

    def test_validation(self):
        with pytest.raises(ValueError):
            h_series((1, 1, 1, 2, 2), 10)
        with pytest.raises(ValueError):
            h_series((1, 1, 0, 2, 2, 2), 10)
        with pytest.raises(ValueError):
            h_series((True, 1, 1, 2, 2, 2), 5)


class TestFourvarIdentity:
    def test_unit_multipliers_trivial(self):
        verdict = fourvar_identity((1, 1, 1, 1, 1, 1, 1, 1), 20)
        assert verdict["equal"] and verdict["witness"] is None

    def test_documented_tuples(self):
        assert fourvar_identity((1, 1, 1, 1, 2, 2, 2, 2), 30)["equal"]
        assert fourvar_identity((1, 2, 3, 4, 2, 3, 2, 3), 30)["equal"]

    def test_random_tuples(self):
        rng = random.Random(11)
        for _ in range(6):
            params = tuple(rng.randint(1, 4) for _ in range(8))
            assert fourvar_identity(params, 20)["equal"], params

    def test_validation(self):
        with pytest.raises(ValueError):
            fourvar_identity((1, 1, 1, 1, 2, 2, 2), 10)
        with pytest.raises(ValueError):
            fourvar_identity((1, 1, 1, True, 2, 2, 2, 2), 10)


class TestCheckProposal:
    def test_status_ladder(self):
        assert proposal_status(1, 5) == "theorem"
        assert proposal_status(3, 4) == "theorem"
        assert proposal_status(4, 1) == "proved-L1"
        assert proposal_status(4, 2) == "conjecture-evidence"
        assert proposal_status(6, 3) == "conjecture-evidence"

    def test_single_variable_sides_coincide(self):
        result = check_proposal(proposal_params((2,), (3,)), 5, 2, 30)
        assert result["status"] == "theorem"
        assert result["holds"]
        assert result["report"]["failure_exponent"] is None

    def test_two_variable_example(self):
        result = check_proposal(EXAMPLE, 3, 1, 40)
        assert result["status"] == "theorem"
        assert result["holds"]
        assert result["injection"]["ok"]

    def test_three_variable_two_layers(self):
        result = check_proposal(proposal_params((1, 1, 2), (2, 3, 2)), 2, 2, 40)
        assert result["status"] == "theorem"
        assert result["holds"]
        assert result["injection"] is None

    def test_four_variable_statuses(self):
        params = proposal_params((1, 1, 2, 1), (2, 3, 2, 2))
        at_one = check_proposal(params, 2, 1, 30)
        assert at_one["status"] == "proved-L1"
        assert at_one["holds"] and at_one["injection"]["ok"]
        at_two = check_proposal(params, 2, 2, 30)
        assert at_two["status"] == "conjecture-evidence"
        assert at_two["holds"] and at_two["injection"] is None

    def test_specs_match_the_named_shapes(self):
        proposal2 = NamedInequality(
            "Proposal", {"L": 2, "m": 5, "xs": (1, 2), "rs": (2, 3)}
        )
        named2 = NamedInequality(
            "Thm1", {"L": 2, "m": 5, "x": 1, "y": 2, "r": 2, "R": 3}
        )
        assert build_specs(proposal2) == build_specs(named2)
        proposal3 = NamedInequality(
            "Proposal", {"L": 1, "m": 4, "xs": (1, 2, 3), "rs": (2, 1, 2)}
        )
        named3 = NamedInequality(
            "Thm2",
            {"L": 1, "m": 4, "x": 1, "y": 2, "z": 3, "r": 2, "R": 1, "rho": 2},
        )
        assert build_specs(proposal3) == build_specs(named3)

    def test_injection_evidence_shape(self):
        evidence = injection_evidence(EXAMPLE, 12)
        assert evidence["ok"] and evidence["failure"] is None
        assert evidence["source_count"] == sum(
            1 for _ in source_vectors(EXAMPLE, 12)
        )
