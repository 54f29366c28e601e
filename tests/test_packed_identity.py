"""The packed identity check against the dict-polynomial check it replaced.

`polyring.identity_check` packs the cleared numerator of lhs - rhs into
one int; `reference_polyring.reference_identity_check` builds it as a
`MultiPoly`, one `mp_mul` per missing factor.  Verdicts and witnesses must
agree on random sides over 1 to 7 variables (with int
coefficients, negative exponents, factors equal up to sign, repeated
factors, zero numerators and empty sides), on sides equal by
construction and then perturbed, on the (lhs, rhs) pairs of the
identity table that the `identities` command walks (`IDENTITIES` of
`antitelescope`, `lemma` and `proposal`), and on the 100 pairs of the
reference slice chain
(`reference_lemma.slice_identity`): its 10 pairs over free X = x^r and
Y = y^R for n <= 4, and 90 pairs read with ints at r, R <= 3, all true
and perturbed.  The width tests decode the whole packed int and compare
it with the reference's cleared numerator.

The package applies each missing denominator factor to a packed share
term by term, as shifts; `reference_polyring.product_pack_difference`
multiplies by the packed factor's powers instead.  Both must give the
same packed int on the table's pairs and the chain's 10 form pairs,
true and perturbed, and on random sides, whose factors have up to three
terms.  Every denominator factor of those checks is a binomial, the
traffic the shift path is sized for.

The table gate walks every row of the table, every pair and both sides:
it drops and doubles each rational term, drops each denominator factor,
and drops and doubles each numerator monomial of a seeded sample.  Each
edit must be refused with a monomial witness over the pair's variables,
so a row added to the table gets the gate with no test of its own.
"""

import random
import tracemalloc
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdominance import antitelescope, lemma, polyring, proposal
from qdominance.polyring import (
    MultiPoly,
    RationalTerm,
    VariableMismatchError,
    _pack_difference,
    decide_identity,
    identity_check,
)
from qdominance.series import ResourceError
import reference_lemma
from reference_polyring import (
    cleared_numerator,
    mono,
    mp_mul,
    mp_neg,
    mp_sub,
    product_pack_difference,
    reference_identity_check,
)

VARIABLES = ("t", "x", "y", "z", "a", "b", "c")
coefficients = st.integers(-3, 3)


@st.composite
def polys(draw, variables, nonzero=False, max_terms=4):
    # the packed box grows as the exponent span to the power of the number
    # of variables, so more variables get narrower exponents
    low, high = (-2, 3) if len(variables) <= 3 else (-1, 1)
    exps = st.tuples(*[st.integers(low, high)] * len(variables))
    terms = draw(st.dictionaries(exps, coefficients, min_size=int(nonzero), max_size=max_terms))
    p = MultiPoly(variables, terms)
    if nonzero and p.is_zero():
        return mono(variables, 1)
    return p


@st.composite
def sides(draw, variables, pool):
    """Up to three terms whose factors are drawn, with repeats, from the pool."""
    terms = []
    for _ in range(draw(st.integers(0, 3))):
        factors = draw(st.lists(st.sampled_from(pool), max_size=2))
        terms.append(RationalTerm(draw(polys(variables)), tuple(factors)))
    return terms


@st.composite
def problems(draw):
    """(variables, factor pool, lhs, rhs); the pool holds negated copies, so
    (x - 1) meets (1 - x), and one factor twice as an equal object."""
    variables = VARIABLES[: draw(st.integers(1, 7))]
    factor = polys(variables, nonzero=True, max_terms=3 if len(variables) <= 3 else 2)
    base = draw(st.lists(factor, min_size=1, max_size=3))
    pool = base + [mp_neg(f) for f in base] + [MultiPoly(variables, dict(base[0].terms))]
    return variables, pool, draw(sides(variables, pool)), draw(sides(variables, pool))


def outcome(check, lhs, rhs):
    """The verdict, or the type of the error raised (two empty sides have no variables)."""
    try:
        return check(lhs, rhs)
    except VariableMismatchError as exc:
        return type(exc)


@settings(max_examples=150, deadline=None)
@given(problems())
def test_random_sides_match_reference(problem):
    _, _, lhs, rhs = problem
    assert outcome(identity_check, lhs, rhs) == outcome(reference_identity_check, lhs, rhs)


def rewrite(term: RationalTerm, how: int, part: MultiPoly, factor: MultiPoly) -> list[RationalTerm]:
    """Terms whose sum is the same rational function as `term`."""
    num, dens = term.numerator, term.denominator_factors
    if how == 0:
        return [RationalTerm(part, dens), RationalTerm(mp_sub(num, part), dens)]
    if how == 1 and dens:
        return [RationalTerm(mp_neg(num), (mp_neg(dens[0]),) + dens[1:])]
    if how == 2:
        return [RationalTerm(mp_mul(num, factor), dens + (factor,))]
    return [term]


@settings(max_examples=80, deadline=None)
@given(problems(), st.data())
def test_equal_sides_and_their_perturbations_match_reference(problem, data):
    variables, pool, lhs, _ = problem
    lhs = lhs or [RationalTerm(mono(variables, 1))]
    rhs = []
    for term in lhs:
        how = data.draw(st.integers(0, 3))
        part = data.draw(polys(variables))
        rhs += rewrite(term, how, part, data.draw(st.sampled_from(pool)))
    rhs.reverse()
    assert identity_check(lhs, rhs).equal
    assert reference_identity_check(lhs, rhs).equal
    extra = RationalTerm(data.draw(polys(variables, nonzero=True)), data.draw(st.sampled_from([(), (pool[0],)])))
    perturbed = rhs + [extra]
    verdict = identity_check(lhs, perturbed)
    assert not verdict.equal
    assert verdict == reference_identity_check(lhs, perturbed)
    assert identity_check(perturbed, lhs) == reference_identity_check(perturbed, lhs)


def slice_pairs(n, r, R):
    """The two comparisons of slice n's closed forms, eqone with eqthree and eqthree with eqtwo."""
    one, three = reference_lemma.eqone_terms(n, r, R), reference_lemma.eqthree_terms(n, r, R)
    return [(one, three), (three, reference_lemma.eqtwo_terms_rational(n, r, R))]


# the identity table, row by row, as the `identities` command walks it, and its (lhs, rhs) pairs
TABLE = antitelescope.IDENTITIES + lemma.IDENTITIES + proposal.IDENTITIES
COMMAND_CHECKS = [pair for _, sides in TABLE for pair in sides()]
# the reference slice chain over (x, y, X, Y) for n <= 4, then read with ints at every r, R <= 3
SLICE_FORM_CHECKS = [pair for n in range(5) for pair in slice_pairs(n, *reference_lemma.SLICE_FORMS[2:])]
SLICE_INT_CHECKS = [pair for n in range(5) for r in range(1, 4) for R in range(1, 4) for pair in slice_pairs(n, r, R)]
# the checks over forms, which the shift-packing and binomial-factor tests read, and every check
FORM_CHECKS = COMMAND_CHECKS + SLICE_FORM_CHECKS
ALL_CHECKS = FORM_CHECKS + SLICE_INT_CHECKS


def perturb(side, kind: int, rng: random.Random):
    """One side with one numerator changed: +-1, a moved monomial, or doubled."""
    side = list(side)
    i = rng.choice([k for k, term in enumerate(side) if term.numerator.terms])
    term = side[i]
    terms = dict(term.numerator.terms)
    exps = rng.choice(sorted(terms))
    if kind == 0:
        terms[exps] += rng.choice((1, -1))
    elif kind == 1:
        j = rng.randrange(len(exps))
        moved = exps[:j] + (exps[j] + 1,) + exps[j + 1 :]
        terms[moved] = terms.get(moved, 0) + terms.pop(exps)
    else:
        terms = {e: 2 * c for e, c in terms.items()}
    side[i] = RationalTerm(MultiPoly(term.numerator.variables, terms), term.denominator_factors)
    return side


def test_command_checks_hold_and_match_reference():
    # two pairs for each split row, at t = 0 and at a generic t, and one for each other row
    assert [len(sides()) for _, sides in TABLE] == [2, 2, 1, 1, 1]
    assert (len(COMMAND_CHECKS), len(SLICE_FORM_CHECKS), len(SLICE_INT_CHECKS)) == (7, 10, 90)
    for lhs, rhs in ALL_CHECKS:
        assert identity_check(lhs, rhs) == reference_identity_check(lhs, rhs) == polyring.IdentityVerdict(True)
    assert all(decide_identity(sides) == polyring.IdentityVerdict(True) for _, sides in TABLE)


@pytest.mark.parametrize("kind", range(3), ids=["plus-minus-one", "moved-monomial", "doubled"])
def test_perturbed_command_checks_fail_like_reference(kind):
    rng = random.Random(kind)
    for lhs, rhs in ALL_CHECKS:
        if rng.random() < 0.5:
            lhs = perturb(lhs, kind, rng)
        else:
            rhs = perturb(rhs, kind, rng)
        verdict = identity_check(lhs, rhs)
        assert not verdict.equal
        assert verdict == reference_identity_check(lhs, rhs)


def test_every_denominator_of_the_identities_checks_is_a_binomial():
    assert len(FORM_CHECKS) == 17
    factors = [f for lhs, rhs in FORM_CHECKS for term in [*lhs, *rhs] for f in term.denominator_factors]
    assert factors
    assert {len(f.terms) for f in factors} == {2}


def with_term(side, i, *terms):
    """The side with its i-th term replaced by `terms`."""
    return side[:i] + list(terms) + side[i + 1 :]


def edits(side, rng: random.Random):
    """(what, edited side) for every edit the table gate makes to one side.

    Each term is dropped and doubled, each of its denominator factors is
    dropped, and each numerator monomial of a sample of four (every one,
    when the term has at most four) is dropped and doubled.
    """
    for i, term in enumerate(side):
        yield f"term {i} dropped", with_term(side, i)
        yield f"term {i} doubled", with_term(side, i, term, term)
        factors = term.denominator_factors
        for j in range(len(factors)):
            fewer = RationalTerm(term.numerator, factors[:j] + factors[j + 1 :])
            yield f"term {i} factor {j} dropped", with_term(side, i, fewer)
        numerator = term.numerator
        monomials = sorted(numerator.terms)
        for exps in monomials if len(monomials) <= 4 else rng.sample(monomials, 4):
            for what, c in (("dropped", 0), ("doubled", 2 * numerator.terms[exps])):
                edited = MultiPoly(numerator.variables, {**numerator.terms, exps: c})
                yield f"term {i} monomial {exps} {what}", with_term(side, i, RationalTerm(edited, factors))


@pytest.mark.parametrize("name, sides", TABLE, ids=[name for name, _ in TABLE])
def test_the_table_gate_refuses_every_edit(name, sides):
    rng = random.Random(name)
    refused = 0
    for k, (lhs, rhs) in enumerate(sides()):
        variables = set(lhs[0].numerator.variables)
        for side in (0, 1):
            for what, edited in edits((lhs, rhs)[side], rng):
                pair = (edited, rhs) if side == 0 else (lhs, edited)
                verdict = identity_check(*pair)
                where = (name, k, ("lhs", "rhs")[side], what)
                assert not verdict.equal, where
                assert set(verdict.witness) == {"monomial", "coefficient"}, where
                assert set(verdict.witness["monomial"]) == variables, where
                assert int(verdict.witness["coefficient"]) != 0, where
                refused += 1
    assert refused >= 20


@pytest.mark.parametrize("kind", [None, 0, 1, 2], ids=["true", "plus-minus-one", "moved-monomial", "doubled"])
def test_shift_packing_equals_the_product_packing_on_the_identities_checks(kind):
    rng = random.Random(kind)
    for lhs, rhs in FORM_CHECKS:
        if kind is not None:
            lhs = perturb(lhs, kind, rng)
        packed = _pack_difference(lhs, rhs)
        assert packed == product_pack_difference(lhs, rhs)
        assert (packed.total == 0) == (kind is None)


@settings(max_examples=150, deadline=None)
@given(problems())
def test_shift_packing_equals_the_product_packing_on_random_sides(problem):
    _, _, lhs, rhs = problem
    assert outcome(_pack_difference, lhs, rhs) == outcome(product_pack_difference, lhs, rhs)


def decode(packed) -> dict:
    """Every nonzero slot of the packed total, read as balanced digits, by exponent tuple."""
    B = packed.slot_bits
    total, out = packed.total, {}
    while total:
        slot = ((total & -total).bit_length() - 1) // B
        digit = (total >> slot * B) & ((1 << B) - 1)
        if digit >> (B - 1):
            digit -= 1 << B
        total -= digit << slot * B
        assert slot < prod(packed.spans)
        out[tuple(l + slot // s % n for l, s, n in zip(packed.lo, packed.strides, packed.spans))] = digit
    return out


def assert_width_covers_reference(lhs, rhs):
    packed = _pack_difference(lhs, rhs)
    diff = cleared_numerator(lhs, rhs)
    if packed is None:
        assert diff is None or diff.is_zero()
        return
    terms = diff.terms
    assert max((abs(c) for c in terms.values()), default=0) < 1 << (packed.slot_bits - 1)
    width = len(packed.lo)
    for j in range(width):
        true_span = max((e[j] for e in terms), default=packed.lo[j]) - packed.lo[j] + 1
        assert min((e[j] for e in terms), default=packed.lo[j]) >= packed.lo[j]
        assert packed.spans[j] >= true_span
        if j:
            assert packed.strides[j - 1] >= packed.strides[j] * true_span
    assert decode(packed) == terms


def test_width_covers_the_command_checks():
    for lhs, rhs in ALL_CHECKS:
        assert_width_covers_reference(lhs, rhs)
        assert_width_covers_reference(perturb(lhs, 1, random.Random(0)), rhs)


@settings(max_examples=150, deadline=None)
@given(problems())
def test_width_covers_random_sides(problem):
    _, _, lhs, rhs = problem
    if lhs or rhs:
        assert_width_covers_reference(lhs, rhs)


class TestEdges:
    def test_empty_and_zero_sides_are_equal(self):
        zero = RationalTerm(MultiPoly(("x",), {}), (mono(("x",), 1, x=1),))
        assert identity_check([zero], []).equal
        assert reference_identity_check([zero], []).equal

    def test_zero_numerator_denominators_join_the_lcd(self):
        v = ("x", "y")
        f = mp_sub(mono(v, 1, x=1), mono(v, 2))
        lhs = [RationalTerm(mono(v, 1, y=1)), RationalTerm(MultiPoly(v, {}), (f, f))]
        verdict = identity_check(lhs, [])
        assert verdict == reference_identity_check(lhs, [])
        assert verdict.witness == {"monomial": {"x": 0, "y": 1}, "coefficient": "4"}

    def test_negative_lead_factors_combine(self):
        v = ("x",)
        x_minus_one = mp_sub(mono(v, 1, x=1), mono(v, 1))
        one_minus_x = mp_neg(x_minus_one)
        lhs = [RationalTerm(mono(v, 1), (x_minus_one,))]
        assert identity_check(lhs, [RationalTerm(mono(v, -1), (one_minus_x,))]).equal
        verdict = identity_check(lhs, [RationalTerm(mono(v, 1), (one_minus_x,))])
        assert verdict.witness == {"monomial": {"x": 0}, "coefficient": "2"}

    def test_errors_are_unchanged(self):
        v = ("x",)
        with pytest.raises(ZeroDivisionError):
            identity_check([RationalTerm(mono(v, 1), (MultiPoly(v, {}),))], [])
        with pytest.raises(VariableMismatchError):
            identity_check([RationalTerm(mono(v, 1))], [RationalTerm(mono(("y",), 1))])
        with pytest.raises(VariableMismatchError):
            identity_check([], [])


class TestResourceBound:
    def test_refused_at_cap_plus_one_before_anything_is_packed(self, monkeypatch):
        # 1 + x^e spans e + 1 slots; its bound is 2, so B = 3 bits
        span = (polyring.MAX_IDENTITY_BITS + 1) // 3
        assert span * 3 == polyring.MAX_IDENTITY_BITS + 1

        def no_packing(*args):
            raise AssertionError("packed past the bound")

        monkeypatch.setattr(polyring._ScaledPoly, "pack", no_packing)
        lhs = [RationalTerm(MultiPoly(("x",), {(0,): 1, (span - 1,): 1}))]
        tracemalloc.start()
        try:
            with pytest.raises(ResourceError, match=f"x 3 bits exceeds the bound {polyring.MAX_IDENTITY_BITS}$"):
                identity_check(lhs, [])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_the_bound_itself_is_allowed(self, monkeypatch):
        lhs = [RationalTerm(MultiPoly(("x", "y"), {(0, 0): 1, (4, 2): -1}))]
        packed = _pack_difference(lhs, [])
        size = prod(packed.spans) * packed.slot_bits
        assert size == 5 * 3 * 3
        monkeypatch.setattr(polyring, "MAX_IDENTITY_BITS", size)
        assert identity_check(lhs, []).witness == {"monomial": {"x": 0, "y": 0}, "coefficient": "1"}
        monkeypatch.setattr(polyring, "MAX_IDENTITY_BITS", size - 1)
        with pytest.raises(ResourceError, match=f"^packed identity of 15 slots x 3 bits exceeds the bound {size - 1}$"):
            identity_check(lhs, [])

    def test_command_checks_are_far_below_the_bound(self):
        packs = [_pack_difference(lhs, rhs) for lhs, rhs in ALL_CHECKS]
        largest = max(prod(p.spans) * p.slot_bits for p in packs)
        assert largest * 1000 < polyring.MAX_IDENTITY_BITS
