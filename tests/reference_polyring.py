"""Dict-polynomial arithmetic and identity check: the oracles of `polyring`.

`mono`, `mp_add`, `mp_sub` and `mp_mul` are the sparse polynomial
arithmetic that `polyring.from_pieces` replaced in the package; they
build every hand transcription below and in `reference_lemma`.

The identity check brings the difference of the two sides over the least common
denominator with one `mp_mul` per missing factor, and reads the verdict
and witness off the cleared numerator as a `MultiPoly`.

`product_pack_difference` is the packer that `polyring._pack_difference`
replaced: the same box, strides and slot width, but each group's packed
share is multiplied by every missing factor's packed int raised to its
count, one big-int product per factor, where the package applies the
factor term by term as shifts.  The substitution is a ring homomorphism,
so the two totals are the same int.

`three_factor_identity_sides` and `four_factor_identity_sides` are the
Thm1 and Thm2 split identities transcribed by hand, at a generic t, the
oracle of `antitelescope.split_identity_sides`, which reads them off the
numerators the split walk uses.  The Thm2 transcription keeps its
half-weighted groups; `mp_times_int` doubles both sides into the int
polynomials that `polyring.identity_check` takes.
"""

from fractions import Fraction
from operator import add, sub

from qdominance.polyring import (
    MAX_IDENTITY_BITS,
    IdentityVerdict,
    MultiPoly,
    RationalTerm,
    VariableMismatchError,
    _canonical_key,
    _common_variables,
    _PackedDifference,
    _ScaledPoly,
)
from qdominance.series import Coefficient, ResourceError


def mono(variables, coeff: Coefficient = 1, **exps) -> MultiPoly:
    """Single term with exponents given by variable name."""
    variables = tuple(variables)
    unknown = set(exps) - set(variables)
    if unknown:
        raise ValueError(f"unknown variables {sorted(unknown)}; have {variables}")
    key = tuple(exps.get(v, 0) for v in variables)
    return MultiPoly(variables, {key: coeff})


def _same_variables(a: MultiPoly, b: MultiPoly) -> None:
    if a.variables != b.variables:
        raise VariableMismatchError(f"{a.variables} != {b.variables}")


def mp_add(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    _same_variables(a, b)
    terms = dict(a.terms)
    for exps, c in b.terms.items():
        terms[exps] = terms.get(exps, 0) + c
    return MultiPoly(a.variables, terms)


def mp_sub(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    _same_variables(a, b)
    terms = dict(a.terms)
    for exps, c in b.terms.items():
        terms[exps] = terms.get(exps, 0) - c
    return MultiPoly(a.variables, terms)


def mp_mul(*polys: MultiPoly) -> MultiPoly:
    if not polys:
        raise ValueError("need at least one factor")
    out = polys[0]
    for p in polys[1:]:
        _same_variables(out, p)
        terms: dict[tuple[int, ...], Coefficient] = {}
        for ea, ca in out.terms.items():
            for eb, cb in p.terms.items():
                key = tuple(map(add, ea, eb))
                terms[key] = terms.get(key, 0) + ca * cb
        out = MultiPoly(out.variables, terms)
    return out


def mp_times_int(a: MultiPoly, k: int) -> MultiPoly:
    """k * a with int coefficients; ValueError unless k clears every denominator of a."""
    terms = {e: k * c for e, c in a.terms.items()}
    if any(c.denominator != 1 for c in terms.values()):
        raise ValueError(f"{k} does not clear the denominators of {a}")
    return MultiPoly(a.variables, {e: int(c) for e, c in terms.items()})


def mp_zero(variables) -> MultiPoly:
    return MultiPoly(variables, {})


def mp_neg(a: MultiPoly) -> MultiPoly:
    return MultiPoly(a.variables, {e: -c for e, c in a.terms.items()})


def _canonical_factor(factor: MultiPoly) -> tuple[MultiPoly, int]:
    """Normalize sign so the lexicographically largest exponent has coeff > 0."""
    if factor.is_zero():
        raise ZeroDivisionError("zero denominator factor")
    lead = max(factor.terms)
    if factor.terms[lead] < 0:
        return mp_neg(factor), -1
    return factor, 1


def _factor_key(factor: MultiPoly) -> tuple:
    return tuple(sorted(factor.terms.items()))


def _clear_denominators(terms, lcd_counts, factors_by_key):
    """Sum of numerators scaled by the complement of each term's denominator."""
    if not terms:
        return None
    variables = terms[0].numerator.variables
    total = mp_zero(variables)
    for term in terms:
        scaled = term.numerator
        own_counts: dict[tuple, int] = {}
        sign = 1
        for f in term.denominator_factors:
            canon, s = _canonical_factor(f)
            sign *= s
            own_counts[_factor_key(canon)] = own_counts.get(_factor_key(canon), 0) + 1
        if sign < 0:
            scaled = mp_neg(scaled)
        for key, count in lcd_counts.items():
            missing = count - own_counts.get(key, 0)
            for _ in range(missing):
                scaled = mp_mul(scaled, factors_by_key[key])
        total = mp_add(total, scaled)
    return total


def _lcd(terms):
    lcd_counts: dict[tuple, int] = {}
    factors_by_key: dict[tuple, MultiPoly] = {}
    for term in terms:
        counts: dict[tuple, int] = {}
        for f in term.denominator_factors:
            canon, _ = _canonical_factor(f)
            key = _factor_key(canon)
            factors_by_key[key] = canon
            counts[key] = counts.get(key, 0) + 1
        for key, c in counts.items():
            lcd_counts[key] = max(lcd_counts.get(key, 0), c)
    return lcd_counts, factors_by_key


def cleared_numerator(lhs, rhs):
    """The cleared numerator of sum(lhs) - sum(rhs), or None for two empty sides."""
    lhs = list(lhs)
    rhs = list(rhs)
    _common_variables(lhs + rhs)
    all_terms = lhs + [
        RationalTerm(mp_neg(t.numerator), t.denominator_factors) for t in rhs
    ]
    lcd_counts, factors_by_key = _lcd(all_terms)
    return _clear_denominators(all_terms, lcd_counts, factors_by_key)


def reference_identity_check(lhs, rhs) -> IdentityVerdict:
    """Decide whether sum(lhs) equals sum(rhs) as rational functions.

    The difference of the two sides is brought over the least common
    denominator; the sums agree exactly when the cleared numerator is 0,
    and otherwise its smallest monomial is the witness.
    """
    lhs = list(lhs)
    rhs = list(rhs)
    variables = _common_variables(lhs + rhs)
    diff = cleared_numerator(lhs, rhs)
    if diff is None or diff.is_zero():
        return IdentityVerdict(True)
    exps = min(diff.terms)
    witness = {
        "monomial": dict(zip(variables, exps)),
        "coefficient": str(Fraction(diff.terms[exps])),
    }
    return IdentityVerdict(False, witness)


def product_pack_difference(lhs, rhs) -> _PackedDifference | None:
    """The packed cleared numerator of sum(lhs) - sum(rhs) by products of powers.

    Layout and refusal as `polyring._pack_difference`; each factor is
    packed once at its lowest corner, and a group's share is multiplied by
    packed[index] ** count, the powers cached by (index, count).
    """
    lhs = list(lhs)
    rhs = list(rhs)
    variables = _common_variables(lhs + rhs)
    width = len(variables)
    lcd: dict[tuple, int] = {}
    terms = []
    for side, side_terms in ((1, lhs), (-1, rhs)):
        for term in side_terms:
            sign = side
            own: dict[tuple, int] = {}
            for f in term.denominator_factors:
                key, s = _canonical_key(f)
                sign *= s
                own[key] = own.get(key, 0) + 1
            for key, count in own.items():
                lcd[key] = max(lcd.get(key, 0), count)
            terms.append((sign, term.numerator, own))
    keys = tuple(lcd)
    groups: dict[tuple[int, ...], list] = {}
    for sign, numerator, own in terms:
        if numerator.terms:
            missing = tuple(lcd[key] - own.get(key, 0) for key in keys)
            groups.setdefault(missing, []).append((sign, _ScaledPoly(numerator.terms)))
    if not groups:
        return None
    factors = [_ScaledPoly(dict(key)) for key in keys]
    bound = 0
    lows, highs, placed = [], [], []
    for missing, members in groups.items():
        offset = reach = (0,) * width
        weight = 1
        for f, count in zip(factors, missing):
            offset = [o + count * e for o, e in zip(offset, f.lo)]
            reach = [h + count * e for h, e in zip(reach, f.hi)]
            weight *= f.l1**count
        for _, num in members:
            bound += num.l1 * weight
            lows.append(tuple(map(add, num.lo, offset)))
            highs.append(tuple(map(add, num.hi, reach)))
        placed.append((missing, offset, members))
    lo = tuple(map(min, zip(*lows)))
    hi = tuple(map(max, zip(*highs)))
    spans = [h - l + 1 for l, h in zip(lo, hi)]
    strides = [1] * width
    for j in range(width - 1, 0, -1):
        strides[j - 1] = strides[j] * spans[j]
    slots = strides[0] * spans[0] if width else 1
    slot_bits = bound.bit_length() + 1
    if slots * slot_bits > MAX_IDENTITY_BITS:
        raise ResourceError(f"packed identity of {slots} slots x {slot_bits} bits exceeds the bound {MAX_IDENTITY_BITS}")
    packed = [f.pack(1, f.lo, strides, slot_bits) for f in factors]
    powers: dict[tuple[int, int], int] = {}
    total = 0
    for missing, offset, members in placed:
        origin = tuple(map(sub, lo, offset))
        share = sum(num.pack(sign, origin, strides, slot_bits) for sign, num in members)
        for index, count in enumerate(missing):
            if count:
                if (index, count) not in powers:
                    powers[index, count] = packed[index] ** count
                share *= powers[index, count]
        total += share
    return _PackedDifference(variables, lo, spans, strides, slot_bits, total)


def three_factor_identity_sides() -> tuple[MultiPoly, MultiPoly]:
    """Both sides of the three-factor product-difference split.

    The difference (1-ta)(1-tb)(1-txy) - (1-tx)(1-ty)(1-tab) regroups into
    two addends, each carrying a factor t(x-a) or t(y-b); the regrouped form
    is what makes the two-piece addend split nonnegative.
    """
    v = ("t", "x", "y", "a", "b")

    def m(coeff: Coefficient = 1, **exps: int) -> MultiPoly:
        return mono(v, coeff, **exps)

    def b1(**exps: int) -> MultiPoly:
        return mp_sub(m(), m(**exps))

    lhs = mp_sub(
        mp_mul(b1(t=1, a=1), b1(t=1, b=1), b1(t=1, x=1, y=1)),
        mp_mul(b1(t=1, x=1), b1(t=1, y=1), b1(t=1, a=1, b=1)),
    )
    rhs = mp_add(
        mp_mul(m(t=1), mp_sub(m(x=1), m(a=1)), b1(b=1), b1(t=1, y=1)),
        mp_mul(m(t=1), mp_sub(m(y=1), m(b=1)), b1(t=1, a=1), b1(x=1)),
    )
    return lhs, rhs


def four_factor_identity_sides() -> tuple[MultiPoly, MultiPoly]:
    """Both sides of the four-factor split with half-weight groups.

    The seven-variable analogue of `three_factor_identity_sides`: the
    difference of the two four-factor products regroups into four
    half-weighted groups, one per extracted factor, the last folding the
    doubled t^2 correction into the z-line.
    """
    v = ("t", "x", "y", "z", "a", "b", "c")

    def m(coeff: Coefficient = 1, **exps: int) -> MultiPoly:
        return mono(v, coeff, **exps)

    def b1(**exps: int) -> MultiPoly:
        return mp_sub(m(), m(**exps))

    lhs = mp_sub(
        mp_mul(b1(t=1, a=1), b1(t=1, b=1), b1(t=1, c=1), b1(t=1, x=1, y=1, z=1)),
        mp_mul(b1(t=1, x=1), b1(t=1, y=1), b1(t=1, z=1), b1(t=1, a=1, b=1, c=1)),
    )
    half = Fraction(1, 2)
    g1 = mp_mul(
        m(half, t=1),
        mp_sub(m(x=1), m(a=1)),
        mp_add(
            mp_mul(b1(t=1, b=1), b1(t=1, c=1), b1(y=1, z=1)),
            mp_mul(b1(t=1, y=1), b1(t=1, z=1), b1(b=1, c=1)),
        ),
    )
    g2 = mp_mul(
        m(half, t=1),
        mp_sub(m(y=1), m(b=1)),
        mp_add(
            mp_mul(b1(t=1, c=1), b1(t=1, a=1), b1(z=1, x=1)),
            mp_mul(b1(t=1, z=1), b1(t=1, x=1), b1(c=1, a=1)),
        ),
    )
    g3 = mp_mul(
        m(half, t=1), mp_sub(m(z=1), m(c=1)), b1(t=1, x=1), b1(t=1, y=1), b1(a=1, b=1)
    )
    g4 = mp_mul(
        m(half, t=1),
        mp_sub(m(z=1), m(c=1)),
        mp_add(
            mp_mul(b1(t=1, a=1), b1(t=1, b=1), b1(x=1, y=1)),
            mp_mul(b1(t=2), mp_sub(m(x=1), m(a=1)), mp_sub(m(y=1), m(b=1))),
        ),
    )
    rhs = mp_add(mp_add(g1, g2), mp_add(g3, g4))
    return lhs, rhs
