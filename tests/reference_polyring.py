"""The dict-polynomial identity check: the oracle of `polyring.identity_check`.

It brings the difference of the two sides over the least common
denominator with one `mp_mul` per missing factor, and reads the verdict
and witness off the cleared numerator as a `MultiPoly`.
"""

from fractions import Fraction

from qdominance.polyring import (
    IdentityVerdict,
    MultiPoly,
    RationalTerm,
    _common_variables,
    mp_add,
    mp_mul,
)


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
