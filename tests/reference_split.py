"""Per-group-divide reference for the telescoping addends and their splits.

These are the original, deliberately direct bodies of `addend`,
`thm1_split` and `thm2_split`: every addend and every split group builds
its own numerator and divides it by the full denominator
P(i) * Q(L)/Q(i-1), one binomial at a time, and the half-weighted Thm2
groups are halved as rationals.  They share no state between indices or
groups, so they pin the incremental engine in `qdominance.antitelescope`
from outside.
"""

from __future__ import annotations

from fractions import Fraction

from qdominance.antitelescope import (
    AddendDecomposition,
    denominator_exponents,
    thm1_families,
    thm2_families,
)
from qdominance.series import (
    QSeries,
    divide_binomial,
    multiply_binomial,
    poly_from_exponents,
    series_add,
    series_scale,
    series_sub,
)

HALF = Fraction(1, 2)


def _divide_all(series: QSeries, exponents) -> QSeries:
    for e in exponents:
        series = divide_binomial(series, e)
    return series


def _product_term(order: int, lead: int, binomial_exponents) -> QSeries:
    """q^lead times the product of (1 - q^e) over the given exponents."""
    out = QSeries.monomial(lead, order)
    for e in binomial_exponents:
        out = multiply_binomial(out, e)
    return out


def reference_addend(P, Q, i: int, L: int, order: int) -> QSeries:
    numerator = series_sub(
        poly_from_exponents(Q.step_exponents(i), order),
        poly_from_exponents(P.step_exponents(i), order),
    )
    return _divide_all(numerator, denominator_exponents(P, Q, i, L))


def reference_thm1_split(params, i: int, order: int) -> AddendDecomposition:
    L, m, x, y, r, R = params
    P, Q = thm1_families(m, x, y, r, R)
    denominator = denominator_exponents(P, Q, i, L)
    t = (i - 1) * m
    v = _divide_all(
        _product_term(order, t + y, [(R - 1) * y, x, t + r * x]), denominator
    )
    w = _divide_all(
        _product_term(order, t + x, [(r - 1) * x, R * y, t + y]), denominator
    )
    base = reference_addend(P, Q, i, L, order)
    return AddendDecomposition(i, base, (("V", v), ("W", w)), t)


def reference_thm2_split(params, i: int, order: int) -> AddendDecomposition:
    L, m, x, y, z, r, R, rho = params
    P, Q = thm2_families(m, x, y, z, r, R, rho)
    denominator = denominator_exponents(P, Q, i, L)
    t = (i - 1) * m
    a, b, c = r * x, R * y, rho * z

    def piece(lead, exps):
        return _product_term(order, lead, exps)

    if i == 1:
        doubled = {
            "G1": series_add(
                piece(x, [(r - 1) * x, b, c, y + z]),
                piece(x, [(r - 1) * x, y, z, b + c]),
            ),
            "G2": series_add(
                piece(y, [(R - 1) * y, c, a, z + x]),
                piece(y, [(R - 1) * y, z, x, c + a]),
            ),
            "G3": series_add(
                piece(z, [(rho - 1) * z, x, y, a + b]),
                piece(z, [(rho - 1) * z, a, b, x + y]),
            ),
        }
    else:
        doubled = {
            "G1": series_add(
                piece(t + x, [(r - 1) * x, t + b, t + c, y + z]),
                piece(t + x, [(r - 1) * x, t + y, t + z, b + c]),
            ),
            "G2": series_add(
                piece(t + y, [(R - 1) * y, t + c, t + a, z + x]),
                piece(t + y, [(R - 1) * y, t + z, t + x, c + a]),
            ),
            "G3": piece(t + z, [(rho - 1) * z, t + x, t + y, a + b]),
            "G4": series_add(
                piece(t + z, [(rho - 1) * z, t + a, t + b, x + y]),
                piece(t + z + x + y, [(rho - 1) * z, 2 * t, (r - 1) * x, (R - 1) * y]),
            ),
        }
    groups = tuple(
        (name, series_scale(_divide_all(numerator, denominator), HALF))
        for name, numerator in doubled.items()
    )
    base = reference_addend(P, Q, i, L, order)
    return AddendDecomposition(i, base, groups, t)
