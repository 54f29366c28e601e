"""Per-group-divide reference for the telescoping addends and their splits.

These are the original, deliberately direct per-index addend and Thm1/Thm2
split bodies: every addend and every split group builds its own numerator
and divides it by the full denominator P(i) * Q(L)/Q(i-1), one binomial at
a time, and the half-weighted Thm2 groups are halved as rationals.  They
share no state between indices or groups, so they pin the incremental
engine in `qdominance.antitelescope` from outside.  P and Q are the
length-L product specs; `layer_exponents` reads their factor layers off.
`reference_exponents` is the per-family factor loop that `ProductSpec`
replaced.
"""

from __future__ import annotations

from fractions import Fraction

from qdominance.antitelescope import AddendDecomposition
from qdominance.dominance import nbase_pair
from qdominance.series import (
    QSeries,
    divide_binomial,
    multiply_binomial,
    series_add,
    series_scale,
    series_sub,
)
from reference_series import poly_from_exponents

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


def thm_pair(values):
    """The product pair of a Thm1 sextuple or Thm2 octuple (L, m, sizes, multipliers)."""
    L, m, *rest = values
    half = len(rest) // 2
    return nbase_pair(rest[:half], rest[half:], m, L)


def layer_exponents(spec, lo: int, hi: int) -> list[int]:
    """Factor exponents of the spec's layers lo .. hi-1."""
    return [b + j * spec.modulus for j in range(lo, hi) for b in spec.bases]


def reference_exponents(bases, modulus: int, length, order: int) -> list[int]:
    """The factor exponents of a product, one factor family per base.

    Each base b contributes b + j*modulus for j = 0, 1, ... until the
    family's length runs out (never, for INF) or the exponent passes the
    order.
    """
    out = []
    for base in bases:
        j = 0
        while j != length:
            e = base + j * modulus
            if e > order:
                break
            out.append(e)
            j += 1
    return out


def denominator_exponents(P, Q, i: int, L: int) -> list[int]:
    """Factor exponents of P(i) * Q(L)/Q(i-1)."""
    return layer_exponents(P, 0, i) + layer_exponents(Q, i - 1, L)


def reference_addend(P, Q, i: int, L: int, order: int) -> QSeries:
    numerator = series_sub(
        poly_from_exponents(layer_exponents(Q, i - 1, i), order),
        poly_from_exponents(layer_exponents(P, i - 1, i), order),
    )
    return _divide_all(numerator, denominator_exponents(P, Q, i, L))


def reference_thm1_split(params, i: int, order: int) -> AddendDecomposition:
    L, m, x, y, r, R = params
    P, Q = nbase_pair((x, y), (r, R), m, L)
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
    P, Q = nbase_pair((x, y, z), (r, R, rho), m, L)
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
