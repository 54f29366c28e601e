"""The list-kernel h series and four-variable identity, kept as oracles.

`h_terms` builds the nineteen addends of 6h as products of list series,
block by block, with the O(N^2) Cauchy product; `h_series` and
`fourvar_identity` sum them the way the package's h series and
four-variable identity did before the Proposal layer was packed.  Both take the addend builder as an argument, so a test
can perturb one addend here and in the package alike and compare the
verdicts.
"""

from __future__ import annotations

from fractions import Fraction

from qdominance.dominance import nbase_pair
from qdominance.series import QSeries, positive_ints
from reference_series import (
    divide_binomial,
    monomial,
    multiply_binomial,
    series_add,
    series_mul,
    series_scale,
    series_sub,
    spec_reciprocal,
    zero_series,
)


def ratio_block(e: int, k: int, order: int) -> QSeries:
    """q^e (1 - q^((k-1)e)) / ((1 - q^e)(1 - q^(ke))); zero when k == 1."""
    out = monomial(e, order)
    out = multiply_binomial(out, (k - 1) * e)
    out = divide_binomial(out, e)
    return divide_binomial(out, k * e)


def geometric(e: int, order: int) -> QSeries:
    """q^e / (1 - q^e)."""
    return divide_binomial(monomial(e, order), e)


def h_terms(params, order: int) -> list[tuple[int, QSeries]]:
    """The nineteen (six-fold weight, product series) addends of h, in the package's order."""
    x, y, z, r, R, rho = positive_ints(params, "h parameters", 6)
    ax = ratio_block(x, r, order)
    ay = ratio_block(y, R, order)
    az = ratio_block(z, rho, order)
    gx = geometric(r * x, order)
    gy = geometric(R * y, order)
    gz = geometric(rho * z, order)
    weighted = (
        (6, (ax, ay, az)),
        (3, (ax, ay)),
        (3, (ay, az)),
        (3, (ax, az)),
        (3, (ax, gy)),
        (3, (ax, gz)),
        (3, (ay, gz)),
        (3, (ay, gx)),
        (3, (az, gy)),
        (3, (az, gx)),
        (2, (ax,)),
        (2, (ay,)),
        (2, (az,)),
        (6, (ax, ay, gz)),
        (6, (ax, az, gy)),
        (6, (ay, az, gx)),
        (6, (ax, gy, gz)),
        (6, (ay, gx, gz)),
        (6, (az, gy, gx)),
    )
    terms = []
    for weight, factors in weighted:
        term = factors[0]
        for factor in factors[1:]:
            term = series_mul(term, factor)
        terms.append((weight, term))
    return terms


def h_series(params, order: int, terms=h_terms) -> QSeries:
    """h, summed six-fold in integers and divided once at the end."""
    total = zero_series(order)
    for weight, term in terms(params, order):
        total = series_add(total, series_scale(term, weight))
    return series_scale(total, Fraction(1, 6))


def fourvar_sides(params, order: int, terms=h_terms) -> tuple[QSeries, QSeries]:
    """(1/P - 1/Q, the four h series over the two composite binomials)."""
    x, y, z, w, r, R, rho, P = positive_ints(params, "fourvar parameters", 8)
    dominant, subordinate = nbase_pair((x, y, z, w), (r, R, rho, P), 1, 1)
    lhs = series_sub(spec_reciprocal(dominant, order), spec_reciprocal(subordinate, order))
    total = zero_series(order)
    for h in ((x, y, z, r, R, rho), (x, y, w, r, R, P), (x, z, w, r, rho, P), (y, z, w, R, rho, P)):
        total = series_add(total, h_series(h, order, terms))
    rhs = divide_binomial(divide_binomial(total, subordinate.bases[-1]), dominant.bases[-1])
    return lhs, rhs


def fourvar_identity(params, order: int, terms=h_terms) -> dict:
    """The package's verdict record, from the list sides."""
    lhs, rhs = fourvar_sides(params, order, terms)
    mismatch = next((n for n, c in enumerate(series_sub(lhs, rhs).coeffs) if c != 0), None)
    return {
        "params": positive_ints(params, "fourvar parameters", 8),
        "order": order,
        "equal": mismatch is None,
        "witness": None
        if mismatch is None
        else {"exponent": mismatch, "lhs": lhs.coeff(mismatch), "rhs": rhs.coeff(mismatch)},
    }
