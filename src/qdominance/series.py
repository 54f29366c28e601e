"""Exact truncated power series in q over the rationals.

A QSeries holds the coefficients of q^0 through q^N densely, where N is
the truncation order.  Coefficients are plain ints wherever the value is
integral and fractions.Fraction otherwise; all arithmetic is exact, and
every operation stays strictly inside the truncation window.  A result
whose coefficients are all ints is stored as computed; only a list that
holds a Fraction is normalized coefficient by coefficient.

Products of binomial factors (1 - q^(a+jm)) are described by ProductSpec
values rather than expanded eagerly, so reciprocals can be taken factor
by factor.  An unbounded product (length INF) is materialized by
keeping only the factors whose exponent fits under the truncation order;
the omitted factors are congruent to 1 modulo q^(N+1), so this is a
semantic rule, not an approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

Coefficient = int | Fraction

# Length marker for products with no last factor.
INF = math.inf


class OrderMismatchError(ValueError):
    """Raised when two series of different truncation orders are combined."""


class SingularSeriesError(ValueError):
    """Raised when a division by 1 - q^0, the zero series, is requested."""


_INT_ONLY = frozenset((int,))


def _norm(c: Coefficient) -> Coefficient:
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


@dataclass(frozen=True)
class QSeries:
    """Truncated power series: coeffs[n] is the coefficient of q^n, n <= order."""

    order: int
    coeffs: tuple[Coefficient, ...]

    def __post_init__(self) -> None:
        if self.order < 0:
            raise ValueError(f"order must be nonnegative, got {self.order}")
        if len(self.coeffs) != self.order + 1:
            raise ValueError(
                f"need {self.order + 1} coefficients for order {self.order}, "
                f"got {len(self.coeffs)}"
            )

    @staticmethod
    def from_coeffs(coeffs, order: int | None = None) -> "QSeries":
        cs = list(coeffs)
        if not _INT_ONLY.issuperset(map(type, cs)):
            cs = [_norm(c) for c in cs]
        if order is None:
            order = len(cs) - 1
        if len(cs) < order + 1:
            cs.extend([0] * (order + 1 - len(cs)))
        return QSeries(order, tuple(cs[: order + 1]))

    @staticmethod
    def zero(order: int) -> "QSeries":
        return QSeries(order, (0,) * (order + 1))

    @staticmethod
    def one(order: int) -> "QSeries":
        return QSeries.monomial(0, order)

    @staticmethod
    def monomial(exponent: int, order: int, coeff: Coefficient = 1) -> "QSeries":
        cs = [0] * (order + 1)
        if 0 <= exponent <= order:
            cs[exponent] = _norm(coeff)
        return QSeries(order, tuple(cs))

    def coeff(self, n: int) -> Coefficient:
        if not 0 <= n <= self.order:
            raise IndexError(f"exponent {n} outside tracked range 0..{self.order}")
        return self.coeffs[n]

    def is_zero(self) -> bool:
        return not any(self.coeffs)


def _require_same_order(a: QSeries, b: QSeries) -> None:
    if a.order != b.order:
        raise OrderMismatchError(f"orders differ: {a.order} != {b.order}")


def series_add(a: QSeries, b: QSeries) -> QSeries:
    _require_same_order(a, b)
    return QSeries.from_coeffs([x + y for x, y in zip(a.coeffs, b.coeffs)], a.order)


def series_sub(a: QSeries, b: QSeries) -> QSeries:
    _require_same_order(a, b)
    return QSeries.from_coeffs([x - y for x, y in zip(a.coeffs, b.coeffs)], a.order)


def series_scale(a: QSeries, c: Coefficient) -> QSeries:
    return QSeries.from_coeffs([c * x for x in a.coeffs], a.order)


def series_mul(a: QSeries, b: QSeries) -> QSeries:
    """Cauchy product truncated at the common order."""
    _require_same_order(a, b)
    n = a.order
    out = [0] * (n + 1)
    bc = b.coeffs
    for i, ai in enumerate(a.coeffs):
        if ai:
            for j in range(n + 1 - i):
                bj = bc[j]
                if bj:
                    out[i + j] += ai * bj
    return QSeries.from_coeffs(out, n)


def multiply_binomial(a: QSeries, exponent: int) -> QSeries:
    """Product with (1 - q^exponent); exponent 0 gives the zero series."""
    if exponent == 0:
        return QSeries.zero(a.order)
    if exponent > a.order:
        return a
    out = list(a.coeffs)
    for n in range(a.order, exponent - 1, -1):
        out[n] -= out[n - exponent]
    return QSeries.from_coeffs(out, a.order)


def divide_binomial(a: QSeries, exponent: int) -> QSeries:
    """Product with the geometric series 1/(1 - q^exponent)."""
    if exponent == 0:
        raise SingularSeriesError("cannot divide by 1 - q^0")
    if exponent > a.order:
        return a
    out = list(a.coeffs)
    for n in range(exponent, a.order + 1):
        out[n] += out[n - exponent]
    return QSeries.from_coeffs(out, a.order)


def multiply_binomials(a: QSeries, exponents) -> QSeries:
    """Product of a with (1 - q^e) over the given exponents."""
    for e in exponents:
        a = multiply_binomial(a, e)
    return a


def divide_binomials(a: QSeries, exponents) -> QSeries:
    """Product of a with 1/(1 - q^e) over the given exponents."""
    for e in exponents:
        a = divide_binomial(a, e)
    return a


def series_shift(a: QSeries, exponent: int) -> QSeries:
    """Product with q^exponent, exponent >= 0; the top coefficients drop out."""
    if exponent < 0:
        raise ValueError(f"shift must be nonnegative, got {exponent}")
    if exponent > a.order:
        return QSeries.zero(a.order)
    return QSeries(a.order, (0,) * exponent + a.coeffs[: a.order + 1 - exponent])


def reciprocal_from_exponents(exponents, order: int) -> QSeries:
    """Expand the product of 1/(1 - q^e) over the given exponents."""
    return divide_binomials(QSeries.one(order), exponents)


def first_negative(a: QSeries) -> tuple[int, Coefficient] | None:
    """Smallest exponent carrying a negative coefficient, or None."""
    for n, c in enumerate(a.coeffs):
        if c < 0:
            return (n, c)
    return None


def positive_ints(values, label: str, count: int | None = None) -> tuple[int, ...]:
    """The values as a tuple of positive ints, or ValueError naming the label.

    Only exact ints pass: bools, floats and Fractions are refused.  With
    ``count`` the tuple must have that length; without, it must not be empty.
    """
    try:
        items = tuple(values)
    except TypeError:
        raise ValueError(f"{label} must be positive integers, got {values!r}") from None
    if (
        (len(items) == count if count is not None else items)
        and _INT_ONLY.issuperset(map(type, items))
        and min(items, default=1) >= 1
    ):
        return items
    if count == 1:
        wanted = "a positive integer"
    else:
        wanted = "positive integers" if count is None else f"{count} positive integers"
    raise ValueError(f"{label} must be {wanted}, got {items!r}")


@dataclass(frozen=True)
class ProductSpec:
    """The product of (1 - q^(b + j*modulus)) over the bases b and j = 0 .. length-1.

    A length of INF leaves every base's factors unbounded.  The constant
    term of the product is always 1.
    """

    bases: tuple[int, ...]
    modulus: int
    length: int | float = INF

    def __post_init__(self) -> None:
        sizes = (*self.bases, self.modulus)
        if self.length != INF:
            sizes += (self.length,)
        positive_ints(sizes, "factor bases, modulus and length (or INF)")

    def exponents(self, order: int) -> list[int]:
        """Factor exponents under the truncation order, base by base, j ascending."""
        out: list[int] = []
        for b in self.bases:
            top = order if self.length == INF else min(order, b + (self.length - 1) * self.modulus)
            out.extend(range(b, top + 1, self.modulus))
        return out


def product_spec(bases, modulus: int, length: int | float = INF) -> ProductSpec:
    """Spec for the multi-argument product over the given base exponents."""
    return ProductSpec(tuple(bases), modulus, length)


def spec_reciprocal(spec: ProductSpec, order: int) -> QSeries:
    """Reciprocal of the spec's product, taken factor by factor."""
    return reciprocal_from_exponents(spec.exponents(order), order)


def serialize(a: QSeries) -> str:
    """One 'index: value' line per coefficient; '/1' is elided."""
    lines = []
    for n, c in enumerate(a.coeffs):
        f = Fraction(c)
        val = str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
        lines.append(f"{n}: {val}")
    return "\n".join(lines)
