"""Series and lattice helpers that only the tests use.

`series_reciprocal` inverts a series by forward substitution and
`poly_from_exponents`/`pochhammer` expand products of binomials; the
package itself only ever divides by binomials, so these serve as
independent oracles for `spec_reciprocal` and the split engine.
`spec_reciprocal` expands one product on its own; the package expands
the two sides of a pair together.  `exponents` lists a product's factor
exponents under the order, as `series.require_series_work` does.
`multiply_binomial`, `divide_binomial`, `series_add`, `series_mul` and
the `zero_series`, `one_series` and `monomial` constructors are the list
kernels the package ran on before every series was packed, and
`multiply_binomials`, `divide_binomials` and `series_shift` build on
them; they carry the list references of the packed kernels.
`series_sub` subtracts two series as lists, `first_negative` finds the
least exponent with a negative coefficient, and `dominates_by_lists`
is the list reference of `dominance.dominates`.  The list kernels
compute over rationals: `series_scale` multiplies a series by a
rational and, like `_norm`, keeps an integral value an int.
`tri_multiply`, `tri_truncate_poly` and `specialize` multiply, truncate
and specialize (t, x, y) lattices, which the tests use to check the
reference `expand_rational` and the kernel specializations.
"""

from __future__ import annotations

from fractions import Fraction

from qdominance.polyring import MultiPoly, RationalTerm
from qdominance.series import (
    Coefficient,
    ProductSpec,
    QSeries,
    SingularSeriesError,
    reciprocal_from_exponents,
)
from reference_lemma import TriSeries, _tri_exponents, expand_rational


def first_negative(a: QSeries) -> tuple[int, Coefficient] | None:
    """Smallest exponent carrying a negative coefficient, or None."""
    for n, c in enumerate(a.coeffs):
        if c < 0:
            return (n, c)
    return None


class OrderMismatchError(ValueError):
    """Raised when two series of different truncation orders are combined."""


def _norm(c: Coefficient) -> Coefficient:
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


def series_scale(a: QSeries, c: Coefficient) -> QSeries:
    return QSeries.from_coeffs([_norm(c * x) for x in a.coeffs], a.order)


def _require_same_order(a: QSeries, b: QSeries) -> None:
    if a.order != b.order:
        raise OrderMismatchError(f"orders differ: {a.order} != {b.order}")


def series_sub(a: QSeries, b: QSeries) -> QSeries:
    _require_same_order(a, b)
    return QSeries.from_coeffs([x - y for x, y in zip(a.coeffs, b.coeffs)], a.order)


def zero_series(order: int) -> QSeries:
    return QSeries(order, (0,) * (order + 1))


def one_series(order: int) -> QSeries:
    return monomial(0, order)


def monomial(exponent: int, order: int, coeff: Coefficient = 1) -> QSeries:
    cs = [0] * (order + 1)
    if 0 <= exponent <= order:
        cs[exponent] = _norm(coeff)
    return QSeries(order, tuple(cs))


def series_add(a: QSeries, b: QSeries) -> QSeries:
    _require_same_order(a, b)
    return QSeries.from_coeffs([x + y for x, y in zip(a.coeffs, b.coeffs)], a.order)


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
        return zero_series(a.order)
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


def exponents(spec: ProductSpec, order: int) -> list[int]:
    """The spec's factor exponents under the truncation order, base by base, j ascending."""
    return [e for r in spec._ranges(order) for e in r]


def spec_reciprocal(spec: ProductSpec, order: int) -> QSeries:
    """Reciprocal of the spec's product, taken factor by factor."""
    return reciprocal_from_exponents(exponents(spec, order), order)


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


def dominates_by_lists(P: ProductSpec, Q: ProductSpec, order: int):
    """(first negative, difference) of 1/P - 1/Q, each side by the list kernel."""
    sides = [divide_binomials(one_series(order), exponents(spec, order)) for spec in (P, Q)]
    diff = series_sub(*sides)
    return first_negative(diff), diff


def series_shift(a: QSeries, exponent: int) -> QSeries:
    """Product with q^exponent, exponent >= 0; the top coefficients drop out."""
    if exponent < 0:
        raise ValueError(f"shift must be nonnegative, got {exponent}")
    if exponent > a.order:
        return zero_series(a.order)
    return QSeries(a.order, (0,) * exponent + a.coeffs[: a.order + 1 - exponent])


class CoverageError(ValueError):
    """Raised when a lattice is too small to cover every requested exponent."""


def series_reciprocal(a: QSeries) -> QSeries:
    """Multiplicative inverse up to the truncation order, by forward substitution."""
    a0 = a.coeffs[0]
    if a0 == 0:
        raise SingularSeriesError("series has zero constant term")
    n = a.order
    inv0 = 1 if a0 == 1 else Fraction(1, 1) / a0
    # b_k solves sum_{i=0..k} a_i b_{k-i} = 0 for every k >= 1
    out: list[Coefficient] = [inv0] + [0] * n
    ac = a.coeffs
    for k in range(1, n + 1):
        acc = 0
        for i in range(1, k + 1):
            ai = ac[i]
            if ai:
                acc += ai * out[k - i]
        out[k] = -acc * inv0 if a0 == 1 else -acc / a0
    return QSeries.from_coeffs(out, n)


def poly_from_exponents(exponents, order: int) -> QSeries:
    """Expand the product of (1 - q^e) over the given exponents."""
    return multiply_binomials(one_series(order), exponents)


def pochhammer(spec: ProductSpec, order: int) -> QSeries:
    """Expand the spec's product of binomial factors, truncated."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    return poly_from_exponents(exponents(spec, order), order)


def tri_multiply(tri: TriSeries, poly: MultiPoly) -> TriSeries:
    """Product with a polynomial, truncated to the same bounds."""
    nt, nx, ny = tri.bounds
    out = TriSeries.zero(tri.bounds)
    for (dn, dj, dk), c in _tri_exponents(poly).items():
        for n in range(dn, nt + 1):
            src_n = tri.coeffs[n - dn]
            dst_n = out.coeffs[n]
            for j in range(dj, nx + 1):
                src_j = src_n[j - dj]
                dst_j = dst_n[j]
                for k in range(dk, ny + 1):
                    v = src_j[k - dk]
                    if v:
                        dst_j[k] = _norm(dst_j[k] + c * v)
    return out


def tri_truncate_poly(p: MultiPoly, bounds) -> TriSeries:
    return expand_rational(RationalTerm(p), bounds)


def specialize(tri: TriSeries, et: int, ex: int, ey: int, order: int) -> QSeries:
    """Substitute t -> q^et, x -> q^ex, y -> q^ey and collect up to q^order."""
    if min(et, ex, ey) < 1:
        raise ValueError("substitution exponents must be >= 1")
    nt, nx, ny = tri.bounds
    if nt < order // et or nx < order // ex or ny < order // ey:
        raise CoverageError(
            f"bounds {tri.bounds} cannot cover order {order} with steps "
            f"({et}, {ex}, {ey})"
        )
    out: list[Coefficient] = [0] * (order + 1)
    for n in range(min(nt, order // et) + 1):
        base_n = n * et
        plane = tri.coeffs[n]
        for j in range(min(nx, (order - base_n) // ex) + 1):
            base_j = base_n + j * ex
            row = plane[j]
            for k in range(min(ny, (order - base_j) // ey) + 1):
                c = row[k]
                if c:
                    out[base_j + k * ey] += c
    return QSeries.from_coeffs(out, order)
