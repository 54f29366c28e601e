"""Sparse multivariate polynomials and dense truncated trivariate series.

MultiPoly stores terms as a map from exponent tuples to exact rational
coefficients; the variable list is part of the value and two polynomials
combine only when their variable lists agree.  Rational functions appear
in two roles with different safety requirements:

* expand_rational turns numerator / product-of-unit-binomials into a
  dense truncated series over (t, x, y); it refuses denominator factors
  that are not of the form 1 - c*monomial, because only those have
  well-defined power-series reciprocals here.
* identity_check compares two sums of rational terms exactly, by clearing
  all denominators; denominators there may be any nonzero polynomial,
  including differences of monomials with removable singularities.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from operator import add, mul

from qdominance.series import _INT_ONLY, Coefficient, _norm

# axis order for TriSeries lattices
TRI_VARIABLES = ("t", "x", "y")


class VariableMismatchError(ValueError):
    """Raised when polynomials over different variable lists are combined."""


class SingularDenominatorError(ValueError):
    """Raised when a series expansion needs a non-unit denominator factor."""


class MultiPoly:
    """Sparse polynomial: terms maps exponent tuples to nonzero coefficients."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms):
        self.variables = tuple(variables)
        width = len(self.variables)
        if not all(map(width.__eq__, map(len, terms))):
            exps = next(e for e in terms if len(e) != width)
            raise ValueError(
                f"exponent tuple {exps} does not match variables {self.variables}"
            )
        values = terms.values()
        if _INT_ONLY.issuperset(map(type, values)):
            # all-int maps are kept as given, less their zero terms
            self.terms = {e: c for e, c in terms.items() if c} if 0 in values else dict(terms)
            return
        clean: dict[tuple[int, ...], Coefficient] = {}
        for exps, c in terms.items():
            c = _norm(c)
            if c:
                clean[tuple(exps)] = c
        self.terms = clean

    def __eq__(self, other):
        return (
            isinstance(other, MultiPoly)
            and self.variables == other.variables
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.variables, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        return f"MultiPoly({self.variables}, {to_text(self)!r})"

    def is_zero(self) -> bool:
        return not self.terms


def mp_zero(variables) -> MultiPoly:
    return MultiPoly(variables, {})


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


def mp_neg(a: MultiPoly) -> MultiPoly:
    return MultiPoly(a.variables, {e: -c for e, c in a.terms.items()})


def to_text(p: MultiPoly) -> str:
    """Canonical form 'c * x^a y^b ...' with terms in sorted exponent order."""
    if not p.terms:
        return "0"
    pieces = []
    for exps in sorted(p.terms, reverse=True):
        c = Fraction(p.terms[exps])
        mag = abs(c)
        mag_txt = str(mag.numerator) if mag.denominator == 1 else f"{mag.numerator}/{mag.denominator}"
        vars_txt = " ".join(
            v if e == 1 else f"{v}^{e}"
            for v, e in zip(p.variables, exps)
            if e
        )
        if vars_txt and mag == 1:
            body = vars_txt
        elif vars_txt:
            body = f"{mag_txt} * {vars_txt}"
        else:
            body = mag_txt
        sign = "-" if c < 0 else "+"
        pieces.append((sign, body))
    first_sign, first_body = pieces[0]
    out = (first_sign if first_sign == "-" else "") + first_body
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


@dataclass(frozen=True)
class RationalTerm:
    """numerator / product(denominator_factors), all over one variable list."""

    numerator: MultiPoly
    denominator_factors: tuple[MultiPoly, ...] = ()

    def variables(self):
        return self.numerator.variables


@dataclass
class TriSeries:
    """Dense truncated series over (t, x, y): coeffs[n][j][k]."""

    bounds: tuple[int, int, int]
    coeffs: list

    @staticmethod
    def zero(bounds) -> "TriSeries":
        nt, nx, ny = bounds
        return TriSeries(
            (nt, nx, ny),
            [[[0] * (ny + 1) for _ in range(nx + 1)] for _ in range(nt + 1)],
        )

    def slice_at(self, n: int) -> list:
        return self.coeffs[n]

    def min_coefficient(self) -> Coefficient:
        return min(min(min(row) for row in plane) for plane in self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, TriSeries)
            and self.bounds == other.bounds
            and self.coeffs == other.coeffs
        )


def _tri_exponents(p: MultiPoly) -> dict[tuple[int, int, int], Coefficient]:
    """Map a polynomial in a subset of (t, x, y) onto lattice exponents."""
    axis = []
    for v in p.variables:
        if v not in TRI_VARIABLES:
            raise ValueError(f"variable {v!r} not one of {TRI_VARIABLES}")
        axis.append(TRI_VARIABLES.index(v))
    out: dict[tuple[int, int, int], Coefficient] = {}
    for exps, c in p.terms.items():
        key = [0, 0, 0]
        for pos, e in zip(axis, exps):
            key[pos] += e
        out[tuple(key)] = out.get(tuple(key), 0) + c
    return out


def _unit_binomial_delta(factor: MultiPoly):
    """For a factor 1 - c*monomial, return (delta exponents, c); else None."""
    cells = _tri_exponents(factor)
    if cells.get((0, 0, 0)) != 1:
        return None
    rest = {e: c for e, c in cells.items() if e != (0, 0, 0)}
    if len(rest) != 1:
        return None
    (delta, neg_c), = rest.items()
    if delta == (0, 0, 0):
        return None
    return delta, -neg_c


def _division_rank(hit) -> int:
    """Order of division by one unit binomial in `expand_rational`.

    The quotient does not depend on the order, but the work does: a zero
    source row is skipped.  Factors in y alone, then those with t, leave most
    (t, x) rows zero; a factor in x without t fills every row of its plane,
    so it goes last.
    """
    (dn, dj, _), _ = hit
    if dn:
        return 1
    return 2 if dj else 0


def expand_rational(term: RationalTerm, bounds) -> TriSeries:
    """Truncated expansion of the term over the (t, x, y) lattice.

    Dividing by (1 - c*t^a x^b y^d) is the recurrence s[i] += c*s[i - delta],
    run one (t, x) row at a time: with a or b nonzero each row adds its source
    row, already divided, shifted by d; a factor in y alone is a running sum
    along each residue class of the row mod d.  All-int lattices stay ints;
    a lattice that holds a Fraction is normalized once, at the end.
    """
    nt, nx, ny = bounds
    out = TriSeries.zero((nt, nx, ny))
    cs = out.coeffs
    exact = True
    for (n, j, k), c in _tri_exponents(term.numerator).items():
        if n <= nt and j <= nx and k <= ny:
            cs[n][j][k] += c
            exact = exact and type(c) is int
    deltas = []
    for factor in term.denominator_factors:
        hit = _unit_binomial_delta(factor)
        if hit is None:
            raise SingularDenominatorError(
                f"denominator factor is not 1 - c*monomial: {to_text(factor)}"
            )
        deltas.append(hit)
        exact = exact and type(hit[1]) is int
    deltas.sort(key=_division_rank)
    for (dn, dj, dk), c in deltas:
        if dn or dj:
            for n in range(dn, nt + 1):
                pn, qn = cs[n - dn], cs[n]
                for j in range(dj, nx + 1):
                    src = pn[j - dj]
                    if any(src):
                        if c != 1:
                            src = map(mul, repeat(c), src)
                        row = qn[j]
                        row[dk:] = map(add, row[dk:], src)
        else:
            step = None if c == 1 else (lambda acc, v: v + c * acc)
            for plane in cs:
                for row in filter(any, plane):
                    for start in range(min(dk, ny + 1)):
                        row[start::dk] = accumulate(row[start::dk], step)
    if not exact:
        for plane in cs:
            for j, row in enumerate(plane):
                plane[j] = [_norm(c) for c in row]
    return out


# ---------------------------------------------------------------------------
# identity checking


@dataclass
class IdentityVerdict:
    equal: bool
    witness: dict | None = None


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


def _common_variables(terms) -> tuple[str, ...]:
    vars_seen = {t.numerator.variables for t in terms}
    for t in terms:
        vars_seen.update(f.variables for f in t.denominator_factors)
    if len(vars_seen) != 1:
        raise VariableMismatchError(f"mixed variable lists: {sorted(vars_seen)}")
    return next(iter(vars_seen))


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


def identity_check(lhs, rhs) -> IdentityVerdict:
    """Decide whether sum(lhs) equals sum(rhs) as rational functions.

    The difference of the two sides is brought over the least common
    denominator; the sums agree exactly when the cleared numerator is 0,
    and otherwise its smallest monomial is the witness.
    """
    lhs = list(lhs)
    rhs = list(rhs)
    variables = _common_variables(lhs + rhs)
    all_terms = lhs + [
        RationalTerm(mp_neg(t.numerator), t.denominator_factors) for t in rhs
    ]
    lcd_counts, factors_by_key = _lcd(all_terms)
    diff = _clear_denominators(all_terms, lcd_counts, factors_by_key)
    if diff is None or diff.is_zero():
        return IdentityVerdict(True)
    exps = min(diff.terms)
    witness = {
        "monomial": dict(zip(variables, exps)),
        "coefficient": str(Fraction(diff.terms[exps])),
    }
    return IdentityVerdict(False, witness)


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
