"""Sparse multivariate polynomials and exact identity checking.

MultiPoly stores terms as a map from exponent tuples to int
coefficients; the variable list is part of the value.  Every polynomial
the package states is written as weighted binomial pieces,
weight * v^lead * prod (1 - v^e), and expanded by `from_pieces`; nothing
else in the package builds a polynomial from a formula.  The split
numerators, the h numerator, the lemma's kernel and the generating
functions of its slices are written once over sizes: read with ints
they are exponents, and read with the unit linear forms of `_Form` they
are exponent vectors over free variables, one per size, so that one
identity over those variables holds at every size.  Each module states
those identities once, as (name, sides) rows of its `IDENTITIES`.

identity_check compares two sums of rational terms over Z[x] exactly, by
clearing all denominators; denominators there may be any nonzero
polynomial, including differences of monomials with removable
singularities.  The cleared numerator is never built as a polynomial:
the check substitutes x_j -> 2^(B * S_j), applies each missing
denominator factor by shifts and adds, and sums the packed terms as
Python ints.  The substitution is a ring homomorphism Z[x] -> Z, and it
is injective on the exponent box [lo, hi] of the cleared numerator when
the strides S_j are mixed-radix over the box and every coefficient has
|c| < 2^(B - 1), since balanced base-2^B digits are unique.  B and the
box are proven from the pieces before anything is packed, so the
rational functions agree exactly when one int is 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from operator import add, mul, sub

from qdominance.series import ResourceError


class VariableMismatchError(ValueError):
    """Raised when an identity mixes polynomials over different variable lists."""


# Largest packed integer, slots x B bits, that one identity check may
# build: 16 MiB.  The largest check of an `identities` request, the
# kernel's slices over (t, x, y, X, Y) (the `kernel-slices` row), packs
# 3,888 slots x 12 bits = 46,656 bits in 1.6 ms (2.0 ms with its terms
# built; best of 21, 2-vCPU shared Xeon VM, Python 3.11.7), so this
# leaves a factor of about 2,900.
MAX_IDENTITY_BITS = 1 << 27


class MultiPoly:
    """Sparse polynomial: terms maps exponent tuples to nonzero int coefficients."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms):
        self.variables = tuple(variables)
        width = len(self.variables)
        if not all(map(width.__eq__, map(len, terms))):
            exps = next(e for e in terms if len(e) != width)
            raise ValueError(
                f"exponent tuple {exps} does not match variables {self.variables}"
            )
        # maps are kept as given, less their zero terms
        self.terms = {e: c for e, c in terms.items() if c} if 0 in terms.values() else dict(terms)

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


class _Form(tuple):
    """An exponent as its coefficients over the variables; the zero form is false, like 0.

    Forms add, subtract, negate and scale by ints, so a formula in sizes
    reads the same with ints and with forms.
    """

    @classmethod
    def units(cls, count: int) -> list["_Form"]:
        """The `count` unit forms over `count` variables."""
        return [cls(int(j == k) for k in range(count)) for j in range(count)]

    def __add__(self, other):
        return _Form(map(add, self, other))

    def __sub__(self, other):
        return _Form(map(sub, self, other))

    def __mul__(self, k: int):
        if type(k) is not int:
            return NotImplemented
        return _Form(c * k for c in self)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1

    def __bool__(self):
        return any(self)


def from_pieces(variables, pieces) -> MultiPoly:
    """The sum over pieces (weight, lead, binomials) of weight * v^lead * prod (1 - v^e).

    Exponents are tuples over `variables`, added componentwise, so any
    tuple type works; a component may be negative (x - y is
    (1, (1, 0), [(-1, 1)])), and a zero e cancels its piece.  This is the
    package's one way to state a polynomial.
    """
    terms: dict[tuple[int, ...], int] = {}
    for weight, lead, binomials in pieces:
        piece = {tuple(lead): weight}
        for e in binomials:
            for k, c in list(piece.items()):
                shifted = tuple(map(add, k, e))
                piece[shifted] = piece.get(shifted, 0) - c
        for k, c in piece.items():
            terms[k] = terms.get(k, 0) + c
    return MultiPoly(variables, terms)


def to_text(p: MultiPoly) -> str:
    """Canonical form 'c * x^a y^b ...' with terms in sorted exponent order."""
    if not p.terms:
        return "0"
    pieces = []
    for exps in sorted(p.terms, reverse=True):
        c = p.terms[exps]
        mag = abs(c)
        vars_txt = " ".join(
            v if e == 1 else f"{v}^{e}"
            for v, e in zip(p.variables, exps)
            if e
        )
        if vars_txt and mag == 1:
            body = vars_txt
        elif vars_txt:
            body = f"{mag} * {vars_txt}"
        else:
            body = str(mag)
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


# ---------------------------------------------------------------------------
# identity checking


@dataclass(frozen=True)
class IdentityVerdict:
    equal: bool
    witness: dict | None = None


@cache
def decide_identity(sides) -> IdentityVerdict:
    """The verdict of an `IDENTITIES` row: `identity_check`'s on the first of its
    (lhs, rhs) pairs that fails, or an equal one.  Cached per `sides`, so a
    row is decided at most once per process and its frozen verdict shared."""
    for lhs, rhs in sides():
        verdict = identity_check(lhs, rhs)
        if not verdict.equal:
            return verdict
    return IdentityVerdict(True)


def _canonical_key(factor: MultiPoly) -> tuple[tuple, int]:
    """The factor's sorted terms, signed so that the largest exponent tuple
    has a positive coefficient, and that sign."""
    if factor.is_zero():
        raise ZeroDivisionError("zero denominator factor")
    key = tuple(sorted(factor.terms.items()))
    if key[-1][1] < 0:
        return tuple((e, -c) for e, c in key), -1
    return key, 1


def _common_variables(terms) -> tuple[str, ...]:
    vars_seen = {t.numerator.variables for t in terms}
    for t in terms:
        vars_seen.update(f.variables for f in t.denominator_factors)
    if len(vars_seen) != 1:
        raise VariableMismatchError(f"mixed variable lists: {sorted(vars_seen)}")
    return next(iter(vars_seen))


class _ScaledPoly:
    """A nonzero polynomial with its lowest and highest exponent in each
    variable and the L1 norm of its coefficients."""

    __slots__ = ("terms", "lo", "hi", "l1")

    def __init__(self, terms: dict[tuple[int, ...], int]):
        self.terms = terms
        columns = list(zip(*terms))
        self.lo = tuple(map(min, columns))
        self.hi = tuple(map(max, columns))
        self.l1 = sum(map(abs, terms.values()))

    def shifts(self, origin, strides, slot_bits: int) -> list[tuple[int, int]]:
        """(c, bit shift) of each term c * x^e of self / x^origin at x_j = 2^(slot_bits * strides_j)."""
        base = sum(map(mul, origin, strides))
        return [(c, slot_bits * (sum(map(mul, exps, strides)) - base)) for exps, c in self.terms.items()]

    def pack(self, sign: int, origin, strides, slot_bits: int) -> int:
        """sign * self / x^origin at x_j = 2^(slot_bits * strides_j)."""
        return sum((sign * c) << shift for c, shift in self.shifts(origin, strides, slot_bits))


@dataclass(frozen=True)
class _PackedDifference:
    """The cleared numerator of lhs - rhs at x_j = 2^(slot_bits * strides_j),
    divided by x^lo: slot sum((e_j - lo_j) * strides_j) of `total` holds the
    coefficient of x^e as a balanced digit."""

    variables: tuple[str, ...]
    lo: tuple[int, ...]
    spans: list[int]
    strides: list[int]
    slot_bits: int
    total: int

    def lowest_term(self) -> dict:
        """The lowest nonzero slot as a monomial and its coefficient."""
        slot = ((self.total & -self.total).bit_length() - 1) // self.slot_bits
        digit = (self.total >> slot * self.slot_bits) & ((1 << self.slot_bits) - 1)
        if digit >> (self.slot_bits - 1):
            digit -= 1 << self.slot_bits
        exps = (l + slot // stride % span for l, stride, span in zip(self.lo, self.strides, self.spans))
        return {
            "monomial": dict(zip(self.variables, exps)),
            "coefficient": str(digit),
        }


def identity_check(lhs, rhs) -> IdentityVerdict:
    """Decide whether sum(lhs) equals sum(rhs) as rational functions.

    The difference is brought over the least common denominator of its
    factors, taken up to sign; the sums agree exactly when the cleared
    numerator D is 0, and otherwise the witness is the lexicographically
    smallest monomial of D with its coefficient.

    D is never built.  Every coefficient is an int, and each cleared term
    sign * numerator * prod f^missing is shifted by its own lowest
    exponents.  x_j -> 2^(B * S_j) is a ring homomorphism Z[x] -> Z; with
    mixed-radix strides S_j over the exponent box of D, the first
    variable the most significant, and B = bound.bit_length() + 1, where
    bound = sum over terms of L1(numerator) * prod L1(f)^missing is at
    least every coefficient of D, it is injective on D: slots are
    distinct and balanced base-2^B digits are unique.  So D = 0 exactly
    when the packed terms sum to 0, and the lowest nonzero slot is the
    witness, its digit the coefficient.  Terms that miss the same factors
    share one packed sum; each missing factor is applied to it once per
    count as share = sum c * (share << shift) over the factor's terms,
    two shifts and an add for a binomial.  A box above MAX_IDENTITY_BITS
    (slots x B) raises ResourceError before anything is packed.
    """
    packed = _pack_difference(lhs, rhs)
    if packed is None or not packed.total:
        return IdentityVerdict(True)
    return IdentityVerdict(False, packed.lowest_term())


def _pack_difference(lhs, rhs) -> _PackedDifference | None:
    """The packed cleared numerator of sum(lhs) - sum(rhs); see `identity_check`.

    None when no term has a nonzero numerator.
    """
    lhs = list(lhs)
    rhs = list(rhs)
    variables = _common_variables(lhs + rhs)
    width = len(variables)
    lcd: dict[tuple, int] = {}
    canonical: dict[int, tuple[tuple, int]] = {}
    terms = []
    for side, side_terms in ((1, lhs), (-1, rhs)):
        for term in side_terms:
            sign = side
            own: dict[tuple, int] = {}
            for f in term.denominator_factors:
                if id(f) not in canonical:
                    canonical[id(f)] = _canonical_key(f)
                key, s = canonical[id(f)]
                sign *= s
                own[key] = own.get(key, 0) + 1
            for key, count in own.items():
                if count > lcd.get(key, 0):
                    lcd[key] = count
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
            if count:
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
        raise ResourceError(
            f"packed identity of {slots} slots x {slot_bits} bits exceeds the bound {MAX_IDENTITY_BITS}"
        )
    shifts = [f.shifts(f.lo, strides, slot_bits) for f in factors]
    total = 0
    for missing, offset, members in placed:
        origin = tuple(map(sub, lo, offset))
        share = sum(num.pack(sign, origin, strides, slot_bits) for sign, num in members)
        for pairs, count in zip(shifts, missing):
            for _ in range(count):
                share = sum(c * (share << shift) for c, shift in pairs)
        total += share
    return _PackedDifference(variables, lo, spans, strides, slot_bits, total)
