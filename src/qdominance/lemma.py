"""Nonnegativity of the two-variable kernel behind the four-base split.

The kernel is

    f(x, y, t) = ((1-xy)(1-t x^r)(1-t y^R) + (1-t^2)(x-x^r)(y-y^R))
                 / ((1-t x^r)(1-t y^R)(1-x)(1-y)(1-tx)(1-ty)).

This module expands f exactly on a bounded (t, x, y) lattice, evaluates the
closed forms for its t-slices, and checks the argument that confines any
negative per-term coefficient to a window that the x/y swap symmetry then
rules out.  `certify_lemma` runs all of it in one pass: one expansion of f
(two when the symmetry check needs the swapped (R, r) kernel), and one set
of term grids per slice.

f and the slice closed forms are stated as weighted binomial pieces,
weight * x^a y^b * prod (1 - x^c y^d) (t too in f), which
`polyring.from_pieces` expands; f's numerator is the bracket of the split
group G4 (`antitelescope._thm2_numerators`), with T = q^t, q^x and q^y
read as t, x and y.  The three closed forms of slice n are written once
over the x and y units and r, R: the lattice scan reads them with ints,
and `slice_identity(n)` with the forms of free X = x^r and Y = y^R, so
one identity per slice proves them for every r, R >= 1.

Every (x, y) grid is one int, a plane (`Planes`): the coefficient of
x^j y^k sits in the B-bit slot j(ny+1) + k.  B is proven before anything
is packed.  A cell of 1/prod(factors) counts the multiplicities
(m1, ..., m6) of t x^r, t y^R, x, y, t x, t y that reach t^n x^j y^k;
m1, m2 and m5 fix the other three (m6 = n - m1 - m2 - m5, then m3 and m4)
and m1 + m2 + m5 <= n, so the cell is at most C(nt+3, 3).  f is carried
as two halves P - N, the numerator's positive and negative monomials each
over the factors, since a y shift must drop what spills into the next row
and a mask would cut a signed plane's borrows.  A cell of a half is at
most C(nt+3, 3) times the half's L1 norm, and dividing by only some of the
factors gives less, each 1/(1 - m) = 1 + m + ... being at least 1.  The
swapped (R, r) kernel has the same factors and numerator coefficients.
Each monomial of a slice's nine terms is +-1 (T9's d is 0 or 1) over
(1-x)^px (1-y), px <= 1, whose cells are 0 or 1, and slice n has at most
4n + 6 of each sign, so any sum of its term grids is within 4nt + 6.  B
is the bit length of the larger bound plus one, rounded up to 1, 2, 4 or
8 bytes (the widths `series._slots` reads in one call; more only past 63
bits), so every cell read is below 2^(B-1) in absolute value.  A signed
plane, the exact sum of c_jk 2^(B(j(ny+1)+k)), then has a unique digit
per cell: two planes are equal iff their cells are, and v + H, with
2^(B-1) in every slot, holds c_jk + 2^(B-1) in each slot with no carry,
so the negative cells are the slots whose top bit it leaves clear.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Any

from .polyring import IdentityVerdict, MultiPoly, RationalTerm, _Form, from_pieces, identity_check
from .series import _INT_ONLY, ParameterError, ResourceError, _slots, positive_ints

XY = ("x", "y")
TXY = ("t", "x", "y")
# the slice forms read with X = x^r and Y = y^R free, and the unit forms of x, y, X and Y
SLICE_VARIABLES = ("x", "y", "X", "Y")
SLICE_FORMS = _Form.units(4)
_ZERO = _Form((0,) * 4)

#: Monomials of one closed-form addend: (coefficient, x exponent, y exponent).
Monomials = list[tuple[int, int, int]]

# Largest (t, x, y) lattice, in cells (nt+1)(nx+1)(ny+1).  A certificate holds
# f's planes, the swapped kernel's, two halves while expanding and one
# slice's term planes.  At this bound a `lemma` run peaks at 36 MB RSS at
# (99, 99, 99) (0.6 s), 31 MB at (9, 315, 315) (0.4 s) and 28 MB at
# (249999, 1, 1) (10 s), against 20 MB for the bare interpreter.
MAX_LATTICE_CELLS = 10**6


class LatticeCapError(ResourceError, RuntimeError):
    """Raised when requested bounds exceed MAX_LATTICE_CELLS."""


@dataclass(frozen=True)
class LemmaParams:
    r: int
    R: int
    bounds: tuple[int, int, int]

    def __post_init__(self) -> None:
        positive_ints((self.r, self.R), "r and R", 2)
        check_lattice(self.bounds)


def check_lattice(bounds: tuple[int, int, int]) -> None:
    """Refuse bounds that are not three ints >= 0, or whose lattice is over MAX_LATTICE_CELLS."""
    if not (len(bounds) == 3 and _INT_ONLY.issuperset(map(type, bounds)) and min(bounds) >= 0):
        raise ParameterError(f"bounds must be three nonnegative integers: {bounds}")
    nt, nx, ny = bounds
    cells = (nt + 1) * (nx + 1) * (ny + 1)
    if cells > MAX_LATTICE_CELLS:
        raise LatticeCapError(
            f"bounds {list(bounds)} make a lattice of {cells} cells, above the "
            f"lemma bound {MAX_LATTICE_CELLS}"
        )


@lru_cache(maxsize=64)
def kernel_term(r: int, R: int) -> RationalTerm:
    """f as a single rational term over the (t, x, y) variables; shared, not to be mutated.

    The numerator is G4's bracket, with (x - x^r)(y - y^R) written as
    xy (1 - x^(r-1)) (1 - y^(R-1)); each factor is one binomial.
    """
    numerator = from_pieces(
        TXY,
        [
            (1, (0, 0, 0), [(0, 1, 1), (1, r, 0), (1, 0, R)]),
            (1, (0, 1, 1), [(2, 0, 0), (0, r - 1, 0), (0, 0, R - 1)]),
        ],
    )
    factors = tuple(
        from_pieces(TXY, [(1, (0, 0, 0), [e])])
        for e in ((1, r, 0), (1, 0, R), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1))
    )
    return RationalTerm(numerator, factors)


class Planes:
    """The packing of one certificate's (x, y) box; see the module docstring."""

    def __init__(self, params: LemmaParams) -> None:
        nt, self.nx, self.ny = params.bounds
        coefficients = kernel_term(params.r, params.R).numerator.terms.values()
        weight = max(sum(c for c in coefficients if c > 0), -sum(c for c in coefficients if c < 0))
        bound = max(comb(nt + 3, 3) * weight, 4 * nt + 6)
        self.bits = bits = 8 << (-(-(bound.bit_length() + 1) // 8) - 1).bit_length()
        self.width = self.ny + 1
        self.cells = (self.nx + 1) * self.width
        self.row_bytes = self.width * bits // 8
        self.row_ones = int.from_bytes((b"\1" + bytes(bits // 8 - 1)) * self.width, "little")
        self.row_bias = self.row_ones << bits - 1
        self.ones = int.from_bytes(self.row_ones.to_bytes(self.row_bytes, "little") * (self.nx + 1), "little")
        self.bias = self.ones << bits - 1
        self._masks: dict[int, int] = {}

    def expand(self, monomials: Monomials, px: int) -> int:
        """The monomials over (1-x)^px (1-y), as a signed plane, assembled row by row.

        A monomial x^a y^b adds its coefficient to the cells k >= b of row a
        (a small int of one row); with px = 1 row j is the sum of those rows
        a <= j.  Each row is written biased, as bytes, so the plane is one
        `int.from_bytes` minus H whatever the number of monomials.
        """
        nx, bits = self.nx, self.bits
        rows: dict[int, int] = {}
        for c, a, b in monomials:
            if c and a <= nx and b <= self.ny:
                rows[a] = rows.get(a, 0) + c * (self.row_ones >> b * bits << b * bits)
        parts, row, start = [], 0, 0
        for a in sorted(rows):
            parts.append(self._biased(row if px else 0) * (a - start))
            row = (row if px else 0) + rows[a]
            parts.append(self._biased(row))
            start = a + 1
        parts.append(self._biased(row if px else 0) * (nx + 1 - start))
        return int.from_bytes(b"".join(parts), "little") - self.bias

    def _biased(self, row: int) -> bytes:
        return (row + self.row_bias).to_bytes(self.row_bytes, "little")

    def shifted(self, plane: int, dj: int, dk: int) -> int:
        """x^dj y^dk times a plane of nonnegative cells, cut to the box."""
        mask = self._masks.get(dk)
        if mask is None:
            mask = self._masks[dk] = self.expand([(1, 0, dk)], 1) * ((1 << self.bits) - 1)
        return (plane << (dj * self.width + dk) * self.bits) & mask

    def transposed(self, plane: int) -> int:
        """The signed plane with cell (j, k) moved to (k, j); the box must be square.

        Row k of the biased plane's bytes becomes its column k, one strided
        slice copy per byte of a slot, so no cell is decoded.
        """
        step, row = self.bits // 8, self.row_bytes
        data = (plane + self.bias).to_bytes(self.cells * step, "little")
        out = bytearray(len(data))
        for k in range(self.width):
            for b in range(step):
                out[k * step + b :: row] = data[k * row + b : (k + 1) * row : step]
        return int.from_bytes(out, "little") - self.bias

    def negatives(self, plane: int) -> int:
        """The top bit of every negative cell's slot."""
        return self.bias & ~(plane + self.bias)

    def decode(self, plane: int) -> list[int]:
        """The cells of a signed plane, row by row."""
        half = 1 << self.bits - 1
        return [c - half for c in _slots(plane + self.bias, self.cells - 1, self.bits)]

    def minimum(self, planes: list[int]) -> int:
        """The least cell of the planes; only a plane that may hold a lower one is decoded."""
        lowest = min(self.decode(planes[0]))
        for plane in planes[1:]:
            if self.negatives(plane) or lowest > 0 and self.negatives(plane - lowest * self.ones):
                lowest = min(lowest, *self.decode(plane))
        return lowest


def f_expand(params: LemmaParams, planes: Planes, swap: bool = False) -> list[int]:
    """The t-planes of f within the bounds: plane n holds t^n x^j y^k in cell (j, k).

    With swap, x^j y^k goes to cell (k, j), which needs nx == ny.  Each half
    expands its numerator monomials over 1 - x and 1 - y, the kernel's two
    factors without t, with `Planes.expand`.  Each factor 1 - t^a x^b y^d
    with a > 0 is then the recurrence s[n] += x^b y^d s[n - a], one
    shift-add per plane in increasing n.
    """
    nt = params.bounds[0]
    term = kernel_term(params.r, params.R)
    monomials: tuple[dict[int, Monomials], ...] = ({}, {})
    for (n, a, b), c in term.numerator.terms.items():
        if swap:
            a, b = b, a
        if n <= nt:
            monomials[c < 0].setdefault(n, []).append((abs(c), a, b))
    halves = [[planes.expand(half[n], 1) if n in half else 0 for n in range(nt + 1)] for half in monomials]
    for factor in term.denominator_factors:
        dn, dj, dk = next(filter(any, factor.terms))
        if swap:
            dj, dk = dk, dj
        if dn:
            for half in halves:
                for n in range(dn, nt + 1):
                    half[n] += planes.shifted(half[n - dn], dj, dk)
    return [p - q for p, q in zip(*halves)]


def _xy(*pieces) -> MultiPoly:
    """The pieces (weight, (a, b), binomials) as a polynomial in x, y; see `polyring.from_pieces`."""
    return from_pieces(XY, pieces)


def _xyXY(*pieces) -> MultiPoly:
    """The same over (x, y, X, Y), each pair (a, b) of forms (or 0) read as the exponent a + b."""
    return from_pieces(SLICE_VARIABLES, [(w, _at(lead), list(map(_at, e))) for w, lead, e in pieces])


def _at(pair) -> _Form:
    return (pair[0] or _ZERO) + (pair[1] or _ZERO)


def _reading(r) -> tuple:
    """The x and y units and the builder of the slice forms: 1, 1 and `_xy` when r
    is an int; the forms of x and y and `_xyXY` when r and R are the X and Y forms."""
    return (*SLICE_FORMS[:2], _xyXY) if isinstance(r, _Form) else (1, 1, _xy)


def eqtwo_symbolic(
    n: int, r: int, R: int, box: tuple[int, int] | None = None
) -> list[tuple[str, Monomials, tuple[int, int]]]:
    """The nine t-slice addends: name, numerator monomials, (1-x)/(1-y) powers.

    The two finite sums are materialized for the concrete n, so each entry is
    a polynomial numerator over a denominator (1-x)^px (1-y)^py.  r and R
    are ints, or the X and Y forms (see `_reading`), and each monomial is
    (coefficient, x exponent, y exponent).  With ints and a
    box (nx, ny), the T5, T6 and T7 sums skip every index whose monomials
    all lie outside it: a monomial x^a y^b reaches only cells j >= a,
    k >= b, so the slice is unchanged within the box, and it holds
    O(nx + ny) monomials whatever n is.

    The n = 0 slice is a boundary case: the generic formula overshoots the
    true slice by (1+x)(1-y^R)/(1-y), so T4 is dropped and T8 starts at y^R
    instead of y^0 there; with that adjustment the terms sum to the slice for
    every n, each term still expanding with no negative coefficient at n = 0
    (T3's four monomials cancel there).
    """
    if n < 0:
        raise ValueError(f"slice index must be nonnegative, got {n}")
    x, y, _ = _reading(r)
    d = n % 2
    t5_range = range(1, n)
    t6_range = range(0, (n - 2 - d) // 2 + 1)
    t7_range = range(1, (n - 2 + d) // 2 + 1)
    if box is not None:
        nx, ny = box
        # the least x and y exponents of each index's monomials must fit
        t5_range = _clip(t5_range, n - nx // r, ny)  # (n-j)r and j
        t6_range = _clip(t6_range, -((nx + 1 - n) // 2), (ny // R - 1) // 2)  # n-2j-1, R(2j+1)
        t7_range = _clip(t7_range, -((nx - n) // 2), ny // (2 * R))  # n-2j and 2jR
    xn, yn, yn1, top = n * x, n * y, (n + 1) * y, (n + 1) * R
    terms: list[tuple[str, Monomials, tuple[int, int]]] = [
        ("T1", [(1, xn, 0), (-1, xn, yn1)], (1, 1)),
        ("T2", [(1, xn, yn1), (-1, r, yn1), (-1, xn, top), (1, r, top)], (1, 1)),
        ("T3", [(1, 2 * x, yn), (-1, 2 * r, yn), (-1, 2 * x, n * R), (1, 2 * r, n * R)], (1, 1)),
        ("T4", [(1, x, yn), (-1, x, top)] if n else [], (0, 1)),
    ]
    t5: Monomials = []
    for j in t5_range:
        a = (n - j) * r
        t5 += [(1, a, j * y), (-1, a, j * R), (-1, a + 2 * r, j * y), (1, a + 2 * r, j * R)]
    terms.append(("T5", t5, (1, 1)))
    t6: Monomials = []
    for j in t6_range:
        t6 += [(1, (n - 2 * j - 1) * x, R * (2 * j + 1)), (1, (n - 2 * j) * x, R * (2 * j + 1))]
    terms.append(("T6", t6, (0, 1)))
    t7: Monomials = []
    for j in t7_range:
        for dx in (0, 1):
            t7 += [(1, (n - 2 * j + dx) * x, 2 * j * R), (-1, (n - 2 * j + dx) * x, top)]
    terms.append(("T7", t7, (0, 1)))
    terms.append(("T8", [(1, 0, yn or R)], (0, 1)))
    terms.append(("T9", [(d, x, top)], (0, 1)))
    return terms


def _clip(indices: range, low: int, high: int) -> range:
    return range(max(indices.start, low), min(indices.stop, high + 1))


def eqtwo_term_grids(n: int, params: LemmaParams, planes: Planes) -> list[tuple[str, int]]:
    """Each closed-form addend of the n-th slice (all are over 1 - y) as a signed plane."""
    terms = eqtwo_symbolic(n, params.r, params.R, params.bounds[1:])
    return [(name, planes.expand(monomials, px)) for name, monomials, (px, _) in terms]


def eqone_terms(n: int, r, R) -> list[RationalTerm]:
    """The five-addend closed form of the n-th slice, as rational terms; r and R as in `_reading`."""
    x, y, xy = _reading(r)
    base = (xy((1, (0, 0), [(x, 0)])), xy((1, (0, 0), [(0, y)])), xy((1, (x, 0), [(-x, y)])))
    xr_minus_yR = xy((1, (r, 0), [(-r, R)]))
    # (x - x^r)(y - y^R) = xy (1 - x^(r-1)) (1 - y^(R-1)): the binomials
    # x_side and y_side, and xy folded into the leads
    x_side, y_side = (r - x, 0), (0, R - y)
    return [
        # (1 - xy)(x^(n+1) - y^(n+1)) / ((1-x)(1-y)(x-y))
        RationalTerm(xy((1, ((n + 1) * x, 0), [(x, y), (-(n + 1) * x, (n + 1) * y)])), base),
        # (x^(nr+1)(1 - x^(2r)) - x^(n+r)(1 - x^2))(y - y^R) / (... (x^r - y^R))
        RationalTerm(
            xy((-1, (n * x + r, y), [(2 * x, 0), y_side]), (1, (n * r + x, y), [(2 * r, 0), y_side])),
            (*base, xr_minus_yR),
        ),
        # (y^(nR+1)(1 - y^(2R)) - y^(n+R)(1 - y^2))(x - x^r) / (... (x^r - y^R))
        RationalTerm(
            xy((-1, (x, n * y + R), [(0, 2 * y), x_side]), (1, (x, n * R + y), [(0, 2 * R), x_side])),
            (*base, xr_minus_yR),
        ),
        # (y x^(nr)(1 - x^(2r)) - x^r y^n (1 - y^2))(x - x^r)(y - y^R) / (... (x^r - y^R)(x^r - y))
        RationalTerm(
            xy(
                (1, (n * r + x, 2 * y), [(2 * r, 0), x_side, y_side]),
                (-1, (r + x, (n + 1) * y), [(0, 2 * y), x_side, y_side]),
            ),
            (*base, xr_minus_yR, xy((1, (r, 0), [(-r, y)]))),
        ),
        # (x y^(nR)(1 - y^(2R)) - y^R x^n (1 - x^2))(x - x^r)(y - y^R) / (... (x^r - y^R)(y^R - x))
        RationalTerm(
            xy(
                (1, (2 * x, n * R + y), [(0, 2 * R), x_side, y_side]),
                (-1, ((n + 1) * x, R + y), [(2 * x, 0), x_side, y_side]),
            ),
            (*base, xr_minus_yR, xy((1, (0, R), [(x, -R)]))),
        ),
    ]


def eqthree_terms(n: int, r, R) -> list[RationalTerm]:
    """The sum-free nine-addend closed form, as rational terms; r and R as in `_reading`."""
    x, y, xy = _reading(r)
    one_minus_y = xy((1, (0, 0), [(0, y)]))
    base = (one_minus_y, xy((1, (0, 0), [(x, 0)])))
    # each term's numerator over its denominator
    return [
        # x^n (1 - y^(n+1)) / ((1-y)(1-x))
        RationalTerm(xy((1, (n * x, 0), [(0, (n + 1) * y)])), base),
        # (y^(n+1) - y^((n+1)R))(x^n - x^r) / ((1-y)(1-x))
        RationalTerm(xy((1, (n * x, (n + 1) * y), [(0, (n + 1) * (R - y)), (r - n * x, 0)])), base),
        # (y^n - y^(nR))(x^2 - x^(2r)) / ((1-y)(1-x))
        RationalTerm(xy((1, (2 * x, n * y), [(0, n * (R - y)), (2 * (r - x), 0)])), base),
        # x (y^n - y^((n+1)R)) / (1-y)
        RationalTerm(xy((1, (x, n * y), [(0, (n + 1) * R - n * y)])), (one_minus_y,)),
        # y^n / (1-y)
        RationalTerm(xy((1, (0, n * y), [])), (one_minus_y,)),
        # (1 + x)(x^n y^R - x y^(nR)) / ((1-y)(x - y^R)), 1 + x as two leads
        RationalTerm(
            xy((1, (n * x, R), [((1 - n) * x, (n - 1) * R)]), (1, ((n + 1) * x, R), [((1 - n) * x, (n - 1) * R)])),
            (one_minus_y, xy((1, (x, 0), [(-x, R)]))),
        ),
        # (x^(nr) y - x^r y^n)(1 - x^(2r)) / ((1-y)(1-x)(x^r - y))
        RationalTerm(
            xy((1, (n * r, y), [(r - n * r, (n - 1) * y), (2 * r, 0)])),
            (*base, xy((1, (r, 0), [(-r, y)]))),
        ),
        # -y^((n+1)R) (1 + x)(x^2 - x^n) / ((1-y)(1-x^2))
        RationalTerm(
            xy((-1, (2 * x, (n + 1) * R), [((n - 2) * x, 0)]), (-1, (3 * x, (n + 1) * R), [((n - 2) * x, 0)])),
            (one_minus_y, xy((1, (0, 0), [(2 * x, 0)]))),
        ),
        # (x^r y^(nR) - x^(nr) y^R)(1 - x^(2r)) / ((1-y)(1-x)(x^r - y^R))
        RationalTerm(
            xy((1, (r, n * R), [(n * r - r, R - n * R), (2 * r, 0)])),
            (*base, xy((1, (r, 0), [(-r, R)]))),
        ),
    ]


def eqtwo_terms_rational(n: int, r, R) -> list[RationalTerm]:
    """The slice closed form with its finite sums materialized, term by term; r and R as in `_reading`."""
    x, y, xy = _reading(r)
    one_minus = xy((1, (0, 0), [(x, 0)])), xy((1, (0, 0), [(0, y)]))
    return [
        RationalTerm(
            xy(*((c, (a, b), ()) for c, a, b in monomials)),
            (one_minus[0],) * px + (one_minus[1],) * py,
        )
        for _, monomials, (px, py) in eqtwo_symbolic(n, r, R)
    ]


@dataclass(frozen=True)
class LemmaVerdict:
    """Joint result of the two closed-form equivalences at one (n, r, R), or one n for all."""

    one_vs_three: IdentityVerdict
    three_vs_two: IdentityVerdict

    @property
    def equal(self) -> bool:
        return self.one_vs_three.equal and self.three_vs_two.equal


def _closed_forms_agree(n: int, r, R) -> LemmaVerdict:
    one, three = eqone_terms(n, r, R), eqthree_terms(n, r, R)
    return LemmaVerdict(identity_check(one, three), identity_check(three, eqtwo_terms_rational(n, r, R)))


def check_eqone_eqthree(n: int, r: int, R: int) -> LemmaVerdict:
    """Verify the three closed forms agree as rational functions at one (n, r, R)."""
    if type(n) is not int or n < 0:
        raise ValueError(f"slice index must be a nonnegative integer, got {n!r}")
    positive_ints((r, R), "r and R", 2)
    return _closed_forms_agree(n, r, R)


def slice_identity(n: int) -> LemmaVerdict:
    """The three closed forms of slice n agree for every r, R >= 1.

    They are read over (x, y, X, Y) with X and Y free.  Substituting
    X = x^r and Y = y^R is a ring homomorphism that sends no denominator
    (X - Y, X - y, Y - x, 1 - x, 1 - x^2, 1 - y) to 0, so two equal sides
    stay equal at every r and R.
    """
    return _closed_forms_agree(n, *SLICE_FORMS[2:])


def t2_closed_form(n: int, params: LemmaParams, planes: Planes) -> int:
    """-(y^(n+1)+...+y^((n+1)R-1)) (x^r+...+x^(n-1)) as a signed plane; needs r < n."""
    r, R = params.r, params.R
    if r >= n:
        raise ValueError(f"closed form applies only for r < n, got r={r}, n={n}")
    k = (n + 1) * R
    return -planes.expand([(1, r, n + 1), (-1, r, k), (-1, n, n + 1), (1, n, k)], 1)


def _scan_slices(params: LemmaParams, planes: Planes, tri: list[int]):
    """The negativity-window report, plus the first slice whose term sum
    differs from the matching plane of `tri` (None when all match).

    The report checks, for every slice n within bounds: (a) the slice sum
    without T2 is nonnegative; (b) T2 matches its product closed form when
    r < n; (c) any negative per-term cell lies in the window
    r <= j < n < k < (n+1)R; (d) the total slice is nonnegative.  Each
    slice's nine term grids are built once, and every check reads them.
    """
    nt = params.bounds[0]
    r, R = params.r, params.R
    names = ("sum_without_t2_nonnegative", "t2_matches_closed_form", "window_contained", "total_nonnegative")
    checks = dict.fromkeys(names, True)
    negative_cells = 0
    min_total = 0
    mismatch = None
    for n in range(nt + 1):
        # the window is where T2's closed form is -1: empty unless r < n
        closed = t2_closed_form(n, params, planes) if r < n else 0
        window = -closed << planes.bits - 1
        without_t2 = 0
        for name, grid in eqtwo_term_grids(n, params, planes):
            negatives = planes.negatives(grid)
            if negatives:
                negative_cells += negatives.bit_count()
                if negatives & ~window:
                    checks["window_contained"] = False
            if name == "T2":
                t2 = grid
            else:
                without_t2 += grid
        if r < n and t2 != closed:
            checks["t2_matches_closed_form"] = False
        if planes.negatives(without_t2):
            checks["sum_without_t2_nonnegative"] = False
        total = without_t2 + t2
        if planes.negatives(total):
            checks["total_nonnegative"] = False
            min_total = min(min_total, *planes.decode(total))
        if mismatch is None and total != tri[n]:
            mismatch = n
    report = {
        "r": r,
        "R": R,
        "bounds": list(params.bounds),
        "checks": checks,
        "min_total_coefficient": min_total,
        "negative_term_cells": negative_cells,
        "ok": all(checks.values()),
    }
    return report, mismatch


def _symmetry(planes: Planes, tri: list[int], mirror: list[int] | None) -> dict[str, Any]:
    """f(n, j, k) == f_(R,r)(n, k, j) everywhere, or the first (n, j, k) that differs.

    `mirror` holds the swapped kernel already in swapped cells, so its planes
    compare with f's as ints; None means r == R, where each plane of f is
    compared, as an int, with its own transpose (`Planes.transposed`).  Only
    a plane that differs is decoded, to name its first mismatching cell.
    """
    width = planes.width
    for n, plane in enumerate(tri):
        if plane == (planes.transposed(plane) if mirror is None else mirror[n]):
            continue
        lhs = planes.decode(plane)
        rhs = planes.decode(mirror[n]) if mirror is not None else [c for k in range(width) for c in lhs[k::width]]
        cell = next((i for i, (a, b) in enumerate(zip(lhs, rhs)) if a != b), None)
        if cell is not None:
            j, k = divmod(cell, width)
            details = {"n": n, "j": j, "k": k, "lhs": lhs[cell], "rhs": rhs[cell]}
            return {"equal": False, "first_mismatch": details}
    return {"equal": True, "first_mismatch": None}


def certify_lemma(r: int, R: int, bounds: tuple[int, int, int]) -> dict[str, Any]:
    """Composite kernel-expansion check: signs, slices, window, symmetry.

    f is expanded once; the swapped kernel only when r != R and the x/y
    bounds are square (otherwise symmetry is a transpose of f itself, or not
    checked).  The first failed check, in that order, is the witness.
    """
    params = LemmaParams(r, R, bounds)
    planes = Planes(params)
    tri = f_expand(params, planes)
    minimum = planes.minimum(tri)
    window, slice_mismatch = _scan_slices(params, planes, tri)
    symmetry = None
    if bounds[1] == bounds[2]:
        mirror = None if r == R else f_expand(LemmaParams(R, r, bounds), planes, swap=True)
        symmetry = _symmetry(planes, tri, mirror)
    checks = {
        "expansion_nonnegative": minimum >= 0,
        "slices_match": slice_mismatch is None,
        "window": window["ok"],
        "symmetry": None if symmetry is None else symmetry["equal"],
    }
    witness = None
    if not checks["expansion_nonnegative"]:
        witness = {"check": "expansion_nonnegative", "min_coefficient": minimum}
    elif not checks["slices_match"]:
        witness = {"check": "slices_match", "n": slice_mismatch}
    elif not checks["window"]:
        witness = {"check": "window", "details": window["checks"]}
    elif checks["symmetry"] is False:
        witness = {"check": "symmetry", "details": symmetry["first_mismatch"]}
    return {
        "r": r,
        "R": R,
        "bounds": list(bounds),
        "checks": checks,
        "min_coefficient": minimum,
        "window": window,
        "symmetry": symmetry,
        "ok": witness is None,
        "witness": witness,
    }
