"""Nonnegativity of the two-variable kernel behind the four-base split.

The kernel is

    f(x, y, t) = ((1-xy)(1-t x^r)(1-t y^R) + (1-t^2)(x-x^r)(y-y^R))
                 / ((1-t x^r)(1-t y^R)(1-x)(1-y)(1-tx)(1-ty)).

This module expands f exactly on a bounded (t, x, y) lattice, evaluates the
closed forms for its t-slices (`eqtwo_symbolic`), and checks the argument
that confines any negative per-term coefficient to a window, the negative
cells of the slice's term T2, that the x/y swap symmetry then rules out.
`certify_lemma` runs all of it in one pass: one expansion of f, one set
of term grids per slice, and the symmetry as one exact identity.

f and the slice closed forms are stated as weighted binomial pieces,
weight * x^a y^b * prod (1 - x^c y^d) (t too in f), which
`polyring.from_pieces` expands; f's numerator is the bracket of the split
group G4 (`antitelescope._thm2_numerators`), with T = q^t, q^x and q^y
read as t, x and y.  f is written once over the forms of t, x, y,
X = x^r and Y = y^R (`_kernel`): the lattice reads it with X and Y the
powers, and the identities with X and Y free.  The slices' nine terms,
each summed over n with weight t^n, are 18 rational terms over the same
variables (`_slices`).  So the two rows of `IDENTITIES` hold for every
r, R >= 1: `kernel-slices` says that slice n of f is the nine terms for
every n, and `kernel-symmetry` that f_(r,R)(t, x, y) = f_(R,r)(t, y, x).

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
factors gives less, each 1/(1 - m) = 1 + m + ... being at least 1.  Each
monomial of a slice's nine terms is +-1 (T9's d is 0 or 1) over
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

from .polyring import RationalTerm, _Form, decide_identity, from_pieces
from .series import _INT_ONLY, ParameterError, ResourceError, _slots, positive_ints

TXY = ("t", "x", "y")
# the slice forms read with X = x^r and Y = y^R free, and the unit forms of x, y, X and Y
SLICE_VARIABLES = ("x", "y", "X", "Y")
SLICE_FORMS = _Form.units(4)

#: Monomials of one closed-form addend: (coefficient, x exponent, y exponent).
Monomials = list[tuple[int, int, int]]

# Largest (t, x, y) lattice, in cells (nt+1)(nx+1)(ny+1).  A certificate holds
# f's planes, two halves while expanding and one slice's term planes.  At
# this bound `lemma --r 2 --R 3` peaks at 29 MB RSS at (99, 99, 99) (0.4 s),
# 27 MB at (9, 315, 315) (0.3 s) and 23 MB at (249999, 1, 1) (9 s), against
# 14 MB for the bare interpreter (2-vCPU shared VM, Python 3.11.7).
MAX_LATTICE_CELLS = 10**6


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
        raise ResourceError(
            f"bounds {list(bounds)} make a lattice of {cells} cells, above the "
            f"lemma bound {MAX_LATTICE_CELLS}"
        )


def _kernel(variables, t, x, y, X, Y) -> RationalTerm:
    """f over `variables`, with t, x, y, X = x^r and Y = y^R read as exponent forms.

    The numerator is G4's bracket, with (x - X)(y - Y) written as
    xy (1 - X/x) (1 - Y/y); each factor is one binomial.
    """
    zero = t - t
    numerator = from_pieces(
        variables, [(1, zero, [x + y, t + X, t + Y]), (1, x + y, [t + t, X - x, Y - y])]
    )
    factors = tuple(from_pieces(variables, [(1, zero, [e])]) for e in (t + X, t + Y, x, y, t + x, t + y))
    return RationalTerm(numerator, factors)


@lru_cache(maxsize=64)
def kernel_term(r: int, R: int) -> RationalTerm:
    """f as a single rational term over the (t, x, y) variables; shared, not to be mutated."""
    t, x, y = _Form.units(3)
    return _kernel(TXY, t, x, y, r * x, R * y)


def _slices(variables, t, x, y, X, Y) -> list[tuple[str, list[RationalTerm]]]:
    """The nine terms of `eqtwo_symbolic`, each summed over n with weight t^n, over `variables`.

    Each sum is one or more rational terms over its slice denominator,
    (1-x)(1-y), or 1-y for T4 and T6 to T9, with t, x, y, X = x^r and
    Y = y^R read as exponent forms.  The finite sums of T5, T6 and T7 are
    re-indexed by n - j, n - 2j - 1 and n - 2j, each >= 1, so each sum
    over n is a product of geometric series; the n = 0 boundary is a
    first index (T4 starts at n = 1) or a term of its own (T8's Y).
    """
    zero = t - t

    def term(pieces, *factors) -> RationalTerm:
        """Pieces (weight, lead, binomial exponents...) over 1 - v^e for each e of `factors`."""
        return RationalTerm(
            from_pieces(variables, [(w, lead, binomials) for w, lead, *binomials in pieces]),
            tuple(from_pieces(variables, [(1, zero, [e])]) for e in factors),
        )

    return [
        # x^n (1 - y^(n+1))
        ("T1", [term([(1, zero)], t + x, x, y), term([(-1, y)], t + x + y, x, y)]),
        # (x^n - X)(y^(n+1) - Y^(n+1))
        ("T2", [
            term([(1, y)], t + x + y, x, y),
            term([(-1, X + y)], t + y, x, y),
            term([(-1, Y)], t + x + Y, x, y),
            term([(1, X + Y)], t + Y, x, y),
        ]),
        # (x^2 - X^2)(y^n - Y^n)
        ("T3", [term([(1, 2 * x), (-1, 2 * X)], t + y, x, y), term([(-1, 2 * x), (1, 2 * X)], t + Y, x, y)]),
        # x (y^n - Y^(n+1)) from n = 1
        ("T4", [term([(1, t + x + y)], t + y, y), term([(-1, t + x + 2 * Y)], t + Y, y)]),
        # (1 - X^2) X^(n-j) (y^j - Y^j), 0 < j < n
        ("T5", [
            term([(1, 2 * t + X + y, 2 * X)], t + X, t + y, x, y),
            term([(-1, 2 * t + X + Y, 2 * X)], t + X, t + Y, x, y),
        ]),
        # (1 + x) x^m Y^(2j+1)
        ("T6", [term([(1, 2 * t + x + Y), (1, 2 * t + 2 * x + Y)], t + x, 2 * t + 2 * Y, y)]),
        # (1 + x) x^m (Y^(2j) - Y^(n+1))
        ("T7", [
            term([(1, 3 * t + x + 2 * Y), (1, 3 * t + 2 * x + 2 * Y)], t + x, 2 * t + 2 * Y, y),
            term([(-1, 3 * t + x + 4 * Y), (-1, 3 * t + 2 * x + 4 * Y)], t + x + Y, 2 * t + 2 * Y, y),
        ]),
        # y^n from n = 1, and Y at n = 0
        ("T8", [term([(1, t + y)], t + y, y), term([(1, Y)], y)]),
        # x Y^(n+1) at odd n
        ("T9", [term([(1, t + x + 2 * Y)], 2 * t + 2 * Y, y)]),
    ]


def kernel_slices_sides() -> list[tuple[list[RationalTerm], list[RationalTerm]]]:
    """[(the 18 terms of `_slices`, [f])] over (t, x, y, X, Y), with X = x^r and Y = y^R free.

    The pair is equal: f = sum over n of t^n (slice n's nine terms).
    Substituting X = x^r and Y = y^R is a ring homomorphism that sends no
    factor (1-tx, 1-txy, 1-ty, 1-txY, 1-tY, 1-tX, 1-t^2 Y^2, 1-x, 1-y) to
    0, and each is a unit of Q(x, y)[[t]], so the t^n coefficients agree:
    slice n of f is the sum of the nine terms of `eqtwo_symbolic` for
    every n, r and R.
    """
    variables, units = ("t", *SLICE_VARIABLES), _Form.units(5)
    return [([term for _, terms in _slices(variables, *units) for term in terms], [_kernel(variables, *units)])]


def kernel_symmetry_sides() -> list[tuple[list[RationalTerm], list[RationalTerm]]]:
    """[([f], [f with (x, X) and (y, Y) exchanged])] over (t, x, y, X, Y), with X and Y free.

    The pair is equal: f_(r,R)(t, x, y) = f_(R,r)(t, y, x).  Substituting
    X = x^r and Y = y^R is a ring homomorphism that sends none of the six
    factors to 0, so the equal sides stay equal at every r and R.
    """
    variables, (t, x, y, X, Y) = ("t", *SLICE_VARIABLES), _Form.units(5)
    return [([_kernel(variables, t, x, y, X, Y)], [_kernel(variables, t, y, x, Y, X)])]


# The all-parameter identities of this module, as (name, sides) rows; see `polyring.decide_identity`.
IDENTITIES = (("kernel-slices", kernel_slices_sides), ("kernel-symmetry", kernel_symmetry_sides))


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


def f_expand(params: LemmaParams, planes: Planes) -> list[int]:
    """The t-planes of f within the bounds: plane n holds t^n x^j y^k in cell (j, k).

    Each half expands its numerator monomials over 1 - x and 1 - y, the
    kernel's two factors without t, with `Planes.expand`.  Each factor
    1 - t^a x^b y^d with a > 0 is then the recurrence
    s[n] += x^b y^d s[n - a], one shift-add per plane in increasing n.
    """
    nt = params.bounds[0]
    term = kernel_term(params.r, params.R)
    monomials: tuple[dict[int, Monomials], ...] = ({}, {})
    for (n, a, b), c in term.numerator.terms.items():
        if n <= nt:
            monomials[c < 0].setdefault(n, []).append((abs(c), a, b))
    halves = [[planes.expand(half[n], 1) if n in half else 0 for n in range(nt + 1)] for half in monomials]
    for factor in term.denominator_factors:
        dn, dj, dk = next(filter(any, factor.terms))
        if dn:
            for half in halves:
                for n in range(dn, nt + 1):
                    half[n] += planes.shifted(half[n - dn], dj, dk)
    return [p - q for p, q in zip(*halves)]


def eqtwo_symbolic(
    n: int, r: int, R: int, box: tuple[int, int] | None = None
) -> list[tuple[str, Monomials, tuple[int, int]]]:
    """The nine t-slice addends: name, numerator monomials, (1-x)/(1-y) powers.

    The two finite sums are materialized for the concrete n, so each entry is
    a polynomial numerator over a denominator (1-x)^px (1-y)^py.  r and R
    are ints, or the X and Y forms of `SLICE_FORMS` (x and y are then read
    as their forms too), and each monomial is (coefficient, x exponent,
    y exponent).  With ints and a box (nx, ny), the T5, T6 and T7 sums skip
    every index whose monomials all lie outside it: a monomial x^a y^b
    reaches only cells j >= a, k >= b, so the slice is unchanged within
    the box, and it holds O(nx + ny) monomials whatever n is.

    The n = 0 slice is a boundary case: the generic formula overshoots the
    true slice by (1+x)(1-y^R)/(1-y), so T4 is dropped and T8 starts at y^R
    instead of y^0 there; with that adjustment the terms sum to the slice for
    every n, each term still expanding with no negative coefficient at n = 0
    (T3's four monomials cancel there).
    """
    if n < 0:
        raise ValueError(f"slice index must be nonnegative, got {n}")
    x, y = SLICE_FORMS[:2] if isinstance(r, _Form) else (1, 1)
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


def _scan_slices(params: LemmaParams, planes: Planes, tri: list[int]):
    """The negativity-window report, plus the first slice whose term sum
    differs from the matching plane of `tri` (None when all match).

    The report checks, for every slice n within bounds: (a) the slice sum
    without T2 is nonnegative; (b) every negative per-term cell lies in
    the window, T2's own negative cells.  T2's four monomials over
    (1-x)(1-y) are -(x^r+...+x^(n-1)) (y^(n+1)+...+y^((n+1)R-1)), so the
    window is r <= j < n < k < (n+1)R, empty unless r < n.  Each slice's
    nine term grids are built once, and both checks and the slice
    comparison read them.  Where every slice matches, the slice totals
    are f's planes, so their signs are `certify_lemma`'s
    expansion_nonnegative and are not checked again here.
    """
    checks = dict.fromkeys(("sum_without_t2_nonnegative", "window_contained"), True)
    negative_cells = 0
    mismatch = None
    for n in range(params.bounds[0] + 1):
        grids = dict(eqtwo_term_grids(n, params, planes))
        t2 = grids.pop("T2")
        window = planes.negatives(t2)
        negative_cells += window.bit_count()
        without_t2 = 0
        for grid in grids.values():
            negatives = planes.negatives(grid)
            if negatives:
                negative_cells += negatives.bit_count()
                if negatives & ~window:
                    checks["window_contained"] = False
            without_t2 += grid
        if planes.negatives(without_t2):
            checks["sum_without_t2_nonnegative"] = False
        if mismatch is None and without_t2 + t2 != tri[n]:
            mismatch = n
    return {"checks": checks, "negative_term_cells": negative_cells}, mismatch


def certify_lemma(r: int, R: int, bounds: tuple[int, int, int]) -> dict[str, Any]:
    """Composite kernel-expansion check: signs, slices, window, symmetry.

    f is expanded once.  The symmetry is the verdict of the `kernel-symmetry`
    row of `IDENTITIES`, which holds for every r, R and box.  The first failed check, in that order,
    is the witness.
    """
    params = LemmaParams(r, R, bounds)
    planes = Planes(params)
    tri = f_expand(params, planes)
    minimum = planes.minimum(tri)
    window, slice_mismatch = _scan_slices(params, planes, tri)
    verdict = decide_identity(dict(IDENTITIES)["kernel-symmetry"])
    checks = {
        "expansion_nonnegative": minimum >= 0,
        "slices_match": slice_mismatch is None,
        "window": all(window["checks"].values()),
        "symmetry": verdict.equal,
    }
    witness = None
    if not checks["expansion_nonnegative"]:
        witness = {"check": "expansion_nonnegative", "min_coefficient": minimum}
    elif not checks["slices_match"]:
        witness = {"check": "slices_match", "n": slice_mismatch}
    elif not checks["window"]:
        witness = {"check": "window", "details": window["checks"]}
    elif not verdict.equal:
        witness = {"check": "symmetry", "details": verdict.witness}
    return {
        "r": r,
        "R": R,
        "bounds": list(bounds),
        "checks": checks,
        "min_coefficient": minimum,
        "window": window,
        "symmetry": {"equal": verdict.equal, "first_mismatch": verdict.witness},
        "ok": witness is None,
        "witness": witness,
    }
