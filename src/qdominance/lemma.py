"""Nonnegativity of the two-variable kernel behind the four-base split.

The kernel is

    f(x, y, t) = ((1-xy)(1-t x^r)(1-t y^R) + (1-t^2)(x-x^r)(y-y^R))
                 / ((1-t x^r)(1-t y^R)(1-x)(1-y)(1-tx)(1-ty)).

This module expands the nine terms of f's t-slices exactly on a bounded
(t, x, y) lattice, reads f's coefficients off their sums, and checks the
argument that confines any negative per-term coefficient to a window,
the negative cells of the slice's term T2, that the x/y swap symmetry
then rules out.  `certify_lemma` runs all of it in one pass: one
expansion of each slice term, and the slices and the symmetry as exact
identities.

f and the slice terms are stated as weighted binomial pieces,
weight * t^n x^a y^b * prod (1 - t^c x^d y^e), which
`polyring.from_pieces` expands; f's numerator is the bracket of the split
group G4 (`antitelescope._thm2_numerators`), with T = q^t, q^x and q^y
read as t, x and y.  f is written once over the forms of t, x, y,
X = x^r and Y = y^R (`_kernel`), and so are the slices' nine terms, each
summed over n with weight t^n, as 18 rational terms (`_slices`).  The
lattice reads both with X and Y the powers (`kernel_term`,
`slice_terms`), and the identities with X and Y free.  So the two rows
of `IDENTITIES` hold for every r, R >= 1: `kernel-slices` says that
slice n of f is the nine terms for every n, and `kernel-symmetry` that
f_(r,R)(t, x, y) = f_(R,r)(t, y, x).  By the first, the slice totals
are f's planes, so f itself is never expanded: its minimum is read off
the totals.

Every (x, y) grid is one int, a plane (`Planes`): the coefficient of
x^j y^k sits in the B-bit slot j(ny+1) + k.  B is proven before anything
is packed.  Each slice term is a numerator over 1 - y, perhaps 1 - x,
and k <= 2 factors 1 - t^a x^b y^d with a > 0.  A cell of
1/prod(factors) counts the multiplicities of the factors' monomials that
reach t^n x^j y^k: those of k - 1 factors with t, summing to at most n,
fix all the others, so it is at most C(nt + k - 1, k - 1), or 1 when
k = 0.  A term is carried as two halves P - N, the numerator's positive
and negative monomials each over the factors, since a y shift must drop
what spills into the next row and a mask would cut a signed plane's
borrows.  A cell of a half is at most that count times the half's L1
norm, and dividing by only some of the factors gives less, each
1/(1 - m) = 1 + m + ... being at least 1; a cell of a sum of halves is
at most the sum of their bounds.  B covers the slice terms' halves of
each sign all summed (`_cell_bound`, `packings`), so it covers every
plane the scan reads: a slice term, or a sum of them, f's slice totals
included.  The norms are summed once per (r, R), by k
(`_slice_norms`), so a request's bound is a few binomials.  B is the
bit length of the bound plus one, so every cell read is below 2^(B-1) in
absolute value.  A signed plane, the exact sum of c_jk 2^(B(j(ny+1)+k)),
is then a series of `series._Signed` over the box's cells, row by row,
which rounds B up to whole bytes and whose readers find the negative
cells and decode the plane (`Planes.negatives`, `Planes.decode`).  A
half is written in the same series (`Planes.expand`): each nonnegative
numerator monomial over 1 - y fills its row from its y power on, and
1/(1 - x), a shift by one row, is `_Signed.divide`.  Every value on the
way lies between 0 and the half, which B covers, so no slot wraps and
the half is exact.  A factor 1 - t^a x^b y^d with b > nx or d > ny is 1
in the box and is skipped, so a multiplier past the box costs nothing.

Every numerator monomial and every factor with t of each slice term has
an x + y degree at least its t degree, so plane n is 0 in the box for
n > nx + ny, and so is f's.  Only the planes through min(nt, nx + ny)
are expanded (`Planes.depth`); where planes are skipped, f's minimum
takes 0 in.  The slot widths are still proven from nt.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cache, lru_cache
from math import comb
from typing import Any

from .polyring import MultiPoly, RationalTerm, _Form, decide_identity, from_pieces
from .series import _INT_ONLY, ParameterError, ResourceError, _Signed, positive_ints

TXY = ("t", "x", "y")
# the variables besides t when X = x^r and Y = y^R are read free
SLICE_VARIABLES = ("x", "y", "X", "Y")

#: Monomials of one plane: (coefficient, x exponent, y exponent).
Monomials = list[tuple[int, int, int]]

# Largest (t, x, y) lattice, in cells (nt+1)(nx+1)(ny+1).  A certificate holds
# the slice sums (without T2, then with it), T2's planes, every other term's
# negative cells, and one slice term's planes with its two halves while
# expanding, all through plane min(nt, nx + ny).  At this bound `lemma --r 2
# --R 3`, run in process after the CLI import (16 MB; 13 MB for the bare
# interpreter), deciding the two identities it reads in that run, peaks at
# 27 MB RSS at (99, 99, 99) (0.09 s), 23 MB at (9, 315, 315) (0.04 s) and
# 17 MB at (249999, 1, 1) in 24-bit slots (0.02 s) (best of 3, 2-vCPU
# shared VM, Python 3.11.7).
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
    """The nine terms of slice n of f, each summed over n with weight t^n, over `variables`.

    Each sum is one or more rational terms over its slice denominator,
    (1-x)(1-y), or 1-y for T4 and T6 to T9, with t, x, y, X = x^r and
    Y = y^R read as exponent forms.  The finite sums of T5, T6 and T7 are
    re-indexed by n - j, n - 2j - 1 and n - 2j, each >= 1, so each sum
    over n is a product of geometric series; the n = 0 boundary is a
    first index (T4 starts at n = 1) or a term of its own (T8's Y).
    Each factor 1 - v^e is built once and shared by the terms that divide
    by it.
    """
    zero = t - t
    factor = cache(lambda e: from_pieces(variables, [(1, zero, [e])]))

    def term(pieces, *factors) -> RationalTerm:
        """Pieces (weight, lead, binomial exponents...) over 1 - v^e for each e of `factors`."""
        return RationalTerm(
            from_pieces(variables, [(w, lead, binomials) for w, lead, *binomials in pieces]),
            tuple(map(factor, factors)),
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


@lru_cache(maxsize=64)
def slice_terms(r: int, R: int) -> tuple[tuple[str, tuple[RationalTerm, ...]], ...]:
    """The nine slice terms of `_slices` over the (t, x, y) variables; shared, not to be mutated."""
    t, x, y = _Form.units(3)
    return tuple((name, tuple(terms)) for name, terms in _slices(TXY, t, x, y, r * x, R * y))


def kernel_slices_sides() -> list[tuple[list[RationalTerm], list[RationalTerm]]]:
    """[(the 18 terms of `_slices`, [f])] over (t, x, y, X, Y), with X = x^r and Y = y^R free.

    The pair is equal: f = sum over n of t^n (slice n's nine terms).
    Substituting X = x^r and Y = y^R is a ring homomorphism that sends no
    factor (1-tx, 1-txy, 1-ty, 1-txY, 1-tY, 1-tX, 1-t^2 Y^2, 1-x, 1-y) to
    0, and each is a unit of Q(x, y)[[t]], so the t^n coefficients agree:
    slice n of f is the sum of the nine terms for every n, r and R.
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
    """The packing of one (x, y) box in slots proven to hold every cell below
    `bound` in absolute value; see the module docstring."""

    def __init__(self, bounds: tuple[int, int, int], bound: int) -> None:
        nt, self.nx, self.ny = bounds
        self.depth = min(nt, self.nx + self.ny) + 1  # the t-planes that can hold a nonzero cell
        self.width = self.ny + 1
        self.cells = (self.nx + 1) * self.width
        self.packing = packing = _Signed(self.cells - 1, bound.bit_length() + 1)
        self.bits = bits = packing.bits
        self.bias, self.negatives = packing.bias, packing.negatives
        self.ones = self.bias >> bits - 1
        self.row_ones = self.ones >> self.nx * self.width * bits
        self._masks: dict[int, int] = {}

    def expand(self, monomials: Monomials, px: int) -> int:
        """Nonnegative monomials over (1-x)^px (1-y), as a plane.

        A monomial c x^a y^b adds c to the cells k >= b of row a.  With
        px = 1 the plane is then divided by 1 - x, a shift by one row, with
        `_Signed.divide`, the box's last cell being its order.  Every value
        on the way lies between 0 and the result, which the slots hold, so
        no slot wraps and the plane is exact.
        """
        nx, ny, bits = self.nx, self.ny, self.bits
        plane = 0
        for c, a, b in monomials:
            if a <= nx and b <= ny:
                plane += c * (self.row_ones >> b * bits << b * bits) << a * self.width * bits
        if px:
            plane = self.packing.divide(plane, [self.width]) & self.packing.mask
        return plane

    def shift(self, dj: int, dk: int) -> tuple[int, int]:
        """The bit shift and the mask that take a plane of nonnegative cells
        to x^dj y^dk times it, cut to the box: (plane << shift) & mask."""
        mask = self._masks.get(dk)
        if mask is None:
            mask = self._masks[dk] = self.expand([(1, 0, dk)], 1) * ((1 << self.bits) - 1)
        return (dj * self.width + dk) * self.bits, mask

    def decode(self, plane: int) -> list[int]:
        """The cells of a signed plane, row by row."""
        return list(self.packing.decode(plane).coeffs)

    def minimum(self, planes: list[int]) -> int:
        """The least cell of the planes; only a plane that may hold a lower one is decoded.

        Where no cell is negative, the least is 0 iff a cell of some plane
        minus 1 in every cell is negative, and nothing is decoded.
        """
        if not any(map(self.negatives, planes)) and any(self.negatives(plane - self.ones) for plane in planes):
            return 0
        lowest = min(self.decode(planes[0]))
        for plane in planes[1:]:
            if self.negatives(plane) or lowest > 0 and self.negatives(plane - lowest * self.ones):
                lowest = min(lowest, *self.decode(plane))
        return lowest


def packings(params: LemmaParams) -> Planes:
    """The slice scan's packing, which holds f's slice totals too; see the module docstring."""
    return Planes(params.bounds, _cell_bound(params))


def _exponents(factor: MultiPoly) -> tuple[int, int, int]:
    """The (t, x, y) exponents of m in a factor 1 - m."""
    return next(filter(any, factor.terms))


@lru_cache(maxsize=64)
def _slice_norms(r: int, R: int) -> tuple[tuple[int, int, int], ...]:
    """(k, positive L1 norm, negative L1 norm) for each count k of factors
    with t, the norms summed over the slice terms' numerators with k such
    factors; beside `slice_terms(r, R)`."""
    norms: dict[int, list[int]] = {}
    for _, group in slice_terms(r, R):
        for term in group:
            k = sum(1 for factor in term.denominator_factors if _exponents(factor)[0])
            pair = norms.setdefault(k, [0, 0])
            for c in term.numerator.terms.values():
                pair[c < 0] += abs(c)
    return tuple((k, *pair) for k, pair in sorted(norms.items()))


def _cell_bound(params: LemmaParams) -> int:
    """The larger of the slice terms' positive and negative halves' cell
    bounds, each summed over the terms; see the module docstring."""
    nt, sums = params.bounds[0], [0, 0]
    for k, positive, negative in _slice_norms(params.r, params.R):
        paths = comb(nt + k - 1, k - 1) if k else 1
        sums[0] += paths * positive
        sums[1] += paths * negative
    return max(sums)


def _expand_term(term: RationalTerm, planes: Planes) -> list[int]:
    """The t-planes of a term over (t, x, y) within the box, through plane
    `planes.depth` - 1: plane n holds t^n x^j y^k in cell (j, k).

    The term divides by 1 - y, perhaps by 1 - x, and by factors
    1 - t^a x^b y^d with a > 0.  Each half expands its numerator monomials
    over the first two with `Planes.expand`.  Each other factor is then
    the recurrence s[n] += x^b y^d s[n - a], one shift-add per plane in
    increasing n, unless b > nx or d > ny: it is then 1 in the box.
    """
    depth = planes.depth
    monomials: tuple[dict[int, Monomials], ...] = ({}, {})
    for (n, a, b), c in term.numerator.terms.items():
        if n < depth:
            monomials[c < 0].setdefault(n, []).append((abs(c), a, b))
    steps = list(map(_exponents, term.denominator_factors))
    px = int((0, 1, 0) in steps)
    halves = [[planes.expand(half[n], px) if n in half else 0 for n in range(depth)] for half in monomials]
    for dn, dj, dk in steps:
        if dn and dj <= planes.nx and dk <= planes.ny:
            shift, mask = planes.shift(dj, dk)
            for half in halves:
                for n in range(dn, depth):
                    if half[n - dn]:
                        half[n] += half[n - dn] << shift & mask
    positive, negative = halves
    for n, plane in enumerate(negative):
        positive[n] -= plane
    return positive


def slice_planes(params: LemmaParams, planes: Planes) -> Iterator[tuple[str, list[int]]]:
    """Each of the nine slice terms, by name, as its t-planes within the box,
    through plane `planes.depth` - 1: plane n is the term's part of slice n of f."""
    for name, (first, *others) in slice_terms(params.r, params.R):
        grids = _expand_term(first, planes)
        for term in others:
            for n, plane in enumerate(_expand_term(term, planes)):
                grids[n] += plane
        yield name, grids


def _scan_slices(params: LemmaParams, planes: Planes) -> tuple[dict[str, Any], list[int]]:
    """The negativity-window report, and the slice totals: f's planes, by
    the `kernel-slices` row.

    The report checks, for every slice n within bounds: (a) the slice sum
    without T2 is nonnegative; (b) every negative per-term cell lies in
    the window, T2's own negative cells.  T2's four monomials over
    (1-x)(1-y) are -(x^r+...+x^(n-1)) (y^(n+1)+...+y^((n+1)R-1)), so the
    window is r <= j < n < k < (n+1)R, empty unless r < n.  The slice
    terms are expanded one at a time, and both checks read their planes;
    T2 then goes into the sums without it, which makes them the totals.
    """
    totals = [0] * planes.depth  # the slice sums without T2, until T2 is added
    outside = [0] * planes.depth  # the negative cells of every term but T2
    negative_cells = 0
    for name, grids in slice_planes(params, planes):
        if name == "T2":
            t2 = grids
            continue
        for n, grid in enumerate(grids):
            negatives = planes.negatives(grid)
            if negatives:
                negative_cells += negatives.bit_count()
                outside[n] |= negatives
            totals[n] += grid
    checks = dict.fromkeys(("sum_without_t2_nonnegative", "window_contained"), True)
    for n, grid in enumerate(t2):
        window = planes.negatives(grid)
        negative_cells += window.bit_count()
        if outside[n] & ~window:
            checks["window_contained"] = False
        if planes.negatives(totals[n]):
            checks["sum_without_t2_nonnegative"] = False
        totals[n] += grid
    return {"checks": checks, "negative_term_cells": negative_cells}, totals


def certify_lemma(r: int, R: int, bounds: tuple[int, int, int]) -> dict[str, Any]:
    """Composite kernel-expansion check: signs, slices, window, symmetry.

    Only the 18 slice terms are expanded, once each, in one packing.  The
    slices are the verdict of the `kernel-slices` row of `IDENTITIES`:
    the nine terms sum to f for every n, r and R, so the slice totals are
    f's planes, and f's minimum is read off them.  The symmetry is the
    verdict of the `kernel-symmetry` row.  Both rows hold for every r, R
    and box.  The first failed check, in that order, is the witness.
    """
    params = LemmaParams(r, R, bounds)
    planes = packings(params)
    window, totals = _scan_slices(params, planes)
    minimum = planes.minimum(totals)
    if planes.depth <= bounds[0]:
        minimum = min(minimum, 0)  # the planes past nx + ny, all 0 in the box
    rows = dict(IDENTITIES)
    slices, symmetry = decide_identity(rows["kernel-slices"]), decide_identity(rows["kernel-symmetry"])
    checks = {
        "expansion_nonnegative": minimum >= 0,
        "slices_match": slices.equal,
        "window": all(window["checks"].values()),
        "symmetry": symmetry.equal,
    }
    witness = None
    if not checks["expansion_nonnegative"]:
        witness = {"check": "expansion_nonnegative", "min_coefficient": minimum}
    elif not slices.equal:
        witness = {"check": "slices_match", "details": slices.witness}
    elif not checks["window"]:
        witness = {"check": "window", "details": window["checks"]}
    elif not symmetry.equal:
        witness = {"check": "symmetry", "details": symmetry.witness}
    return {
        "r": r,
        "R": R,
        "bounds": list(bounds),
        "checks": checks,
        "min_coefficient": minimum,
        "window": window,
        "symmetry": {"equal": symmetry.equal, "first_mismatch": symmetry.witness},
        "ok": witness is None,
        "witness": witness,
    }
