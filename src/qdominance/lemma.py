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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import add
from typing import Any

from .polyring import (
    IdentityVerdict,
    MultiPoly,
    RationalTerm,
    identity_check,
    mono,
    mp_add,
    mp_mul,
    mp_sub,
)
from .series import _INT_ONLY, Coefficient, ParameterError, ResourceError, positive_ints

XY = ("x", "y")
TXY = ("t", "x", "y")

#: Monomials of one closed-form addend: (coefficient, x exponent, y exponent).
Monomials = list[tuple[int, int, int]]

#: A truncated (t, x, y) series: cells[n][j][k] is the coefficient of t^n x^j y^k.
Lattice = list[list[list[int]]]

# Largest (t, x, y) lattice, in cells (nt+1)(nx+1)(ny+1).  A certificate holds
# at most two lattices plus one slice's nine term grids and their sums; at
# this bound that peaks near 100 MB, when one slice is the whole lattice.
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
        bounds = tuple(self.bounds)
        if not (
            len(bounds) == 3
            and _INT_ONLY.issuperset(map(type, bounds))
            and min(bounds) >= 0
        ):
            raise ParameterError(f"bounds must be three nonnegative integers: {self.bounds}")
        check_lattice(bounds)


def check_lattice(bounds: tuple[int, int, int]) -> None:
    """Refuse bounds whose lattice exceeds MAX_LATTICE_CELLS, before allocating."""
    nt, nx, ny = bounds
    cells = (nt + 1) * (nx + 1) * (ny + 1)
    if cells > MAX_LATTICE_CELLS:
        raise LatticeCapError(
            f"bounds {list(bounds)} make a lattice of {cells} cells, above the "
            f"lemma bound {MAX_LATTICE_CELLS}"
        )


def delta(n: int) -> int:
    """1 for odd n, 0 for even n."""
    return n % 2


def _xy_mono(coeff: int = 1, **exps: int) -> MultiPoly:
    return mono(XY, coeff, **exps)


def _txy_mono(coeff: int = 1, **exps: int) -> MultiPoly:
    return mono(TXY, coeff, **exps)


def _txy_binomial(**exps: int) -> MultiPoly:
    return mp_sub(_txy_mono(), _txy_mono(**exps))


def kernel_term(r: int, R: int) -> RationalTerm:
    """f as a single rational term over the (t, x, y) variables."""
    numerator = mp_add(
        mp_mul(_txy_binomial(x=1, y=1), _txy_binomial(t=1, x=r), _txy_binomial(t=1, y=R)),
        mp_mul(
            _txy_binomial(t=2),
            mp_sub(_txy_mono(x=1), _txy_mono(x=r)),
            mp_sub(_txy_mono(y=1), _txy_mono(y=R)),
        ),
    )
    factors = (
        _txy_binomial(t=1, x=r),
        _txy_binomial(t=1, y=R),
        _txy_binomial(x=1),
        _txy_binomial(y=1),
        _txy_binomial(t=1, x=1),
        _txy_binomial(t=1, y=1),
    )
    return RationalTerm(numerator, factors)


def f_expand(params: LemmaParams) -> Lattice:
    """Exact lattice expansion of f within the given bounds.

    Every factor of `kernel_term` is 1 - t^a x^b y^d, and dividing by it is
    the recurrence s[i] += s[i - delta], run one (t, x) row at a time: with a
    or b nonzero each row adds its source row, already divided, shifted by d;
    a factor in y alone is a running sum along the row in steps of d.  Zero
    source rows are skipped, so the factors in y alone go first and those
    with t next, which leave most rows zero; a factor in x alone fills every
    row of its plane, so it goes last.
    """
    nt, nx, ny = params.bounds
    term = kernel_term(params.r, params.R)
    cells = [[[0] * (ny + 1) for _ in range(nx + 1)] for _ in range(nt + 1)]
    for (n, j, k), c in term.numerator.terms.items():
        if n <= nt and j <= nx and k <= ny:
            cells[n][j][k] = c
    deltas = [next(filter(any, factor.terms)) for factor in term.denominator_factors]
    deltas.sort(key=lambda d: 1 if d[0] else 2 if d[1] else 0)
    for dn, dj, dk in deltas:
        if dn or dj:
            for n in range(dn, nt + 1):
                pn, qn = cells[n - dn], cells[n]
                for j in range(dj, nx + 1):
                    src = pn[j - dj]
                    if any(src):
                        row = qn[j]
                        row[dk:] = map(add, row[dk:], src)
        else:
            for plane in cells:
                for row in filter(any, plane):
                    for start in range(min(dk, ny + 1)):
                        row[start::dk] = accumulate(row[start::dk])
    return cells


def eqtwo_symbolic(
    n: int, r: int, R: int
) -> list[tuple[str, Monomials, tuple[int, int]]]:
    """The nine t-slice addends: name, numerator monomials, (1-x)/(1-y) powers.

    The two finite sums are materialized for the concrete n, so each entry is
    a polynomial numerator over a denominator (1-x)^px (1-y)^py.

    The n = 0 slice is a boundary case: the generic formula overshoots the
    true slice by (1+x)(1-y^R)/(1-y), so T4 is dropped and T8 starts at y^R
    instead of y^0 there; with that adjustment the terms sum to the slice for
    every n, each term still expanding with no negative coefficient at n = 0.
    """
    if n < 0:
        raise ValueError(f"slice index must be nonnegative, got {n}")
    if n == 0:
        return [
            ("T1", [(1, 0, 0), (-1, 0, 1)], (1, 1)),
            ("T2", [(1, 0, 1), (-1, r, 1), (-1, 0, R), (1, r, R)], (1, 1)),
            ("T3", [], (1, 1)),
            ("T4", [], (0, 1)),
            ("T5", [], (1, 1)),
            ("T6", [], (0, 1)),
            ("T7", [], (0, 1)),
            ("T8", [(1, 0, R)], (0, 1)),
            ("T9", [], (0, 1)),
        ]
    d = delta(n)
    terms: list[tuple[str, Monomials, tuple[int, int]]] = []
    terms.append(("T1", [(1, n, 0), (-1, n, n + 1)], (1, 1)))
    terms.append(
        (
            "T2",
            [
                (1, n, n + 1),
                (-1, r, n + 1),
                (-1, n, (n + 1) * R),
                (1, r, (n + 1) * R),
            ],
            (1, 1),
        )
    )
    terms.append(
        (
            "T3",
            [(1, 2, n), (-1, 2 * r, n), (-1, 2, n * R), (1, 2 * r, n * R)],
            (1, 1),
        )
    )
    terms.append(("T4", [(1, 1, n), (-1, 1, (n + 1) * R)], (0, 1)))
    t5: Monomials = []
    for j in range(1, n):
        a = (n - j) * r
        t5 += [(1, a, j), (-1, a, j * R), (-1, a + 2 * r, j), (1, a + 2 * r, j * R)]
    terms.append(("T5", t5, (1, 1)))
    t6: Monomials = []
    for j in range(0, (n - 2 - d) // 2 + 1):
        t6 += [(1, n - 2 * j - 1, R * (2 * j + 1)), (1, n - 2 * j, R * (2 * j + 1))]
    terms.append(("T6", t6, (0, 1)))
    t7: Monomials = []
    for j in range(1, (n - 2 + d) // 2 + 1):
        for dx in (0, 1):
            t7 += [(1, n - 2 * j + dx, 2 * j * R), (-1, n - 2 * j + dx, (n + 1) * R)]
    terms.append(("T7", t7, (0, 1)))
    terms.append(("T8", [(1, 0, n)], (0, 1)))
    terms.append(("T9", [(d, 1, (n + 1) * R)], (0, 1)))
    return terms


def _grid(nx: int, ny: int) -> list[list[int]]:
    return [[0] * (ny + 1) for _ in range(nx + 1)]


def _evaluate(monomials: Monomials, powers: tuple[int, int], nx: int, ny: int):
    """Expand a monomial list over (1-x)^px (1-y)^py as a dense grid.

    Only rows that hold a monomial take running sums along y; the first
    division by (1-x) then adds each such row into every row below it, and
    a row that holds no monomial repeats the row above it (px >= 1) or is
    zero (px = 0).
    """
    px, py = powers
    hits: dict[int, list[int]] = {}
    for c, a, b in monomials:
        if c and a <= nx and b <= ny:
            if a not in hits:
                hits[a] = [0] * (ny + 1)
            hits[a][b] += c
    zero = [0] * (ny + 1)
    grid: list[list[int]] = []
    above = zero
    for a in sorted(hits):
        row = hits[a]
        for _ in range(py):
            row = list(accumulate(row))
        grid.extend(map(list, repeat(above, a - len(grid))))
        grid.append(list(map(add, above, row)) if px else row)
        above = grid[-1] if px else zero
    grid.extend(map(list, repeat(above, nx + 1 - len(grid))))
    for _ in range(px - 1):
        for j in range(1, nx + 1):
            grid[j] = list(map(add, grid[j], grid[j - 1]))
    return grid


def _row_sums(grids) -> list[list[int]]:
    """Cellwise sum of equally shaped grids.

    All-zero rows are skipped, and where every grid repeats its row above,
    so does the sum.
    """
    out = []
    previous = None
    for rows in zip(*grids):
        if rows != previous:
            previous = rows
            total = list(map(sum, zip(*filter(any, rows)))) or [0] * len(rows[0])
        out.append(total[:])
    return out


def eqtwo_term_grids(n: int, params: LemmaParams):
    """Each closed-form addend of the n-th slice as a dense (j,k) grid."""
    _, nx, ny = params.bounds
    return [
        (name, _evaluate(monomials, powers, nx, ny))
        for name, monomials, powers in eqtwo_symbolic(n, params.r, params.R)
    ]


def eqone_terms(n: int, r: int, R: int) -> list[RationalTerm]:
    """The five-addend closed form of the n-th slice, as rational terms."""
    one = _xy_mono()

    def m(coeff=1, **exps):
        return _xy_mono(coeff, **exps)

    x_minus_y = mp_sub(m(x=1), m(y=1))
    xr_minus_yR = mp_sub(m(x=r), m(y=R))
    xr_minus_y = mp_sub(m(x=r), m(y=1))
    yR_minus_x = mp_sub(m(y=R), m(x=1))
    one_minus_x = mp_sub(one, m(x=1))
    one_minus_y = mp_sub(one, m(y=1))
    x_minus_xr = mp_sub(m(x=1), m(x=r))
    y_minus_yR = mp_sub(m(y=1), m(y=R))
    base = (one_minus_x, one_minus_y, x_minus_y)

    a1 = RationalTerm(
        mp_mul(mp_sub(one, m(x=1, y=1)), mp_sub(m(x=n + 1), m(y=n + 1))), base
    )
    a2 = RationalTerm(
        mp_mul(
            mp_add(
                mp_mul(m(-1, x=n + r), mp_sub(one, m(x=2))),
                mp_mul(m(x=n * r + 1), mp_sub(one, m(x=2 * r))),
            ),
            y_minus_yR,
        ),
        (*base, xr_minus_yR),
    )
    a3 = RationalTerm(
        mp_mul(
            mp_add(
                mp_mul(m(-1, y=n + R), mp_sub(one, m(y=2))),
                mp_mul(m(y=n * R + 1), mp_sub(one, m(y=2 * R))),
            ),
            x_minus_xr,
        ),
        (*base, xr_minus_yR),
    )
    # the leading monomials y x^r and x y^R are folded into the brackets so
    # every exponent stays nonnegative down to n = 0
    a4 = RationalTerm(
        mp_mul(
            mp_sub(
                mp_mul(m(y=1), mp_sub(m(x=n * r), m(x=(n + 2) * r))),
                mp_mul(m(x=r), mp_sub(m(y=n), m(y=n + 2))),
            ),
            x_minus_xr,
            y_minus_yR,
        ),
        (*base, xr_minus_yR, xr_minus_y),
    )
    a5 = RationalTerm(
        mp_mul(
            mp_sub(
                mp_mul(m(x=1), mp_sub(m(y=n * R), m(y=(n + 2) * R))),
                mp_mul(m(y=R), mp_sub(m(x=n), m(x=n + 2))),
            ),
            x_minus_xr,
            y_minus_yR,
        ),
        (*base, xr_minus_yR, yR_minus_x),
    )
    return [a1, a2, a3, a4, a5]


def eqthree_terms(n: int, r: int, R: int) -> list[RationalTerm]:
    """The sum-free nine-addend closed form, as rational terms."""
    one = _xy_mono()

    def m(coeff=1, **exps):
        return _xy_mono(coeff, **exps)

    one_minus_x = mp_sub(one, m(x=1))
    one_minus_y = mp_sub(one, m(y=1))
    one_plus_x = mp_add(one, m(x=1))
    xr_minus_y = mp_sub(m(x=r), m(y=1))
    xr_minus_yR = mp_sub(m(x=r), m(y=R))
    x_minus_yR = mp_sub(m(x=1), m(y=R))

    h1 = RationalTerm(
        mp_mul(m(x=n), mp_sub(one, m(y=n + 1))), (one_minus_y, one_minus_x)
    )
    h2 = RationalTerm(
        mp_mul(mp_sub(m(y=n + 1), m(y=(n + 1) * R)), mp_sub(m(x=n), m(x=r))),
        (one_minus_y, one_minus_x),
    )
    h3 = RationalTerm(
        mp_mul(mp_sub(m(y=n), m(y=n * R)), mp_sub(m(x=2), m(x=2 * r))),
        (one_minus_y, one_minus_x),
    )
    h4 = RationalTerm(
        mp_mul(m(x=1), mp_sub(m(y=n), m(y=(n + 1) * R))), (one_minus_y,)
    )
    h5 = RationalTerm(m(y=n), (one_minus_y,))
    h6 = RationalTerm(
        mp_mul(one_plus_x, mp_sub(m(x=n, y=R), m(x=1, y=n * R))),
        (one_minus_y, x_minus_yR),
    )
    h7 = RationalTerm(
        mp_mul(
            mp_sub(m(x=n * r, y=1), m(x=r, y=n)), mp_sub(one, m(x=2 * r))
        ),
        (one_minus_y, one_minus_x, xr_minus_y),
    )
    h8 = RationalTerm(
        mp_mul(m(-1, y=R * (n + 1)), one_plus_x, mp_sub(m(x=2), m(x=n))),
        (one_minus_y, mp_sub(one, m(x=2))),
    )
    h9 = RationalTerm(
        mp_mul(
            mp_sub(m(x=r, y=n * R), m(x=n * r, y=R)), mp_sub(one, m(x=2 * r))
        ),
        (one_minus_y, one_minus_x, xr_minus_yR),
    )
    return [h1, h2, h3, h4, h5, h6, h7, h8, h9]


def eqtwo_terms_rational(n: int, r: int, R: int) -> list[RationalTerm]:
    """The slice closed form with its finite sums materialized, term by term."""
    out = []
    for _, monomials, (px, py) in eqtwo_symbolic(n, r, R):
        accumulated: dict[tuple[int, int], int] = {}
        for c, a, b in monomials:
            accumulated[(a, b)] = accumulated.get((a, b), 0) + c
        numerator = MultiPoly(XY, accumulated)
        factors = (mp_sub(_xy_mono(), _xy_mono(x=1)),) * px
        factors += (mp_sub(_xy_mono(), _xy_mono(y=1)),) * py
        out.append(RationalTerm(numerator, factors))
    return out


@dataclass(frozen=True)
class LemmaVerdict:
    """Joint result of the two closed-form equivalences at one (n, r, R)."""

    one_vs_three: IdentityVerdict
    three_vs_two: IdentityVerdict

    @property
    def equal(self) -> bool:
        return self.one_vs_three.equal and self.three_vs_two.equal


def check_eqone_eqthree(n: int, r: int, R: int) -> LemmaVerdict:
    """Verify the three closed forms agree as rational functions."""
    if type(n) is not int or n < 0:
        raise ValueError(f"slice index must be a nonnegative integer, got {n!r}")
    positive_ints((r, R), "r and R", 2)
    one = eqone_terms(n, r, R)
    three = eqthree_terms(n, r, R)
    two = eqtwo_terms_rational(n, r, R)
    return LemmaVerdict(
        identity_check(one, three),
        identity_check(three, two),
    )


def t2_closed_form(n: int, r: int, R: int, nx: int, ny: int):
    """-(y^(n+1)+...+y^((n+1)R-1)) (x^r+...+x^(n-1)) as a grid; needs r < n."""
    if r >= n:
        raise ValueError(f"closed form applies only for r < n, got r={r}, n={n}")
    grid = _grid(nx, ny)
    for j in range(r, n):
        if j > nx:
            break
        for k in range(n + 1, (n + 1) * R):
            if k > ny:
                break
            grid[j][k] = -1
    return grid


def _scan_slices(params: LemmaParams, tri: Lattice):
    """The negativity-window report, plus the first slice whose term sum
    differs from the matching slice of `tri` (None when all match).

    The report checks, for every slice n within bounds: (a) the slice sum
    without T2 is nonnegative; (b) T2 matches its product closed form when
    r < n; (c) any negative per-term cell lies in the window
    r <= j < n < k < (n+1)R; (d) the total slice is nonnegative.  Each
    slice's nine term grids are built once, and every check reads them.
    """
    nt, nx, ny = params.bounds
    r, R = params.r, params.R
    sum_without_t2_ok = True
    t2_ok = True
    window_ok = True
    total_ok = True
    negative_cells = 0
    min_total: Coefficient = 0
    mismatch = None
    for n in range(nt + 1):
        grids = eqtwo_term_grids(n, params)
        for _, grid in grids:
            previous = None
            for j, row in enumerate(grid):
                # most rows repeat the row above; count a row's negatives once
                if row != previous:
                    previous = row
                    negatives = sum(c < 0 for c in row) if min(row) < 0 else 0
                if not negatives:
                    continue
                negative_cells += negatives
                # a negative cell outside the window r <= j < n < k < (n+1)R
                if not (
                    r <= j < n
                    and min(row[: n + 1], default=0) >= 0
                    and min(row[(n + 1) * R :], default=0) >= 0
                ):
                    window_ok = False
        t2 = dict(grids)["T2"]
        if r < n and t2 != t2_closed_form(n, r, R, nx, ny):
            t2_ok = False
        without_t2 = _row_sums(grid for name, grid in grids if name != "T2")
        if min(map(min, without_t2)) < 0:
            sum_without_t2_ok = False
        total = [list(map(add, a, b)) for a, b in zip(without_t2, t2)]
        slice_min = min(map(min, total))
        min_total = min(min_total, slice_min)
        if slice_min < 0:
            total_ok = False
        if mismatch is None and total != tri[n]:
            mismatch = n
    report = {
        "r": r,
        "R": R,
        "bounds": list(params.bounds),
        "checks": {
            "sum_without_t2_nonnegative": sum_without_t2_ok,
            "t2_matches_closed_form": t2_ok,
            "window_contained": window_ok,
            "total_nonnegative": total_ok,
        },
        "min_total_coefficient": min_total,
        "negative_term_cells": negative_cells,
        "ok": sum_without_t2_ok and t2_ok and window_ok and total_ok,
    }
    return report, mismatch


def _transpose_match(lhs: Lattice, rhs: Lattice) -> dict[str, Any]:
    """lhs(n, j, k) == rhs(n, k, j) everywhere, or the first (n, j, k) that differs."""
    for n, (plane, other) in enumerate(zip(lhs, rhs)):
        for j, (row, column) in enumerate(zip(plane, zip(*other))):
            if tuple(row) != column:
                k = next(k for k, (a, b) in enumerate(zip(row, column)) if a != b)
                return {
                    "equal": False,
                    "first_mismatch": {"n": n, "j": j, "k": k, "lhs": row[k], "rhs": column[k]},
                }
    return {"equal": True, "first_mismatch": None}


def _mirror(tri: Lattice, params: LemmaParams) -> Lattice:
    """The expansion of f with r and R swapped; f itself when r == R."""
    if params.r == params.R:
        return tri
    return f_expand(LemmaParams(params.R, params.r, params.bounds))


def certify_lemma(r: int, R: int, bounds: tuple[int, int, int]) -> dict[str, Any]:
    """Composite kernel-expansion check: signs, slices, window, symmetry.

    f is expanded once; the swapped kernel only when r != R and the x/y
    bounds are square (otherwise symmetry is a transpose of f itself, or not
    checked).  The first failed check, in that order, is the witness.
    """
    params = LemmaParams(r, R, bounds)
    tri = f_expand(params)
    minimum = min(min(map(min, plane)) for plane in tri)
    window, slice_mismatch = _scan_slices(params, tri)
    symmetry = None
    if bounds[1] == bounds[2]:
        symmetry = _transpose_match(tri, _mirror(tri, params))
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
