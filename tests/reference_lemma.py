"""Cell-by-cell and row-wise references for the kernel expansion and the lemma certificate.

These are the original, deliberately direct bodies: `expand_rational`
expands any numerator over unit binomials 1 - c*t^a x^b y^d in a subset of
(t, x, y) into a `TriSeries`, dividing by each binomial one lattice cell at
a time and normalizing every cell it touches; `_evaluate` takes its prefix
sums cell by cell, `negativity_window` rebuilds every slice's term grids,
`symmetry_check` expands f for both (r, R) and (R, r), and `lemma_report`
expands f a third time.  They read slice n's nine terms from
`eqtwo_symbolic`, the per-n closed form that the package states only as
generating functions (`lemma._slices`), so they share no state with
`qdominance.lemma`'s packed certifier and pin its fast paths from outside.

`kernel_term`, `mp_eqone_terms`, `mp_eqthree_terms` and
`mp_eqtwo_terms_rational` are the kernel and the slice closed forms
transcribed with the dict polynomial arithmetic of `reference_polyring`,
the oracle of the weighted binomial pieces; the expansions here read the
transcribed kernel.  `eqone_terms`, `eqthree_terms` and
`eqtwo_terms_rational` are the paper's three presentations of slice n as
weighted binomial pieces, read with ints or with the forms of free
X = x^r and Y = y^R, and `slice_identity(n)` chains them for every r and
R.  The package proves the slices once for every n instead (the
`kernel-slices` row of `lemma.IDENTITIES`), so this chain only pins the
transcriptions.
`TriSeries` and `expand_rational` also serve `reference_series` and the
polyring tests as a generic lattice tool.

The row-wise kernels below (`rowwise_f_expand`, `rowwise_evaluate`,
`row_sums`) are the nested-list certificate that the packed planes
replaced; `unpack` and `lattice` read packed planes back as nested lists
for comparing with them.  `byte_row_expand` is the byte-row plane writer
that `Planes.expand` replaced with `_Signed.divide`.

`expanded_f_certificate` is the packed certificate that expanded f on
its own (`packed_f_expand`), in slots of f's own proven width
(`two_packings`), and brought each of f's planes into the scan's slots
(`narrowed`) to compare it with the slice sums (`scan_against`).  The
package reads f off the slice sums instead, by the `kernel-slices` row,
so this is the oracle of that step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, repeat
from math import comb
from operator import add
from typing import Any

from qdominance import lemma
from qdominance.lemma import SLICE_VARIABLES, TXY, LemmaParams, Monomials, Planes
from qdominance.polyring import (
    IdentityVerdict,
    MultiPoly,
    RationalTerm,
    _Form,
    decide_identity,
    from_pieces,
    identity_check,
    to_text,
)
from qdominance.series import Coefficient, _Signed
from reference_polyring import mono, mp_add, mp_mul, mp_sub

# axis order for TriSeries lattices
TRI_VARIABLES = ("t", "x", "y")
XY = ("x", "y")
# the unit forms of x, y, X and Y over SLICE_VARIABLES
SLICE_FORMS = _Form.units(4)
_ZERO = _Form((0,) * 4)


class SingularDenominatorError(ValueError):
    """Raised when a series expansion needs a non-unit denominator factor."""


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


@dataclass(frozen=True)
class SliceSeries:
    """One t-slice: coeffs[j][k] is the coefficient of x^j y^k."""

    n: int
    coeffs: tuple[tuple[Coefficient, ...], ...]

    def cell(self, j: int, k: int) -> Coefficient:
        return self.coeffs[j][k]

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.coeffs) - 1, len(self.coeffs[0]) - 1)

    def min_coefficient(self) -> Coefficient:
        return min(min(row) for row in self.coeffs)


# --- the MultiPoly transcriptions the weighted binomial pieces replaced -----


def _xy_mono(coeff: int = 1, **exps: int) -> MultiPoly:
    return mono(XY, coeff, **exps)


def _txy_mono(coeff: int = 1, **exps: int) -> MultiPoly:
    return mono(TXY, coeff, **exps)


def _txy_binomial(**exps: int) -> MultiPoly:
    return mp_sub(_txy_mono(), _txy_mono(**exps))


@lru_cache(maxsize=64)
def kernel_term(r: int, R: int) -> RationalTerm:
    """f as a single rational term over the (t, x, y) variables; shared, not to be mutated."""
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


def mp_eqone_terms(n: int, r: int, R: int) -> list[RationalTerm]:
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


def mp_eqthree_terms(n: int, r: int, R: int) -> list[RationalTerm]:
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


def eqtwo_symbolic(n: int, r, R) -> list[tuple[str, Monomials, tuple[int, int]]]:
    """The nine t-slice addends: name, numerator monomials, (1-x)/(1-y) powers.

    The two finite sums are materialized for the concrete n, so each entry is
    a polynomial numerator over a denominator (1-x)^px (1-y)^py.  r and R
    are ints, or the X and Y forms of `SLICE_FORMS` (x and y are then read
    as their forms too), and each monomial is (coefficient, x exponent,
    y exponent).

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
    xn, yn, yn1, top = n * x, n * y, (n + 1) * y, (n + 1) * R
    terms: list[tuple[str, Monomials, tuple[int, int]]] = [
        ("T1", [(1, xn, 0), (-1, xn, yn1)], (1, 1)),
        ("T2", [(1, xn, yn1), (-1, r, yn1), (-1, xn, top), (1, r, top)], (1, 1)),
        ("T3", [(1, 2 * x, yn), (-1, 2 * r, yn), (-1, 2 * x, n * R), (1, 2 * r, n * R)], (1, 1)),
        ("T4", [(1, x, yn), (-1, x, top)] if n else [], (0, 1)),
    ]
    t5: Monomials = []
    for j in range(1, n):
        a = (n - j) * r
        t5 += [(1, a, j * y), (-1, a, j * R), (-1, a + 2 * r, j * y), (1, a + 2 * r, j * R)]
    terms.append(("T5", t5, (1, 1)))
    t6: Monomials = []
    for j in range(0, (n - 2 - d) // 2 + 1):
        t6 += [(1, (n - 2 * j - 1) * x, R * (2 * j + 1)), (1, (n - 2 * j) * x, R * (2 * j + 1))]
    terms.append(("T6", t6, (0, 1)))
    t7: Monomials = []
    for j in range(1, (n - 2 + d) // 2 + 1):
        for dx in (0, 1):
            t7 += [(1, (n - 2 * j + dx) * x, 2 * j * R), (-1, (n - 2 * j + dx) * x, top)]
    terms.append(("T7", t7, (0, 1)))
    terms.append(("T8", [(1, 0, yn or R)], (0, 1)))
    terms.append(("T9", [(d, x, top)], (0, 1)))
    return terms


def mp_eqtwo_terms_rational(n: int, r: int, R: int) -> list[RationalTerm]:
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


def expand_rational(term: RationalTerm, bounds) -> TriSeries:
    """Truncated expansion of the term over the (t, x, y) lattice."""
    nt, nx, ny = bounds
    out = TriSeries.zero((nt, nx, ny))
    cs = out.coeffs
    for (n, j, k), c in _tri_exponents(term.numerator).items():
        if n <= nt and j <= nx and k <= ny:
            cs[n][j][k] += c
    deltas = []
    for factor in term.denominator_factors:
        hit = _unit_binomial_delta(factor)
        if hit is None:
            raise SingularDenominatorError(
                f"denominator factor is not 1 - c*monomial: {to_text(factor)}"
            )
        deltas.append(hit)
    # dividing by (1 - c*q^delta) is the recurrence s[i] += c * s[i - delta],
    # valid in any order that visits smaller lattice points first
    for (dn, dj, dk), c in deltas:
        for n in range(dn, nt + 1) if dn else range(nt + 1):
            pn = cs[n - dn]
            qn = cs[n]
            for j in range(dj, nx + 1) if dj else range(nx + 1):
                pj = pn[j - dj]
                qj = qn[j]
                for k in range(dk, ny + 1) if dk else range(ny + 1):
                    prev = pj[k - dk]
                    if prev:
                        qj[k] += c * prev
    return out


def f_expand(params: LemmaParams) -> list:
    """The kernel's lattice as nested lists, cells[n][j][k]."""
    return expand_rational(kernel_term(params.r, params.R), params.bounds).coeffs


def _grid(nx: int, ny: int) -> list[list[int]]:
    return [[0] * (ny + 1) for _ in range(nx + 1)]


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


def _evaluate(monomials, powers: tuple[int, int], nx: int, ny: int):
    """Expand a monomial list over (1-x)^px (1-y)^py as a dense grid."""
    grid = _grid(nx, ny)
    for c, a, b in monomials:
        if c and a <= nx and b <= ny:
            grid[a][b] += c
    px, py = powers
    for _ in range(px):
        for j in range(1, nx + 1):
            row, prev = grid[j], grid[j - 1]
            for k in range(ny + 1):
                row[k] += prev[k]
    for _ in range(py):
        for row in grid:
            for k in range(1, ny + 1):
                row[k] += row[k - 1]
    return grid


def eqtwo_term_grids(n: int, params: LemmaParams):
    _, nx, ny = params.bounds
    return [
        (name, _evaluate(monomials, powers, nx, ny))
        for name, monomials, powers in eqtwo_symbolic(n, params.r, params.R)
    ]


def slice_eqtwo(n: int, params: LemmaParams) -> SliceSeries:
    _, nx, ny = params.bounds
    total = _grid(nx, ny)
    for _, grid in eqtwo_term_grids(n, params):
        for j in range(nx + 1):
            row, add = total[j], grid[j]
            for k in range(ny + 1):
                row[k] += add[k]
    return SliceSeries(n, tuple(tuple(row) for row in total))


def _in_window(n: int, j: int, k: int, r: int, R: int) -> bool:
    return r <= j < n < k < (n + 1) * R


def negativity_window(params: LemmaParams) -> dict[str, Any]:
    nt, nx, ny = params.bounds
    r, R = params.r, params.R
    sum_without_t2_ok = True
    t2_ok = True
    window_ok = True
    total_ok = True
    negative_cells = 0
    min_total: Coefficient = 0
    for n in range(nt + 1):
        grids = dict(eqtwo_term_grids(n, params))
        total = _grid(nx, ny)
        without_t2 = _grid(nx, ny)
        for name, grid in grids.items():
            for j in range(nx + 1):
                for k in range(ny + 1):
                    c = grid[j][k]
                    if not c:
                        continue
                    total[j][k] += c
                    if name != "T2":
                        without_t2[j][k] += c
                    if c < 0 and not _in_window(n, j, k, r, R):
                        window_ok = False
                    if c < 0:
                        negative_cells += 1
        if r < n:
            if grids["T2"] != t2_closed_form(n, r, R, nx, ny):
                t2_ok = False
        if any(c < 0 for row in without_t2 for c in row):
            sum_without_t2_ok = False
        slice_min = min(min(row) for row in total)
        min_total = min(min_total, slice_min)
        if slice_min < 0:
            total_ok = False
    return {
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


def symmetry_check(r: int, R: int, bounds: tuple[int, int, int]) -> dict[str, Any]:
    nt, nx, ny = bounds
    if nx != ny:
        raise ValueError(f"symmetry needs square x/y bounds, got {bounds}")
    lhs = f_expand(LemmaParams(r, R, bounds))
    rhs = f_expand(LemmaParams(R, r, bounds))
    for n in range(nt + 1):
        for j in range(nx + 1):
            for k in range(ny + 1):
                a = lhs[n][j][k]
                b = rhs[n][k][j]
                if a != b:
                    return {
                        "equal": False,
                        "first_mismatch": {"n": n, "j": j, "k": k, "lhs": a, "rhs": b},
                    }
    return {"equal": True, "first_mismatch": None}


def lemma_report(r: int, R: int, bounds: tuple[int, int, int]) -> dict:
    """Composite kernel-expansion check: signs, slices, window, symmetry."""
    params = LemmaParams(r, R, bounds)
    tri = f_expand(params)
    minimum = min(c for plane in tri for row in plane for c in row)
    slice_mismatch = None
    for n in range(bounds[0] + 1):
        got = slice_eqtwo(n, params)
        if got.coeffs != tuple(tuple(row) for row in tri[n]):
            slice_mismatch = n
            break
    window = negativity_window(params)
    symmetry = symmetry_check(r, R, bounds) if bounds[1] == bounds[2] else None
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


# --- the row-wise certificate the packed planes replaced --------------------


def rowwise_f_expand(params: LemmaParams) -> list:
    """Exact lattice expansion of f within the given bounds, cells[n][j][k].

    Every factor of `kernel_term` is 1 - t^a x^b y^d, and dividing by it is
    the recurrence s[i] += s[i - delta], run one (t, x) row at a time: with a
    or b nonzero each row adds its source row, already divided, shifted by d;
    a factor in y alone is a running sum along the row in steps of d.
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


def rowwise_evaluate(monomials, powers: tuple[int, int], nx: int, ny: int):
    """Expand a monomial list over (1-x)^px (1-y)^py as a dense grid, a row at a time.

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


def row_sums(grids) -> list[list[int]]:
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


def byte_row_expand(planes: Planes, monomials: Monomials, px: int) -> int:
    """The monomials over (1-x)^px (1-y), as a signed plane, assembled row by row.

    A monomial x^a y^b adds its coefficient to the cells k >= b of row a
    (a small int of one row); with px = 1 row j is the sum of those rows
    a <= j.  Each row is written biased, as bytes, so the plane is one
    `int.from_bytes` minus H whatever the number of monomials.  This is
    the writer `Planes.expand` replaced; it takes signed coefficients too.
    """
    nx, ny, bits = planes.nx, planes.ny, planes.bits
    row_bytes = planes.width * bits // 8
    row_bias = _Signed(ny, bits).bias
    row_ones = row_bias >> bits - 1

    def biased(row: int) -> bytes:
        return (row + row_bias).to_bytes(row_bytes, "little")

    rows: dict[int, int] = {}
    for c, a, b in monomials:
        if c and a <= nx and b <= ny:
            rows[a] = rows.get(a, 0) + c * (row_ones >> b * bits << b * bits)
    parts, row, start = [], 0, 0
    for a in sorted(rows):
        parts.append(biased(row if px else 0) * (a - start))
        row = (row if px else 0) + rows[a]
        parts.append(biased(row))
        start = a + 1
    parts.append(biased(row if px else 0) * (nx + 1 - start))
    return int.from_bytes(b"".join(parts), "little") - planes.bias


def unpack(planes: Planes, plane: int) -> list[list[int]]:
    """A signed plane as its grid of rows."""
    cells = planes.decode(plane)
    return [cells[i : i + planes.width] for i in range(0, planes.cells, planes.width)]


def decoding_minimum(planes: Planes, tri: list[int]) -> int:
    """The least cell of the planes, read by decoding: plane 0 in full,
    then every plane that may hold a lower cell."""
    lowest = min(planes.decode(tri[0]))
    for plane in tri[1:]:
        if planes.negatives(plane) or lowest > 0 and planes.negatives(plane - lowest * planes.ones):
            lowest = min(lowest, *planes.decode(plane))
    return lowest


def lattice(params: LemmaParams) -> list:
    """The packed expansion of f as nested lists, cells[n][j][k]; the planes
    past nx + ny, which it does not expand, are 0 in the box."""
    planes, _ = two_packings(params)
    return padded(planes, params, packed_f_expand(params, planes))


def padded(planes: Planes, params: LemmaParams, tri: list[int]) -> list:
    """Planes through `planes.depth` - 1 as nested lists, with the planes
    past nx + ny, which are 0 in the box, added through nt."""
    grids = [unpack(planes, plane) for plane in tri]
    return grids + [_grid(planes.nx, planes.ny) for _ in range(params.bounds[0] + 1 - len(grids))]


# --- the packed certificate that expanded f on its own ----------------------


def _cell_bound(terms: list[RationalTerm], nt: int) -> int:
    """The larger of the terms' positive and negative halves' cell bounds,
    each summed over the terms; see the `lemma` module docstring."""
    sums = [0, 0]
    for term in terms:
        k = sum(1 for factor in term.denominator_factors if lemma._exponents(factor)[0])
        paths = comb(nt + k - 1, k - 1) if k else 1
        for c in term.numerator.terms.values():
            sums[c < 0] += paths * abs(c)
    return max(sums)


def two_packings(params: LemmaParams) -> tuple[Planes, Planes]:
    """f's packing, and the slice scan's in slots no wider."""
    nt = params.bounds[0]
    terms = [term for _, group in lemma.slice_terms(params.r, params.R) for term in group]
    scan = _cell_bound(terms, nt)
    kernel = max(scan, _cell_bound([lemma.kernel_term(params.r, params.R)], nt))
    return Planes(params.bounds, kernel), Planes(params.bounds, scan)


def packed_f_expand(params: LemmaParams, planes: Planes) -> list[int]:
    """The t-planes of f within the box, through plane `planes.depth` - 1:
    plane n holds t^n x^j y^k in cell (j, k)."""
    return lemma._expand_term(lemma.kernel_term(params.r, params.R), planes)


def narrowed(narrow: Planes, planes: list[int], wide: Planes) -> list[int | None]:
    """`wide`'s signed planes of this box, in `narrow`'s slots, no wider:
    each plane's cells, or None where one of them does not fit.

    Both biases go into every wide slot, 2^(W-1) + 2^(B-1) for W and B
    bits.  Where every cell c fits, no slot carries, and each holds
    2^(W-1) plus the narrow biased cell c + 2^(B-1) in its low B bits.
    Otherwise the lowest slot whose cell does not fit takes no carry
    from below, so its bits above the low B are not 2^(W-1), whether it
    carries or not.  The low B bits of every slot are read with a byte
    stride.
    """
    if wide.bits == narrow.bits:
        return planes
    step, size = wide.bits // 8, narrow.bits // 8
    biases = wide.bias + (wide.ones << narrow.bits - 1)
    high = wide.ones * ((1 << wide.bits) - (1 << narrow.bits))
    out, cells = [], bytearray(narrow.cells * size)
    for plane in planes:
        plane += biases
        if plane & high != wide.bias:
            out.append(None)
            continue
        data = plane.to_bytes(wide.cells * step, "little")
        for i in range(size):
            cells[i::size] = data[i::step]
        out.append(int.from_bytes(cells, "little") - narrow.bias)
    return out


def scan_against(params: LemmaParams, planes: Planes, tri: list[int | None]):
    """The negativity-window report, plus the first slice whose term sum
    differs from the matching plane of `tri` (None when all match).  A
    plane of `tri` is None where one of its cells does not fit these
    slots; the slice sums always fit, so that slice differs."""
    rest = [0] * len(tri)  # the slice sums without T2
    outside = [0] * len(tri)  # the negative cells of every term but T2
    negative_cells = 0
    for name, grids in lemma.slice_planes(params, planes):
        if name == "T2":
            t2 = grids
            continue
        for n, grid in enumerate(grids):
            negatives = planes.negatives(grid)
            if negatives:
                negative_cells += negatives.bit_count()
                outside[n] |= negatives
            rest[n] += grid
    checks = dict.fromkeys(("sum_without_t2_nonnegative", "window_contained"), True)
    mismatch = None
    for n, (without_t2, grid, f) in enumerate(zip(rest, t2, tri)):
        window = planes.negatives(grid)
        negative_cells += window.bit_count()
        if outside[n] & ~window:
            checks["window_contained"] = False
        if planes.negatives(without_t2):
            checks["sum_without_t2_nonnegative"] = False
        if mismatch is None and without_t2 + grid != f:
            mismatch = n
    return {"checks": checks, "negative_term_cells": negative_cells}, mismatch


def expanded_f_certificate(r: int, R: int, bounds: tuple[int, int, int]) -> dict[str, Any]:
    """`lemma.certify_lemma` as it was with f expanded once, in its own
    packing, and brought once into the scan's narrower one for the slice
    comparison; the symmetry is the `kernel-symmetry` row's verdict."""
    params = LemmaParams(r, R, bounds)
    planes, scan = two_packings(params)
    tri = packed_f_expand(params, planes)
    minimum = planes.minimum(tri)
    if planes.depth <= bounds[0]:
        minimum = min(minimum, 0)  # the planes past nx + ny, all 0 in the box
    window, slice_mismatch = scan_against(params, scan, narrowed(scan, tri, planes))
    verdict = decide_identity(dict(lemma.IDENTITIES)["kernel-symmetry"])
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


# --- the paper's slice closed forms, as weighted binomial pieces ------------


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
    """Joint result of the two closed-form equivalences of one slice, for every r and R."""

    one_vs_three: IdentityVerdict
    three_vs_two: IdentityVerdict

    @property
    def equal(self) -> bool:
        return self.one_vs_three.equal and self.three_vs_two.equal


def slice_identity(n: int) -> LemmaVerdict:
    """The three closed forms of slice n agree for every r, R >= 1.

    They are read over (x, y, X, Y) with X and Y free.  Substituting
    X = x^r and Y = y^R is a ring homomorphism that sends no denominator
    (X - Y, X - y, Y - x, 1 - x, 1 - x^2, 1 - y) to 0, so two equal sides
    stay equal at every r and R.
    """
    X, Y = SLICE_FORMS[2:]
    one, three = eqone_terms(n, X, Y), eqthree_terms(n, X, Y)
    return LemmaVerdict(identity_check(one, three), identity_check(three, eqtwo_terms_rational(n, X, Y)))
