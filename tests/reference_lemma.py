"""Cell-by-cell reference for the kernel expansion and the lemma certificate.

These are the original, deliberately direct bodies: `expand_rational`
expands any numerator over unit binomials 1 - c*t^a x^b y^d in a subset of
(t, x, y) into a `TriSeries`, dividing by each binomial one lattice cell at
a time and normalizing every cell it touches; `_evaluate` takes its prefix
sums cell by cell, `negativity_window` rebuilds every slice's term grids,
`symmetry_check` expands f for both (r, R) and (R, r), and `lemma_report`
expands f a third time.  They share no state with `qdominance.lemma`'s
one-pass certifier beyond the kernel term, the symbolic slice terms and the
T2 closed form (the definitions being certified), so they pin the fast
paths from outside.  `TriSeries` and `expand_rational` also serve
`reference_series` and the polyring tests as a generic lattice tool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from qdominance.lemma import (
    LemmaParams,
    eqtwo_symbolic,
    kernel_term,
    t2_closed_form,
)
from qdominance.polyring import MultiPoly, RationalTerm, to_text
from qdominance.series import Coefficient, _norm

# axis order for TriSeries lattices
TRI_VARIABLES = ("t", "x", "y")


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
                        qj[k] = _norm(qj[k] + c * prev)
    return out


def f_expand(params: LemmaParams) -> list:
    """The kernel's lattice as nested lists, cells[n][j][k]."""
    return expand_rational(kernel_term(params.r, params.R), params.bounds).coeffs


def _grid(nx: int, ny: int) -> list[list[int]]:
    return [[0] * (ny + 1) for _ in range(nx + 1)]


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
