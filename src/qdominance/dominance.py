"""Coefficientwise comparison of reciprocal products.

A product spec Pi1 dominates Pi2 up to order N when every coefficient of
1/Pi1 - 1/Pi2 is nonnegative through q^N.  This module decides that, reports
the first failure when there is one, and knows how to build the named
families of product pairs that the command line exposes.  The difference
is one packed residue (`series._Signed`), in slots proven to hold it; its
first negative coefficient is read off the packed value, and the residue
is decoded into a series only when a reader asks for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Mapping

from .series import (
    INF,
    Coefficient,
    ParameterError,
    ProductSpec,
    QSeries,
    _Signed,
    positive_ints,
    product_spec,
    require_series_work,
)

#: Parameter names each named inequality requires, in display order.
REQUIRED_PARAMETERS: dict[str, tuple[str, ...]] = {
    "RR": (),
    "BGa": ("m", "r", "L"),
    "finiteRR": ("L",),
    "littleGollnitz": ("L",),
    "BGr": ("y", "L"),
    "Thm1": ("L", "m", "x", "y", "r", "R"),
    "Thm2": ("L", "m", "x", "y", "z", "r", "R", "rho"),
    "Proposal": ("L", "m", "xs", "rs"),
}

INEQUALITY_IDS = tuple(REQUIRED_PARAMETERS)

#: The addend splits `antitelescope` certifies; "none" scans the bare addends.
SPLIT_MODES = ("none", "thm1", "thm2")


@dataclass(frozen=True, eq=False)
class DominanceReport:
    """Outcome of a truncated dominance check.

    The difference stays a packed residue until `difference` is first
    read, since only `check --dump-series` reads it.
    """

    holds_up_to: int
    failure: tuple[int, Coefficient] | None
    packing: _Signed = field(repr=False)
    residue: int = field(repr=False)

    @property
    def holds(self) -> bool:
        return self.failure is None

    @cached_property
    def difference(self) -> QSeries:
        """1/lhs - 1/rhs through the order."""
        return self.packing.decode(self.residue)


@dataclass(frozen=True)
class NamedInequality:
    id: str
    parameters: Mapping[str, Any]

    def __post_init__(self) -> None:
        if self.id not in INEQUALITY_IDS:
            raise ValueError(f"unknown inequality id {self.id!r}")
        required = REQUIRED_PARAMETERS[self.id]
        missing = [name for name in required if name not in self.parameters]
        if missing:
            raise ValueError(f"{self.id} is missing parameters {missing}")
        extra = [name for name in self.parameters if name not in required]
        if extra:
            raise ValueError(f"{self.id} does not take parameters {extra}")


def dominates(lhs: ProductSpec, rhs: ProductSpec, order: int) -> DominanceReport:
    """Check 1/lhs - 1/rhs for a negative coefficient up to the order.

    A pair over the series work bound raises ResourceError before any expansion.
    """
    first, second = require_series_work((lhs, rhs), order)
    packing = _Signed.for_reciprocals(order, first, second)
    reciprocal_lhs, reciprocal_rhs = packing.reciprocal_pair(first, second)
    diff = reciprocal_lhs - reciprocal_rhs
    return DominanceReport(order, packing.negative(diff), packing, diff)


def bga_degenerate(m: int, r: int) -> bool:
    """True when the two sides use the same residues, so the check is vacuous."""
    return sorted((1, m - 1)) == sorted((r, m - r))


def nbase_pair(xs, rs, m: int, L: int | float) -> tuple[ProductSpec, ProductSpec]:
    """The n-base pair {x_1..x_n, sum r_i x_i} over {r_1 x_1..r_n x_n, sum x_i}.

    Both products have modulus m and length L.  Theorem 1 is the case
    n = 2 and Theorem 2 the case n = 3.
    """
    xs = positive_ints(xs, "xs")
    rs = positive_ints(rs, "rs", len(xs))
    scaled = tuple(r * x for r, x in zip(rs, xs))
    return product_spec((*xs, sum(scaled)), m, L), product_spec((*scaled, sum(xs)), m, L)


def nbase_params(P: ProductSpec, Q: ProductSpec) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The (xs, rs) that `nbase_pair` turns into (P, Q); ValueError for any other pair."""
    xs = P.bases[:-1]
    rs = tuple(b // x for b, x in zip(Q.bases, xs))
    scaled = tuple(r * x for r, x in zip(rs, xs))
    if (
        xs
        and 0 not in rs
        and P.bases == (*xs, sum(scaled))
        and Q.bases == (*scaled, sum(xs))
        and (P.modulus, P.length) == (Q.modulus, Q.length)
    ):
        return xs, rs
    raise ValueError("the products are not an n-base pair {x_i, sum r_i x_i} over {r_i x_i, sum x_i}")


def build_specs(ineq: NamedInequality) -> tuple[ProductSpec, ProductSpec]:
    """The (dominant, subordinate) product pair a named inequality asserts."""
    p = ineq.parameters
    names = [n for n in REQUIRED_PARAMETERS[ineq.id] if n not in ("xs", "rs")]
    label = f"{ineq.id} parameters ({', '.join(names)})"
    v = dict(zip(names, positive_ints((p[n] for n in names), label, len(names))))
    L = v.get("L", INF)
    if ineq.id in ("RR", "finiteRR"):
        return product_spec((1, 4), 5, L), product_spec((2, 3), 5, L)
    if ineq.id == "BGa":
        m, r = v["m"], v["r"]
        if not 0 < r < m:
            raise ParameterError(f"BGa needs 0 < r < m, got r={r}, m={m}")
        return product_spec((1, m - 1), m, L), product_spec((r, m - r), m, L)
    if ineq.id == "littleGollnitz":
        return product_spec((1, 5, 6), 8, L), product_spec((2, 3, 7), 8, L)
    if ineq.id == "BGr":
        y = v["y"]
        if y % 2 == 0 or y < 3:
            raise ParameterError(f"BGr needs odd y > 1, got {y}")
        m = 2 * y + 2
        return product_spec((1, y + 2, 2 * y), m, L), product_spec((2, y, 2 * y + 1), m, L)
    if ineq.id == "Proposal":
        return nbase_pair(p["xs"], p["rs"], v["m"], L)
    if ineq.id in ("Thm1", "Thm2"):
        # (L, m, x1..xn, r1..rn) with n = 2 or 3
        sizes = [v[n] for n in names[2:]]
        half = len(sizes) // 2
        return nbase_pair(sizes[:half], sizes[half:], v["m"], L)
    raise ValueError(f"unknown inequality id {ineq.id!r}")


def check_named(ineq: NamedInequality, order: int) -> DominanceReport:
    """Instantiate a named inequality's product pair and test dominance."""
    lhs, rhs = build_specs(ineq)
    if ineq.id == "BGa":
        m = ineq.parameters["m"]
        r = ineq.parameters["r"]
        if bga_degenerate(m, r):
            # imported here: this is the package's one log line, and most
            # processes never reach it
            import logging

            logging.getLogger(__name__).info("BGa m=%d r=%d is degenerate: both sides identical", m, r)
    return dominates(lhs, rhs, order)


def report_dict(
    report: DominanceReport,
    inequality: str | None = None,
    parameters: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """JSON-ready view of a report, with the inequality it came from."""
    failed = report.failure is not None
    return {
        "inequality": inequality,
        "parameters": dict(parameters or {}),
        "order": report.holds_up_to,
        "holds": report.holds,
        "failure_exponent": report.failure[0] if failed else None,
        "deficit": report.failure[1] if failed else None,
    }
