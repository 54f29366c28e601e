"""Coefficientwise comparison of reciprocal products.

A product spec Pi1 dominates Pi2 up to order N when every coefficient of
1/Pi1 - 1/Pi2 is nonnegative through q^N.  This module decides that, reports
the first failure when there is one, and knows how to build the named
families of product pairs that the command line exposes.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Any, Mapping

from .series import (
    Coefficient,
    ProductSpec,
    first_negative,
    product_spec,
    series_sub,
    spec_reciprocal,
)

log = logging.getLogger(__name__)

INEQUALITY_IDS = (
    "RR",
    "BGa",
    "finiteRR",
    "littleGollnitz",
    "BGr",
    "Thm1",
    "Thm2",
    "Proposal",
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


@dataclass(frozen=True)
class DominanceReport:
    """Outcome of a truncated dominance check."""

    holds_up_to: int
    failure: tuple[int, Coefficient] | None
    lhs_spec: ProductSpec
    rhs_spec: ProductSpec

    @property
    def holds(self) -> bool:
        return self.failure is None


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
    """Check 1/lhs - 1/rhs for a negative coefficient up to the order."""
    diff = series_sub(spec_reciprocal(lhs, order), spec_reciprocal(rhs, order))
    return DominanceReport(order, first_negative(diff), lhs, rhs)


def _positive_int(parameters: Mapping[str, Any], name: str) -> int:
    value = parameters[name]
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ValueError(f"parameter {name} must be a positive integer, got {value!r}")
    return value


def _positive_tuple(parameters: Mapping[str, Any], name: str) -> tuple[int, ...]:
    value = parameters[name]
    try:
        items = tuple(value)
    except TypeError:
        raise ValueError(f"parameter {name} must be a sequence of integers") from None
    if not items or any(
        not isinstance(v, int) or isinstance(v, bool) or v < 1 for v in items
    ):
        raise ValueError(f"parameter {name} must hold positive integers, got {value!r}")
    return items


def bga_expected(m: int, r: int) -> bool:
    """Whether the {1, m-1} product should dominate the {r, m-r} one.

    True exactly when neither of r and m-r divides the other.
    """
    other = m - r
    return other % r != 0 and r % other != 0


def bga_degenerate(m: int, r: int) -> bool:
    """True when the two sides use the same residues, so the check is vacuous."""
    return sorted((1, m - 1)) == sorted((r, m - r))


def proposal_sums(xs: tuple[int, ...], rs: tuple[int, ...]) -> tuple[int, int]:
    """The weighted and plain part sums appearing in the general conjecture."""
    if len(xs) != len(rs):
        raise ValueError("xs and rs must have the same length")
    weighted = sum(r * x for r, x in zip(rs, xs))
    plain = sum(xs)
    return weighted, plain


def build_specs(ineq: NamedInequality) -> tuple[ProductSpec, ProductSpec]:
    """The (dominant, subordinate) product pair a named inequality asserts."""
    p = ineq.parameters
    if ineq.id == "RR":
        return product_spec((1, 4), 5), product_spec((2, 3), 5)
    if ineq.id == "BGa":
        m = _positive_int(p, "m")
        r = _positive_int(p, "r")
        L = _positive_int(p, "L")
        if not 0 < r < m:
            raise ValueError(f"BGa needs 0 < r < m, got r={r}, m={m}")
        return product_spec((1, m - 1), m, L), product_spec((r, m - r), m, L)
    if ineq.id == "finiteRR":
        L = _positive_int(p, "L")
        return product_spec((1, 4), 5, L), product_spec((2, 3), 5, L)
    if ineq.id == "littleGollnitz":
        L = _positive_int(p, "L")
        return product_spec((1, 5, 6), 8, L), product_spec((2, 3, 7), 8, L)
    if ineq.id == "BGr":
        y = _positive_int(p, "y")
        L = _positive_int(p, "L")
        if y % 2 == 0 or y < 3:
            raise ValueError(f"BGr needs odd y > 1, got {y}")
        m = 2 * y + 2
        lhs = product_spec((1, y + 2, 2 * y), m, L)
        rhs = product_spec((2, y, 2 * y + 1), m, L)
        return lhs, rhs
    if ineq.id == "Thm1":
        L, m, x, y, r, R = (_positive_int(p, n) for n in REQUIRED_PARAMETERS["Thm1"])
        lhs = product_spec((x, y, r * x + R * y), m, L)
        rhs = product_spec((r * x, R * y, x + y), m, L)
        return lhs, rhs
    if ineq.id == "Thm2":
        L, m, x, y, z, r, R, rho = (
            _positive_int(p, n) for n in REQUIRED_PARAMETERS["Thm2"]
        )
        lhs = product_spec((x, y, z, r * x + R * y + rho * z), m, L)
        rhs = product_spec((r * x, R * y, rho * z, x + y + z), m, L)
        return lhs, rhs
    if ineq.id == "Proposal":
        L = _positive_int(p, "L")
        m = _positive_int(p, "m")
        xs = _positive_tuple(p, "xs")
        rs = _positive_tuple(p, "rs")
        weighted, plain = proposal_sums(xs, rs)
        lhs = product_spec((*xs, weighted), m, L)
        rhs = product_spec((*(r * x for r, x in zip(rs, xs)), plain), m, L)
        return lhs, rhs
    raise ValueError(f"unknown inequality id {ineq.id!r}")


def check_named(ineq: NamedInequality, order: int) -> DominanceReport:
    """Instantiate a named inequality's product pair and test dominance."""
    lhs, rhs = build_specs(ineq)
    if ineq.id == "BGa":
        m = ineq.parameters["m"]
        r = ineq.parameters["r"]
        if bga_degenerate(m, r):
            log.info("BGa m=%d r=%d is degenerate: both sides identical", m, r)
    return dominates(lhs, rhs, order)


def _coeff_json(c: Coefficient) -> int | str:
    return c if isinstance(c, int) else str(c)


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
        "deficit": _coeff_json(report.failure[1]) if failed else None,
    }
