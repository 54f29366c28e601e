"""Independent integer oracle for the benchmark's expected outcomes.

Nothing here imports qdominance.  Every product 1/prod(1 - q^e) is the
generating function of partitions into the parts e (repeated exponents
are distinct part kinds), so a plain counting DP over part sizes gives
every coefficient the program computes with series arithmetic.  The
product shapes of the named inequalities are restated here from their
mathematical definitions, not read from the package.
"""

from __future__ import annotations

INFINITE = None


def partition_counts(max_n: int, parts) -> list[int]:
    """counts[n] = number of multisets over the part kinds summing to n."""
    counts = [1] + [0] * max_n
    for p in parts:
        if p < 1:
            raise ValueError(f"part sizes must be positive, got {p}")
        for n in range(p, max_n + 1):
            counts[n] += counts[n - p]
    return counts


def layered_parts(bases, modulus: int, length, order: int) -> list[int]:
    """Sizes b + j*modulus (j < length, or unbounded) that fit under the order."""
    parts = []
    for b in bases:
        j = 0
        while (length is INFINITE or j < length) and b + j * modulus <= order:
            parts.append(b + j * modulus)
            j += 1
    return parts


def product_shapes(ineq: str, p: dict) -> tuple[tuple, tuple, int, int | None]:
    """(dominant bases, subordinate bases, modulus, length) of a named pair."""
    if ineq == "RR":
        return (1, 4), (2, 3), 5, INFINITE
    if ineq == "BGa":
        m, r = p["m"], p["r"]
        return (1, m - 1), (r, m - r), m, p["L"]
    if ineq == "Thm1":
        x, y, r, R = p["x"], p["y"], p["r"], p["R"]
        return (x, y, r * x + R * y), (r * x, R * y, x + y), p["m"], p["L"]
    if ineq == "Thm2":
        x, y, z, r, R, rho = p["x"], p["y"], p["z"], p["r"], p["R"], p["rho"]
        return (
            (x, y, z, r * x + R * y + rho * z),
            (r * x, R * y, rho * z, x + y + z),
            p["m"],
            p["L"],
        )
    if ineq == "Proposal":
        xs, rs = p["xs"], p["rs"]
        weighted = sum(r * x for r, x in zip(rs, xs))
        return (*xs, weighted), (*(r * x for r, x in zip(rs, xs)), sum(xs)), p["m"], p["L"]
    raise ValueError(f"no oracle for inequality {ineq!r}")


def first_deficit(dominant: list[int], subordinate: list[int]):
    """None when dominant >= subordinate coefficientwise, else the first
    exponent where it falls short and the (negative) difference there."""
    for n, (u, v) in enumerate(zip(dominant, subordinate)):
        if u < v:
            return n, u - v
    return None


def reciprocal_counts(ineq: str, params: dict, order: int) -> tuple[list[int], list[int]]:
    """Coefficients up to the order of the dominant and subordinate reciprocals."""
    lhs, rhs, modulus, length = product_shapes(ineq, params)
    return (
        partition_counts(order, layered_parts(lhs, modulus, length, order)),
        partition_counts(order, layered_parts(rhs, modulus, length, order)),
    )


def dominance_failure(ineq: str, params: dict, order: int):
    """first_deficit of the two reciprocal products of a named pair."""
    return first_deficit(*reciprocal_counts(ineq, params, order))


def colored_counts(values, max_n: int) -> list[int]:
    """Colored partition counts of every weight <= max_n for (m, x, y, r, R, L):
    parts x, y, x+y, rx, Ry, rx+Ry, each shifted through L layers of m."""
    m, x, y, r, R, L = values
    bases = (x, y, x + y, r * x, R * y, r * x + R * y)
    return partition_counts(max_n, [b + j * m for b in bases for j in range(L)])


def source_count(xs, rs, max_weight: int) -> int:
    """Subordinate-side count vectors (parts r_i*x_i and sum(x)) of weight <= max_weight."""
    parts = [r * x for r, x in zip(rs, xs)] + [sum(xs)]
    return sum(partition_counts(max_weight, parts))
