"""Independent counting oracles used to pin expected values in tests.

Everything here is deliberately primitive: plain dynamic programming over
part sizes, no series arithmetic, no imports from the package under test.
Duplicate entries in a part list are treated as distinct part kinds
(colors), which is exactly the multiset semantics the colored products
require.
"""

from __future__ import annotations


def partition_counts_upto(max_n: int, parts: list[int]) -> list[int]:
    """counts[n] = number of multisets over the given part kinds summing to n."""
    counts = [0] * (max_n + 1)
    counts[0] = 1
    for p in parts:
        if p <= 0:
            raise ValueError(f"part sizes must be positive, got {p}")
        for n in range(p, max_n + 1):
            counts[n] += counts[n - p]
    return counts


def partition_count(n: int, parts: list[int]) -> int:
    return partition_counts_upto(n, parts)[n]


def residue_parts(residues: list[int], modulus: int, max_n: int) -> list[int]:
    """All part sizes <= max_n congruent to one of the residues mod modulus."""
    out = []
    for r in residues:
        p = r
        while p <= max_n:
            if p > 0:
                out.append(p)
            p += modulus
    return sorted(out)


def bga_expected(m: int, r: int) -> bool:
    """Whether the {1, m-1} product should dominate the {r, m-r} one.

    True exactly when neither of r and m-r divides the other.
    """
    other = m - r
    return other % r != 0 and r % other != 0
