"""Colored partitions matching the split-addend generating functions.

Parts are drawn from six colored bases -- sizes x, y, x+y, r*x, R*y, and
r*x+R*y -- each shifted through L layers of the modulus m, so the part with
base size p and layer index j has size p + (j-1)*m.  Colors keep parts of
equal numeric size distinct (with x == y the bases x and y still count
separately), which is exactly what makes the counts line up with the series.

Two seven-rule restriction systems, V and W, filter the partitions.  The
restricted counts reproduce, weight by weight, the coefficients of the summed
V/W split pieces from `antitelescope.thm1_split`; `interpretation_check`
performs that comparison and reports the minimal mismatch witness if one ever
appears.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .antitelescope import decompositions, thm1_families
from .series import QSeries, reciprocal_from_exponents, series_add

X, Y, XY, RX, RY, S = BASE_LABELS = ("X", "Y", "XY", "RX", "RY", "S")

_BASE_RANK = {label: rank for rank, label in enumerate(BASE_LABELS)}

SYSTEMS = ("V", "W")

DEFAULT_ENUMERATION_CAP = 40


class EnumerationCapError(RuntimeError):
    """Raised when an enumeration request exceeds the configured weight cap."""


@dataclass(frozen=True)
class PartitionParams:
    """The context (m, x, y, r, R, L) a colored partition lives in."""

    m: int
    x: int
    y: int
    r: int
    R: int
    L: int

    def __post_init__(self) -> None:
        for name in ("m", "x", "y", "r", "R", "L"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")

    @classmethod
    def from_values(cls, values) -> "PartitionParams":
        m, x, y, r, R, L = values
        return cls(m, x, y, r, R, L)

    def base_size(self, base: str) -> int:
        sizes = {
            X: self.x,
            Y: self.y,
            XY: self.x + self.y,
            RX: self.r * self.x,
            RY: self.R * self.y,
            S: self.r * self.x + self.R * self.y,
        }
        if base not in sizes:
            raise ValueError(f"unknown base label {base!r}")
        return sizes[base]

    def part_size(self, base: str, index: int) -> int:
        if not isinstance(index, int) or not 1 <= index <= self.L:
            raise ValueError(f"index must satisfy 1 <= index <= {self.L}, got {index!r}")
        return self.base_size(base) + (index - 1) * self.m

    def as_tuple(self) -> tuple[int, int, int, int, int, int]:
        return (self.m, self.x, self.y, self.r, self.R, self.L)


@dataclass(frozen=True)
class ColoredPart:
    """A single part: a colored base shifted into layer `index`."""

    base: str
    index: int
    size: int

    def __post_init__(self) -> None:
        if self.base not in _BASE_RANK:
            raise ValueError(f"unknown base label {self.base!r}")
        if not isinstance(self.index, int) or self.index < 1:
            raise ValueError(f"index must be a positive integer, got {self.index!r}")
        if not isinstance(self.size, int) or self.size < 1:
            raise ValueError(f"size must be a positive integer, got {self.size!r}")


def colored_part(params: PartitionParams, base: str, index: int) -> ColoredPart:
    return ColoredPart(base, index, params.part_size(base, index))


def _canonical_key(base: str, index: int) -> tuple[int, int]:
    return (_BASE_RANK[base], index)


@dataclass(frozen=True)
class ColoredPartition:
    """A multiset of colored parts, stored as ((base, index), multiplicity).

    `counts` is kept in canonical order -- bases in declaration order
    (X, Y, XY, RX, RY, S), then by layer index -- with strictly positive
    multiplicities; build instances through `colored_partition`.
    """

    counts: tuple[tuple[tuple[str, int], int], ...]
    params: PartitionParams

    def __post_init__(self) -> None:
        keys = []
        for (base, index), multiplicity in self.counts:
            self.params.part_size(base, index)  # validates base and index range
            if not isinstance(multiplicity, int) or multiplicity < 1:
                raise ValueError(
                    f"multiplicity must be a positive integer, got {multiplicity!r}"
                )
            keys.append(_canonical_key(base, index))
        if keys != sorted(set(keys)):
            raise ValueError("counts must be canonically ordered and duplicate-free")

    @property
    def weight(self) -> int:
        return sum(
            multiplicity * self.params.part_size(base, index)
            for (base, index), multiplicity in self.counts
        )

    def multiplicity(self, base: str, index: int) -> int:
        for (b, j), count in self.counts:
            if b == base and j == index:
                return count
        return 0

    def parts(self) -> tuple[tuple[ColoredPart, int], ...]:
        return tuple(
            (colored_part(self.params, base, index), multiplicity)
            for (base, index), multiplicity in self.counts
        )


def colored_partition(params: PartitionParams, counts) -> ColoredPartition:
    """Build a partition from a mapping or iterable of ((base, index), mult)."""
    items: Iterable = counts.items() if isinstance(counts, Mapping) else counts
    merged: dict[tuple[str, int], int] = {}
    for (base, index), multiplicity in items:
        params.part_size(base, index)
        if not isinstance(multiplicity, int) or multiplicity < 0:
            raise ValueError(
                f"multiplicity must be a nonnegative integer, got {multiplicity!r}"
            )
        if multiplicity:
            merged[(base, index)] = merged.get((base, index), 0) + multiplicity
    ordered = tuple(
        (key, merged[key]) for key in sorted(merged, key=lambda k: _canonical_key(*k))
    )
    return ColoredPartition(ordered, params)


def stats(partition: ColoredPartition, base: str) -> tuple[int, int]:
    """Highest and lowest occupied layer index for a base: (Mmax, mmin).

    An unoccupied base defaults to (0, L+1), so "max below" comparisons pass
    vacuously and "min above" comparisons do too.
    """
    if base not in _BASE_RANK:
        raise ValueError(f"unknown base label {base!r}")
    indices = [j for (b, j), _ in partition.counts if b == base]
    return (max(indices, default=0), min(indices, default=partition.params.L + 1))


def _stat_record(counts, L: int) -> tuple[int, int, int, int, int, int, int, int]:
    """(Mx, My, Ms, min_rx, min_Ry, min_xy, nu_x1, nu_y1) for rule evaluation."""
    max_x = max_y = max_s = 0
    min_rx = min_ry = min_xy = L + 1
    nu_x1 = nu_y1 = 0
    for (base, index), multiplicity in counts:
        if base == X:
            max_x = max(max_x, index)
            if index == 1:
                nu_x1 = multiplicity
        elif base == Y:
            max_y = max(max_y, index)
            if index == 1:
                nu_y1 = multiplicity
        elif base == S:
            max_s = max(max_s, index)
        elif base == RX:
            min_rx = min(min_rx, index)
        elif base == RY:
            min_ry = min(min_ry, index)
        elif base == XY:
            min_xy = min(min_xy, index)
    return (max_x, max_y, max_s, min_rx, min_ry, min_xy, nu_x1, nu_y1)


def _first_violation(system: str, params: PartitionParams, record) -> str | None:
    """First failing rule id in display order, or None when all rules hold.

    Rules V1-V5 and W1-W5 pin the occupied-layer ranges of the bases against
    each other; V6/V7 and W6/W7 bound the first-layer multiplicities of the
    plain x and y bases.  The first-layer window for the "own" base (V7 for y,
    W6 for x) widens by one exactly when the first layer is also the highest
    occupied layer of that base; the uniformly narrow window undercounts
    against the series.
    """
    max_x, max_y, max_s, min_rx, min_ry, min_xy, nu_x1, nu_y1 = record
    if system == "V":
        checks = (
            ("V1", max_y >= max(1, max_x)),
            ("V2", max_y >= max_s),
            ("V3", min_rx > max_y),
            ("V4", min_ry >= max_y),
            ("V5", min_xy >= max_y),
            ("V6", nu_x1 == 0),
            ("V7", nu_y1 < (params.R if max_y == 1 else params.R - 1)),
        )
    elif system == "W":
        checks = (
            ("W1", max_x > max_y),
            ("W2", max_x >= max_s),
            ("W3", min_rx >= max_x),
            ("W4", min_ry >= max(2, max_x)),
            ("W5", min_xy >= max_x),
            ("W6", nu_x1 < (params.r if max_x == 1 else params.r - 1)),
            ("W7", nu_y1 < params.R),
        )
    else:
        raise ValueError(f"system must be one of {SYSTEMS}, got {system!r}")
    for rule, ok in checks:
        if not ok:
            return rule
    return None


@dataclass(frozen=True)
class RestrictionVerdict:
    """Outcome of checking one rule system against one partition."""

    system: str
    violated: str | None

    @property
    def satisfied(self) -> bool:
        return self.violated is None


def satisfies(partition: ColoredPartition, system: str) -> RestrictionVerdict:
    """Evaluate one rule system, reporting the first violated rule id."""
    record = _stat_record(partition.counts, partition.params.L)
    return RestrictionVerdict(system, _first_violation(system, partition.params, record))


def _part_kinds(params: PartitionParams) -> list[tuple[str, int, int]]:
    """All (base, index, size) kinds in canonical order."""
    return [
        (base, index, params.base_size(base) + (index - 1) * params.m)
        for base in BASE_LABELS
        for index in range(1, params.L + 1)
    ]


def _visit_partitions(params: PartitionParams, max_weight: int, visit) -> None:
    """Call visit(entries, weight) once per partition of weight <= max_weight.

    `entries` is the live list of ((base, index), multiplicity) items in
    canonical order; visitors must copy it if they keep it.
    """
    kinds = _part_kinds(params)
    entries: list[tuple[tuple[str, int], int]] = []

    def extend(start: int, remaining: int) -> None:
        for k in range(start, len(kinds)):
            base, index, size = kinds[k]
            for multiplicity in range(1, remaining // size + 1):
                entries.append(((base, index), multiplicity))
                visit(entries, max_weight - (remaining - multiplicity * size))
                extend(k + 1, remaining - multiplicity * size)
                entries.pop()

    visit(entries, 0)
    extend(0, max_weight)


def count_profile(params: PartitionParams, max_n: int) -> dict[str, list[int]]:
    """Unfiltered and per-system partition counts for every weight <= max_n."""
    if max_n < 0:
        raise ValueError(f"max_n must be >= 0, got {max_n}")
    totals = [0] * (max_n + 1)
    v_counts = [0] * (max_n + 1)
    w_counts = [0] * (max_n + 1)

    def visit(entries, weight):
        totals[weight] += 1
        record = _stat_record(entries, params.L)
        if _first_violation("V", params, record) is None:
            v_counts[weight] += 1
        if _first_violation("W", params, record) is None:
            w_counts[weight] += 1

    _visit_partitions(params, max_n, visit)
    return {"totals": totals, "V": v_counts, "W": w_counts}


def count_restricted(n: int, system: str, params: PartitionParams) -> int:
    """Number of weight-n partitions satisfying one rule system; exhaustive."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if system not in SYSTEMS:
        raise ValueError(f"system must be one of {SYSTEMS}, got {system!r}")
    return count_profile(params, n)[system][n]


def enumerate_partitions(
    n: int, params: PartitionParams, cap: int = DEFAULT_ENUMERATION_CAP
) -> list[ColoredPartition]:
    """All weight-n partitions, duplicate-free, in canonical order.

    Partitions are ordered lexicographically by their count tuples, comparing
    entries by (base, index, multiplicity) with bases in declaration order.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n > cap:
        raise EnumerationCapError(f"weight {n} exceeds the enumeration cap {cap}")
    found: list[ColoredPartition] = []

    def visit(entries, weight):
        if weight == n:
            found.append(ColoredPartition(tuple(entries), params))

    _visit_partitions(params, n, visit)
    found.sort(
        key=lambda p: tuple(
            (_BASE_RANK[base], index, multiplicity)
            for (base, index), multiplicity in p.counts
        )
    )
    return found


def unrestricted_series(params: PartitionParams, order: int) -> QSeries:
    """Generating series of all colored partitions: one factor per part kind."""
    return reciprocal_from_exponents(
        [size for _, _, size in _part_kinds(params)], order
    )


def split_series(params: PartitionParams, order: int) -> tuple[QSeries, QSeries]:
    """(sum of V(i), sum of W(i)) over i = 1..L, truncated at `order`."""
    P, Q = thm1_families(params.m, params.x, params.y, params.r, params.R)
    v_total = QSeries.zero(order)
    w_total = QSeries.zero(order)
    for decomposition in decompositions(P, Q, params.L, order, "thm1"):
        groups = dict(decomposition.groups)
        v_total = series_add(v_total, groups["V"])
        w_total = series_add(w_total, groups["W"])
    return v_total, w_total


def interpretation_rows(
    params: PartitionParams, max_n: int, series_pair=None
) -> list[dict]:
    """Per-weight comparison rows between counts and series coefficients.

    Row keys match the CSV columns: n, V_count, W_count, series_V, series_W,
    match.  `series_pair` overrides the computed (V, W) series; tests use it
    to exercise the mismatch reporting.
    """
    profile = count_profile(params, max_n)
    v_series, w_series = (
        split_series(params, max_n) if series_pair is None else series_pair
    )
    rows = []
    for n in range(max_n + 1):
        v_count, w_count = profile["V"][n], profile["W"][n]
        series_v, series_w = v_series.coeff(n), w_series.coeff(n)
        rows.append(
            {
                "n": n,
                "V_count": v_count,
                "W_count": w_count,
                "series_V": series_v,
                "series_W": series_w,
                "match": v_count == series_v and w_count == series_w,
            }
        )
    return rows


def interpretation_check(
    params: PartitionParams, max_n: int, series_pair=None
) -> dict:
    """Compare restricted counts against the split series up to max_n.

    Returns {"params", "max_n", "rows", "ok", "witness"}; the witness, when
    present, is the minimal mismatching weight with both numbers, V before W.
    """
    rows = interpretation_rows(params, max_n, series_pair)
    witness = None
    for row in rows:
        if row["match"]:
            continue
        for system in SYSTEMS:
            count, coefficient = row[f"{system}_count"], row[f"series_{system}"]
            if count != coefficient:
                witness = {
                    "n": row["n"],
                    "system": system,
                    "count": count,
                    "coefficient": coefficient,
                }
                break
        break
    return {
        "params": params.as_tuple(),
        "max_n": max_n,
        "rows": rows,
        "ok": witness is None,
        "witness": witness,
    }
