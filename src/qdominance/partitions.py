"""Colored partitions matching the split-addend generating functions.

Parts are drawn from six colored bases -- sizes x, y, x+y, r*x, R*y, and
r*x+R*y -- each shifted through L layers of the modulus m, so the part with
base size p and layer index j has size p + (j-1)*m.  Colors keep parts of
equal numeric size distinct (with x == y the bases x and y still count
separately), which is exactly what makes the counts line up with the series.

Two seven-rule restriction systems, V and W, filter the partitions.  The
restricted counts reproduce, weight by weight, the coefficients of the V/W
split groups of the Thm1 pair summed over the indices
(`antitelescope.group_totals`); `interpretation_check` performs that
comparison and reports the minimal mismatch witness if one ever appears.

`count_profile` counts without listing: each base gets a table from its
statistic (the part of the rule record it determines) to a packed series,
and each system is a sum of products of those tables.  Only the layers
that fit the weight are built, so the time is polynomial in the weight
and independent of L.  `enumerate_partitions` lists a single weight and
prunes every branch that can no longer reach it.  A listed partition is a
tuple of (base, index, multiplicity) triples, the same shape the rules
read (`_stat_record`) and the `enumerate` envelope prints, and each
triple is built once per part kind and multiplicity and shared by every
partition that holds it.
The exhaustive walk both replaced lives on in `tests/reference_partitions.py`
as their oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .antitelescope import group_totals
from .dominance import nbase_pair
from .series import ParameterError, ProductSpec, QSeries, ResourceError, _Signed, positive_ints, reciprocal_from_exponents

X, Y, XY, RX, RY, S = BASE_LABELS = ("X", "Y", "XY", "RX", "RY", "S")

SYSTEMS = ("V", "W")

MAX_ENUMERATED_WEIGHT = 40

# Most partitions that one `enumerate_partitions` call may list.  Inside the
# weight cap a weight can still have billions of partitions (240,400,798,987
# for (1, 1, 1, 1, 1, 10) at weight 40), so they are counted before the walk.
MAX_ENUMERATED_PARTITIONS = 10**5


class EnumerationCapError(ResourceError, RuntimeError):
    """Raised when an enumeration request exceeds the weight cap or the count bound."""


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
        positive_ints(self.as_tuple(), "m, x, y, r, R and L", 6)

    @cached_property
    def pair(self) -> tuple[ProductSpec, ProductSpec]:
        """The Thm1 pair: bases x, y, r*x+R*y over r*x, R*y, x+y."""
        return nbase_pair((self.x, self.y), (self.r, self.R), self.m, self.L)

    @cached_property
    def _sizes(self) -> dict[str, int]:
        dominant, subordinate = self.pair
        return dict(zip((X, Y, S, RX, RY, XY), dominant.bases + subordinate.bases))

    def base_size(self, base: str) -> int:
        if base not in self._sizes:
            raise ValueError(f"unknown base label {base!r}")
        return self._sizes[base]

    def as_tuple(self) -> tuple[int, int, int, int, int, int]:
        return (self.m, self.x, self.y, self.r, self.R, self.L)


def _stat_record(counts, L: int) -> tuple[int, int, int, int, int, int, int, int]:
    """(Mx, My, Ms, min_rx, min_Ry, min_xy, nu_x1, nu_y1) of (base, index, multiplicity) triples."""
    max_x = max_y = max_s = 0
    min_rx = min_ry = min_xy = L + 1
    nu_x1 = nu_y1 = 0
    for base, index, multiplicity in counts:
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


def _part_kinds(params: PartitionParams, max_size: int) -> list[tuple[str, int, int]]:
    """The (base, index, size) kinds of size <= max_size, in canonical order.

    No larger kind fits a weight <= max_size, and skipping them keeps a huge
    L from allocating anything.
    """
    kinds = []
    for base in BASE_LABELS:
        size = params.base_size(base)
        top = min(params.L, (max_size - size) // params.m + 1)
        kinds += [(base, index, size + (index - 1) * params.m) for index in range(1, top + 1)]
    return kinds


# The rule-record slots (see `_stat_record`) that each base's statistic fills.
_STAT_SLOTS = {X: (0, 6), Y: (1, 7), S: (2,), RX: (3,), RY: (4,), XY: (5,)}

# The base that every rule of a system reads.
_PIVOTS = {"V": Y, "W": X}


def _by_highest_layer(packing: _Signed, sizes: list[int]) -> list[int]:
    """Entry j: the partitions into sizes[:j] that use sizes[j-1]; entry 0: the empty one."""
    out = [1]
    below = 1
    for size in sizes:
        current = packing.divide(below, [size]) & packing.mask
        out.append(current - below)
        below = current
    return out


def _base_table(params: PartitionParams, base: str, sizes: list[int], packing: _Signed) -> dict[tuple, int]:
    """Partitions into one base's parts, keyed by the base's statistic.

    `sizes` are the base's layers that fit the weight (`_part_kinds`); the
    layers above them hold no partition of weight <= the order.  The
    statistic is the base's share of the rule record (`_STAT_SLOTS`): the
    lowest occupied layer for XY, RX and RY (L+1 when empty); the highest
    for S (0 when empty); and for X and Y the highest layer together with
    the first-layer multiplicity clamped at max(r, R), beyond which the
    rules cannot tell multiplicities apart.  Each value is the packed
    series of the partitions with that statistic; statistics that no
    partition of weight <= the order attains are left out.
    """
    mask = packing.mask
    if base in (XY, RX, RY):
        lowest = _by_highest_layer(packing, sizes[::-1])
        table = {(params.L + 1 if k == 0 else len(sizes) + 1 - k,): x for k, x in enumerate(lowest)}
    elif base == S:
        table = {(j,): x for j, x in enumerate(_by_highest_layer(packing, sizes))}
    else:
        clamp = max(params.r, params.R)
        first = params.base_size(base)
        table = {(0, 0): 1}
        # layer `index` is the highest: layers 2..index hold `upper`, layer 1 holds nu parts
        for index, upper in enumerate(_by_highest_layer(packing, sizes[1:]), 1):
            for nu in range(1 if index == 1 else 0, clamp + 1):
                shift = nu * first
                if shift > packing.order:
                    break
                entry = (upper << shift * packing.bits) & mask
                table[(index, nu)] = packing.divide(entry, [first]) & mask if nu == clamp else entry
    return {stat: x for stat, x in table.items() if x}


def _filled(record: tuple, base: str, stat: tuple) -> tuple:
    """The rule record with one base's statistic written into its slots."""
    out = list(record)
    for slot, value in zip(_STAT_SLOTS[base], stat):
        out[slot] = value
    return tuple(out)


def count_profile(params: PartitionParams, max_n: int) -> dict[str, list[int]]:
    """Unfiltered and per-system partition counts for every weight <= max_n.

    A colored partition splits into six independent base partitions, so the
    totals are prod 1/(1 - q^size) over the part kinds that fit.  The
    restricted counts factor too.  Every one of the fourteen rules reads
    the system's pivot base (Y for V, X for W) and at most one other base,
    and an empty base is the loosest filling for every rule that reads it
    (highest layer 0, lowest layer L+1, no first-layer parts).  So for a
    fixed pivot statistic a partition passes exactly when each other base,
    judged on a record in which every third base is empty, passes.  Each
    system is then a sum over pivot statistics of the pivot's table times,
    per other base, the sum of that base's tables whose statistic passes.
    Pivot statistics with the same passing sets share one product.
    `_first_violation` remains the only statement of the rules.  The cost
    is polynomial in max_n and independent of L;
    `tests/reference_partitions.py` keeps the exhaustive walk.

    The totals are expanded exactly, in the width that
    `reciprocal_from_exponents` proves, and every other series is packed in
    one `series._Signed` modulo M = 2^(B(max_n+1)) with B = c + 1, c the bit
    length of the largest total.  A table entry, a per-base sum over passing
    statistics, a pivot group and any product of these each count a subset
    of the colored partitions of each weight, so each is coefficientwise
    between 0 and the totals, below 2^c, and the biased decode of its
    residue is exact.  Products are taken modulo M, `a * b & mask`, which
    the ring homomorphism q -> 2^B allows for any representatives.
    """
    if max_n < 0:
        raise ParameterError(f"max_n must be >= 0, got {max_n}")
    kinds = _part_kinds(params, max_n)
    totals = reciprocal_from_exponents([size for _, _, size in kinds], max_n).coeffs
    packing = _Signed(max_n, max(totals).bit_length() + 1)
    mask = packing.mask
    tables = {
        base: _base_table(params, base, [size for b, _, size in kinds if b == base], packing)
        for base in BASE_LABELS
    }
    empty = _stat_record((), params.L)
    profile = {"totals": list(totals)}
    for system in SYSTEMS:
        pivot = _PIVOTS[system]
        others = [base for base in BASE_LABELS if base != pivot]
        grouped: dict[tuple, int] = {}
        for stat, x in tables[pivot].items():
            record = _filled(empty, pivot, stat)
            passing = tuple(
                tuple(
                    other_stat
                    for other_stat in tables[base]
                    if _first_violation(system, params, _filled(record, base, other_stat)) is None
                )
                for base in others
            )
            if all(passing):
                grouped[passing] = grouped.get(passing, 0) + x
        counts = 0
        for passing, term in grouped.items():
            for base, stats in zip(others, passing):
                term = term * sum(tables[base][s] for s in stats) & mask
            counts += term
        profile[system] = list(packing.decode(counts).coeffs)
    return profile


def _reachable(kinds, n: int) -> list[list[bool]]:
    """Row k, entry w: whether weight w <= n is a sum of parts of kinds k onwards."""
    reachable = [[True] + [False] * n]
    for _, _, size in reversed(kinds):
        row = reachable[-1][:]
        for w in range(size, n + 1):
            row[w] = row[w] or row[w - size]
        reachable.append(row)
    reachable.reverse()
    return reachable


def enumerate_partitions(n: int, params: PartitionParams) -> list[tuple[tuple[str, int, int], ...]]:
    """All weight-n partitions, duplicate-free, in canonical order.

    Each partition is a tuple of (base, index, multiplicity) triples with
    positive multiplicities, bases in declaration order (X, Y, XY, RX, RY,
    S) and then by layer index; this is also the shape the `enumerate`
    envelope lists.  Each triple is built once per (kind, multiplicity)
    and shared by every partition that holds it.
    Partitions are ordered lexicographically by their triples, with bases
    in declaration order.
    The walk adds kinds in canonical order and multiplicities in increasing
    order, so its preorder is already that order.  It enters only branches
    that can still reach weight n exactly: `reachable[k][w]` says whether
    weight w is a sum of parts of kinds k onwards.  The moves out of a
    state (first free kind, weight left) depend on nothing else, so each
    state's list is found once and replayed under every prefix that
    reaches it.  The partitions are
    counted first, as coefficient n of prod 1/(1 - q^size) over the kinds,
    and more than MAX_ENUMERATED_PARTITIONS raise EnumerationCapError
    before the walk.
    """
    if n < 0:
        raise ParameterError(f"n must be >= 0, got {n}")
    if n > MAX_ENUMERATED_WEIGHT:
        raise EnumerationCapError(f"weight {n} exceeds the enumeration cap {MAX_ENUMERATED_WEIGHT}")
    kinds = _part_kinds(params, n)
    count = reciprocal_from_exponents([size for _, _, size in kinds], n).coeff(n)
    if count > MAX_ENUMERATED_PARTITIONS:
        raise EnumerationCapError(
            f"{count} partitions of weight {n} exceed the bound {MAX_ENUMERATED_PARTITIONS}"
        )
    reachable = _reachable(kinds, n)
    # kind k's triples, multiplicity 1 up to the most that fit n
    triples = [[(base, index, m) for m in range(1, n // size + 1)] for base, index, size in kinds]
    # (start, remaining) -> the moves (triple, next start, rest) that can still reach n
    moves: dict[tuple[int, int], list[tuple[tuple[str, int, int], int, int]]] = {}
    found: list[tuple[tuple[str, int, int], ...]] = []
    entries: list[tuple[str, int, int]] = []

    def extend(start: int, remaining: int) -> None:
        if remaining == 0:
            found.append(tuple(entries))
            return
        key = (start, remaining)
        if key not in moves:
            moves[key] = out = []
            for k in range(start, len(kinds)):
                if not reachable[k][remaining]:
                    break  # no later kind can finish either
                size, after, rest = kinds[k][2], reachable[k + 1], remaining
                for triple in triples[k]:
                    rest -= size
                    if rest < 0:
                        break
                    if after[rest]:
                        out.append((triple, k + 1, rest))
        for triple, k, rest in moves[key]:
            entries.append(triple)
            extend(k, rest)
            entries.pop()

    extend(0, n)
    return found


def split_series(params: PartitionParams, order: int) -> tuple[QSeries, QSeries]:
    """(sum of V(i), sum of W(i)) over i = 1..L, truncated at `order`."""
    totals = group_totals(*params.pair, order, "thm1")
    return totals["V"], totals["W"]


def interpretation_check(params: PartitionParams, max_n: int) -> dict:
    """Compare restricted counts against the split series up to max_n.

    Returns {"params", "max_n", "rows", "ok", "witness"}.  Row keys match
    the CSV columns: n, V_count, W_count, series_V, series_W, match.  The
    witness, when present, is the minimal mismatching weight with both
    numbers, V before W.
    """
    profile = count_profile(params, max_n)
    series = dict(zip(SYSTEMS, split_series(params, max_n)))
    rows, witness = [], None
    for n in range(max_n + 1):
        pairs = [(profile[system][n], series[system].coeff(n)) for system in SYSTEMS]
        (v_count, series_v), (w_count, series_w) = pairs
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
        for system, (count, coefficient) in zip(SYSTEMS, pairs):
            if witness is None and count != coefficient:
                witness = {"n": n, "system": system, "count": count, "coefficient": coefficient}
    return {
        "params": params.as_tuple(),
        "max_n": max_n,
        "rows": rows,
        "ok": witness is None,
        "witness": witness,
    }
