"""Brute-force reference for restricted counting, listing and the injection.

These are the original, deliberately direct bodies: `count_profile` walks
every colored partition of weight <= max_n and filters each one through
the rule systems; `enumerate_partitions` keeps the weight-n leaves of the
same walk and sorts them; `injection_evidence` maps every source vector
through validated `CountVector`s and records each image in a `seen` set;
`walk_injection_evidence` is the plain-tuple walk one vector at a time,
as the package ran it before it took the sources in prefix runs.
Their cost is exponential in the weight, so they serve only as oracles for
the factorized counts, the pruned listing and the plain-tuple injection
core in the package.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from qdominance.partitions import (
    BASE_LABELS,
    PartitionParams,
    _first_violation,
    _part_kinds,
    _stat_record,
)
from qdominance import proposal
from qdominance.proposal import NotInImageError, ProposalParams
from qdominance.series import ResourceError, reciprocal_from_exponents

_BASE_RANK = {label: rank for rank, label in enumerate(BASE_LABELS)}


def _bounded_vectors(sizes: tuple[int, ...], budget: int):
    """(counts, joint, weight) for every vector of weight <= budget.

    The last size weighs the joint count, the others the counts.  Vectors
    come in lexicographic order of (counts, joint).
    """
    *head, last = sizes
    prefixes = [((), 0)]
    for size in head:
        prefixes = [
            (counts + (c,), weight + c * size)
            for counts, weight in prefixes
            for c in range((budget - weight) // size + 1)
        ]
    for counts, weight in prefixes:
        for joint in range((budget - weight) // last + 1):
            yield counts, joint, weight + joint * last


def part_size(params: PartitionParams, base: str, index: int) -> int:
    """The size of the part with a base and a layer index 1..L."""
    if type(index) is not int or not 1 <= index <= params.L:
        raise ValueError(f"index must satisfy 1 <= index <= {params.L}, got {index!r}")
    return params.base_size(base) + (index - 1) * params.m


def _canonical_key(base: str, index: int) -> tuple[int, int]:
    return (_BASE_RANK[base], index)


@dataclass(frozen=True)
class ColoredPartition:
    """A multiset of colored parts, stored as (base, index, multiplicity) triples.

    `counts` is kept in canonical order -- bases in declaration order
    (X, Y, XY, RX, RY, S), then by layer index -- with strictly positive
    multiplicities.
    """

    counts: tuple[tuple[str, int, int], ...]
    params: PartitionParams

    def __post_init__(self) -> None:
        keys = []
        for base, index, multiplicity in self.counts:
            part_size(self.params, base, index)  # validates base and index range
            if type(multiplicity) is not int or multiplicity < 1:
                raise ValueError(
                    f"multiplicity must be a positive integer, got {multiplicity!r}"
                )
            keys.append(_canonical_key(base, index))
        if keys != sorted(set(keys)):
            raise ValueError("counts must be canonically ordered and duplicate-free")


@dataclass(frozen=True)
class CountVector:
    """Part multiplicities: one per variable, plus the composite part.

    On the subordinate side `counts[i]` is the multiplicity of r_(i)x_(i) and
    `joint` that of sigma; on the dominant side `counts[i]` belongs to x_(i)
    and `joint` to Sigma.  Injection images carry the congruence witness A.
    """

    counts: tuple[int, ...]
    joint: int
    witness: int | None = None

    def __post_init__(self) -> None:
        if not self.counts or any(type(c) is not int or c < 0 for c in self.counts):
            raise ValueError(
                f"counts must be nonempty nonnegative integers, got {self.counts!r}"
            )
        if type(self.joint) is not int or self.joint < 0:
            raise ValueError(f"joint count must be an integer >= 0, got {self.joint!r}")

    @property
    def minimum(self) -> int:
        return min(self.counts)


def _dot(vector: CountVector, sizes: tuple[int, ...]) -> int:
    if len(vector.counts) + 1 != len(sizes):
        raise ValueError(
            f"vector has {len(vector.counts)} counts but {len(sizes) - 1} sizes"
        )
    return sum(c * s for c, s in zip(vector.counts, sizes)) + vector.joint * sizes[-1]


def source_vectors(params: ProposalParams, max_weight: int):
    """All subordinate-side vectors of weight <= max_weight."""
    for counts, joint, _ in _bounded_vectors(params.source_sizes, max_weight):
        yield CountVector(counts, joint)


def image_vectors(params: ProposalParams, max_weight: int):
    """All dominant-side vectors of weight <= max_weight."""
    for counts, joint, _ in _bounded_vectors(params.image_sizes, max_weight):
        yield CountVector(counts, joint)


def visit_partitions(params: PartitionParams, max_weight: int, visit) -> None:
    """Call visit(entries, weight) once per partition of weight <= max_weight.

    `entries` is the live list of (base, index, multiplicity) triples in
    canonical order; visitors must copy it if they keep it.
    """
    kinds = _part_kinds(params, max_weight)
    entries: list[tuple[str, int, int]] = []

    def extend(start: int, remaining: int) -> None:
        for k in range(start, len(kinds)):
            base, index, size = kinds[k]
            for multiplicity in range(1, remaining // size + 1):
                entries.append((base, index, multiplicity))
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

    visit_partitions(params, max_n, visit)
    return {"totals": totals, "V": v_counts, "W": w_counts}


def enumerate_partitions(n: int, params: PartitionParams, cap: int = 40) -> list[ColoredPartition]:
    """All weight-n partitions from the full walk, sorted into canonical order."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n > cap:
        raise ResourceError(f"weight {n} exceeds the enumeration cap {cap}")
    found: list[ColoredPartition] = []

    def visit(entries, weight):
        if weight == n:
            found.append(ColoredPartition(tuple(entries), params))

    visit_partitions(params, n, visit)
    found.sort(
        key=lambda p: tuple(
            (_BASE_RANK[base], index, multiplicity)
            for base, index, multiplicity in p.counts
        )
    )
    return found


def inject(pi_prime: CountVector, params: ProposalParams) -> CountVector:
    """The subordinate-to-dominant map on validated vectors."""
    if len(pi_prime.counts) != params.n:
        raise ValueError(f"expected {params.n} counts, got {len(pi_prime.counts)}")
    mu_prime = pi_prime.minimum
    counts = tuple(
        r * (c - mu_prime) + pi_prime.joint
        for r, c in zip(params.r, pi_prime.counts)
    )
    return CountVector(counts, mu_prime, witness=pi_prime.joint)


def invert(pi: CountVector, params: ProposalParams) -> CountVector:
    """The pull-back on validated vectors; fails off the injection's image."""
    if len(pi.counts) != params.n:
        raise ValueError(f"expected {params.n} counts, got {len(pi.counts)}")
    mu = pi.minimum
    counts = []
    for r, c in zip(params.r, pi.counts):
        offset = c - mu
        if offset % r:
            raise NotInImageError(
                f"count {c} is not congruent to the minimum {mu} modulo {r}"
            )
        counts.append(offset // r + pi.joint)
    return CountVector(tuple(counts), mu)


def injection_evidence(params: ProposalParams, max_weight: int) -> dict:
    """Exhaustively exercise the injection on all sources up to max_weight."""
    failure = None
    seen = set()
    per_weight = Counter()
    source_count = 0
    for source in source_vectors(params, max_weight):
        source_count += 1
        image = inject(source, params)
        weight = _dot(source, params.source_sizes)
        per_weight[weight] += 1
        if _dot(image, params.image_sizes) != weight:
            failure = f"weight changed on {source}"
            break
        witness = image.witness
        if any((c - witness) % r for c, r in zip(image.counts, params.r)):
            failure = f"congruence witness failed on {source}"
            break
        key = (image.counts, image.joint)
        if key in seen:
            failure = f"image collision at {key}"
            break
        seen.add(key)
        if invert(image, params) != source:
            failure = f"round-trip failed on {source}"
            break
    if failure is None:
        unrestricted = reciprocal_from_exponents(params.image_sizes, max_weight)
        for weight in range(max_weight + 1):
            if per_weight[weight] > unrestricted.coeff(weight):
                failure = f"source count exceeds dominant count at weight {weight}"
                break
    return {
        "max_weight": max_weight,
        "source_count": source_count,
        "ok": failure is None,
        "failure": failure,
    }


def walk_injection_evidence(params: ProposalParams, max_weight: int) -> dict:
    """The package's injection walk as it was before prefix runs: one vector at a time.

    Every (counts, joint, weight) comes from `_bounded_vectors` and goes
    through `proposal._inject`, the weight check, the congruence check and
    `proposal._invert`, looked up when called, so a test that patches one
    of them patches both walks.  The failure strings are the package's.
    """
    rs, image_sizes = params.r, params.image_sizes
    failure = None
    per_weight = [0] * (max_weight + 1)
    source_count = 0
    for counts, joint, weight in _bounded_vectors(params.source_sizes, max_weight):
        source_count += 1
        per_weight[weight] += 1
        image_counts, image_joint = proposal._inject(counts, joint, rs)
        if sum(c * s for c, s in zip(image_counts, image_sizes)) + image_joint * image_sizes[-1] != weight:
            failure = f"weight changed on counts={counts}, joint={joint}"
            break
        if any((c - joint) % r for c, r in zip(image_counts, rs)):
            failure = f"congruence witness failed on counts={counts}, joint={joint}"
            break
        if proposal._invert(image_counts, image_joint, rs) != (counts, joint):
            failure = f"round-trip failed on counts={counts}, joint={joint}"
            break
    if failure is None:
        unrestricted = reciprocal_from_exponents(image_sizes, max_weight)
        for weight in range(max_weight + 1):
            if per_weight[weight] > unrestricted.coeff(weight):
                failure = f"source count exceeds dominant count at weight {weight}"
                break
    return {
        "max_weight": max_weight,
        "source_count": source_count,
        "ok": failure is None,
        "failure": failure,
    }
