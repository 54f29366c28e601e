"""The benchmark's four workloads as seeded rounds of requests.

A workload is an endless sequence of rounds.  Round k is built from
``random.Random(seed * 1_000_003 + k)`` and holds the same fixed set of
request slots every time; the seed picks the free parameters of each
slot and the order of the slots inside the round.  Keeping the slot set
fixed keeps the work per round nearly independent of the seed, so runs
with different seeds are comparable.

Every request carries the outcome the oracle expects for it and the input
properties that the run reports (orders, split points, coefficient bits).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import oracle

# (m, x, y, r, R, L) tuples of the release gate's partition interpretation check.
INTERPRETATION_TUPLES = (
    (5, 1, 1, 2, 2, 2),
    (3, 1, 2, 2, 2, 1),
    (4, 2, 3, 1, 2, 2),
    (3, 2, 2, 3, 1, 1),
    (6, 1, 3, 2, 1, 2),
    (3, 3, 3, 2, 2, 2),
    (2, 1, 2, 3, 3, 1),
    (4, 1, 1, 4, 4, 2),
    (5, 2, 3, 2, 3, 1),
    (10, 1, 1, 2, 2, 3),
    (4, 2, 2, 2, 2, 2),
    (2, 2, 1, 3, 2, 3),
)


@dataclass
class Request:
    """One CLI invocation (argv) or one library call (call), with its oracle facts."""

    kind: str
    argv: tuple[str, ...] = ()
    call: tuple = ()
    expect: dict = field(default_factory=dict)
    props: dict = field(default_factory=dict)


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _bits(counts) -> int:
    return max(c.bit_length() for c in counts)


# --- split-certify -----------------------------------------------------------


def _split_sweep(rng: random.Random, ineq: str, L: int, order: int, span: int) -> Request:
    """Thm1 box over r, R or Thm2 box over R, rho; the rest comes from the seed."""
    fixed = ("m", "x", "y") if ineq == "Thm1" else ("m", "x", "y", "z", "r")
    swept = ("r", "R") if ineq == "Thm1" else ("R", "rho")
    point = {"L": L, **{name: rng.randint(1, 4) for name in fixed}}
    box = ",".join(
        [f"{name}={value}:{value}" for name, value in point.items()]
        + [f"{name}=1:{span}" for name in swept]
    )
    points = [
        {**point, swept[0]: a, swept[1]: b}
        for a in range(1, span + 1)
        for b in range(1, span + 1)
    ]
    failing = sum(oracle.dominance_failure(ineq, p, order) is not None for p in points)
    return Request(
        kind=f"{ineq}-L{L}",
        argv=("sweep", "--kind", "split", "--ineq", ineq, "--order", str(order), "--box", box),
        expect={"exit": 1 if failing else 0, "total": len(points), "passed": len(points) - failing},
        props={
            "order": order,
            "split_points": len(points),
            "split_points_L2": len(points) if L >= 2 else 0,
            "rational_points": len(points) if ineq == "Thm2" else 0,
        },
    )


def split_certify(rng: random.Random, toy: bool) -> list[Request]:
    """Thm1 and Thm2 split boxes over L in 1..4, alternating Thm1/Thm2.

    The L mix is set for a request set of three rounds (42 requests).  The
    median falls inside the cluster of the Thm1 L = 4 and Thm2 L = 2 boxes,
    which cost about the same.  Above it are the three Thm2 L = 4 boxes and
    the twelve Thm2 L = 3 boxes, so the tail, the eleventh latency from the
    top, is the middle of one request kind.
    """
    order, span, lengths = (20, 2, ((1, 2), (1, 2))) if toy else (
        60, 4, ((1, 2, 3, 3, 4, 4, 4), (1, 2, 3, 3, 3, 3, 4))
    )
    thm1 = [_split_sweep(rng, "Thm1", L, order, span) for L in lengths[0]]
    thm2 = [_split_sweep(rng, "Thm2", L, order, span) for L in lengths[1]]
    rng.shuffle(thm1)
    rng.shuffle(thm2)
    return [req for pair in zip(thm1, thm2) for req in pair]


# --- dominance-deep ----------------------------------------------------------


def _check(slot: str, ineq: str, params: dict, order: int) -> Request:
    counts = oracle.reciprocal_counts(ineq, params, order)
    failure = oracle.first_deficit(*counts)
    if ineq == "Proposal":
        values = [params["L"], params["m"], *params["xs"], *params["rs"]]
    else:
        values = list(params.values())
    argv = ("check", "--ineq", ineq, "--order", str(order))
    if values:
        argv += ("--params", _csv(values))
    witness = None if failure is None else {"exponent": failure[0], "deficit": failure[1]}
    return Request(
        kind=slot,
        argv=argv,
        expect={"exit": 1 if failure else 0, "witness": witness},
        props={"order": order, "coeff_bits": max(_bits(c) for c in counts)},
    )


def _bga_pair(rng: random.Random, divisible: bool) -> tuple[int, int]:
    """(m, r) with 1 < r < m-1 whose residues r, m-r do or do not divide each other."""
    while True:
        m = rng.randint(5, 12)
        r = rng.randint(2, m - 2)
        if ((m - r) % r == 0 or r % (m - r) == 0) == divisible:
            return m, r


# (slot, inequality, L band, order band): each band is narrow so that a
# slot's cost hardly depends on the seed; together they span L 20..120 and
# orders 800..1500.  In a request set of four rounds (32 requests), the
# BGa-L110 and RR boxes are the eight slowest; the other six slots cost
# about the same, so both the median and the tail (the eleventh latency from
# the top) fall inside that one cluster of requests rather than in a gap.
DEEP_SLOTS = (
    ("RR", "RR", None, (800, 850)),
    ("BGa-L60", "BGa", (60, 66), (1400, 1500)),
    ("BGa-L110", "BGa", (110, 120), (1300, 1400)),
    ("BGa-divisible", "BGa", (80, 90), (1000, 1100)),
    ("Thm2-L30", "Thm2", (30, 33), (1400, 1500)),
    ("Thm2-L55", "Thm2", (55, 60), (800, 850)),
    ("Proposal-n4", "Proposal", (20, 22), (1400, 1500)),
    ("Proposal-n5", "Proposal", (28, 30), (1000, 1100)),
)


def dominance_deep(rng: random.Random, toy: bool) -> list[Request]:
    """Long reciprocal expansions: RR, BGa (one divisible, failing), Thm2, 4/5-base Proposal."""
    scale = 0.1 if toy else 1.0
    requests = []
    for slot, ineq, lengths, orders in DEEP_SLOTS:
        order = int(rng.randint(*orders) * scale)
        L = max(1, int(rng.randint(*lengths) * scale)) if lengths else None
        if ineq == "RR":
            params = {}
        elif ineq == "BGa":
            m, r = _bga_pair(rng, divisible=slot.endswith("divisible"))
            params = {"m": m, "r": r, "L": L}
        elif ineq == "Thm2":
            names = ("m", "x", "y", "z", "r", "R", "rho")
            params = {"L": L, **{name: rng.randint(1, 4) for name in names}}
        else:
            n = int(slot[-1])
            params = {
                "L": L,
                "m": rng.randint(1, 4),
                "xs": tuple(rng.randint(1, 3) for _ in range(n)),
                "rs": tuple(rng.randint(1, 3) for _ in range(n)),
            }
        requests.append(_check(slot, ineq, params, order))
    rng.shuffle(requests)
    return requests


# --- kernel-lemma ------------------------------------------------------------


def _bounds(rng: random.Random, nt: tuple[int, int], nxy: tuple[int, int]) -> str:
    side = rng.randint(*nxy)
    return _csv((rng.randint(*nt), side, side))


def kernel_lemma(rng: random.Random, toy: bool) -> list[Request]:
    """Lemma kernel checks at varied bounds, small lemma sweeps, identity certification.

    Eleven lemma requests, eight sweeps and one slow identities request per
    round: the median falls among the lemma requests, and the tail is the
    middle of the identities requests.
    """
    lemma_nt, lemma_nxy, sweep_nt, sweep_nxy = (
        ((2, 3), (6, 8), (2, 2), (4, 6)) if toy else ((9, 11), (36, 44), (5, 7), (20, 28))
    )
    requests = []
    for _ in range(11):
        r, R = rng.randint(1, 5), rng.randint(1, 5)
        bounds = _bounds(rng, lemma_nt, lemma_nxy)
        requests.append(
            Request(
                kind="lemma",
                argv=("lemma", "--r", str(r), "--R", str(R), "--bounds", bounds),
                expect={"exit": 0},
            )
        )
    for _ in range(8):
        r, R = rng.randint(1, 4), rng.randint(1, 5)
        box = f"r={r}:{r + 1},R={R}:{R}"
        bounds = _bounds(rng, sweep_nt, sweep_nxy)
        requests.append(
            Request(
                kind="sweep-lemma",
                argv=("sweep", "--kind", "lemma", "--box", box, "--bounds", bounds),
                expect={"exit": 0, "total": 2, "passed": 2},
            )
        )
    argv = ("identities", "--seed", str(rng.randint(0, 10**6)))
    if toy:
        argv += ("--order", "6")
    requests.append(Request(kind="identities", argv=argv, expect={"exit": 0}))
    rng.shuffle(requests)
    return requests


# --- partitions-inject -------------------------------------------------------


def _sized_weight(rng: random.Random, band: tuple[int, int], cumulative: bool, weights: range):
    """A seeded (tuple, weight) pair whose oracle work measure lies in the band:
    partitions of weight <= n (cumulative) or of weight exactly n."""
    lo, hi = band
    candidates = []
    for values in INTERPRETATION_TUPLES:
        counts = oracle.colored_counts(values, weights[-1])
        for n in weights:
            measure = sum(counts[: n + 1]) if cumulative else counts[n]
            if lo <= measure <= hi:
                candidates.append((values, n, measure))
    return rng.choice(candidates)


def _injection(rng: random.Random, slot: str, lo: int, hi: int, max_weight: int) -> Request:
    """Size and multiplier vectors (n <= 3, entries <= 3) with a source count in [lo, hi]."""
    while True:
        n = rng.randint(1, 3)
        xs = tuple(rng.randint(1, 3) for _ in range(n))
        rs = tuple(rng.randint(1, 3) for _ in range(n))
        sources = oracle.source_count(xs, rs, max_weight)
        if lo <= sources <= hi:
            return Request(
                kind=slot,
                call=("injection_evidence", xs, rs, max_weight),
                expect={"source_count": sources},
            )


# (slot, request kind, work measure, full-size band, toy band, requests per
# round).  The measure is the oracle's count of colored partitions of weight
# <= n ("visited", what counting and listing walk), of weight exactly n
# ("listed") or of injection sources; the seed picks each request so that its
# measure lies in the band.  In a request set of three rounds (48 requests),
# the median falls inside the twelve injection-large requests, whose cost
# follows their source count closely.
PARTITION_SLOTS = (
    ("injection-small", "injection", "sources", (100, 300), (5, 15), 2),
    ("injection-mid", "injection", "sources", (1000, 1500), (15, 40), 2),
    ("injection-large", "injection", "sources", (3000, 4000), (40, 100), 4),
    ("enumerate-small", "enumerate", "listed", (500, 1000), (10, 50), 2),
    ("enumerate-large", "enumerate", "listed", (7000, 9000), (50, 200), 1),
    ("interpret-small", "interpret-check", "visited", (12000, 18000), (100, 300), 3),
    ("interpret-large", "interpret-check", "visited", (35000, 50000), (300, 1000), 2),
)


def partitions_inject(rng: random.Random, toy: bool) -> list[Request]:
    """Restricted counting, listing and injection evidence, each sized by its oracle count."""
    weights, max_weight = (range(6, 13), 12) if toy else (range(16, 27), 40)
    requests = []
    for slot, kind, measure, full, small, copies in PARTITION_SLOTS:
        band = small if toy else full
        for _ in range(copies):
            if kind == "injection":
                requests.append(_injection(rng, slot, *band, max_weight))
                continue
            values, n, count = _sized_weight(rng, band, measure == "visited", weights)
            if kind == "enumerate":
                argv = ("enumerate", "--params", _csv(values), "--n", str(n))
                expect, props = {"exit": 0, "count": count}, {"listed": count}
            else:
                argv = ("interpret-check", "--params", _csv(values), "--max-n", str(n))
                expect, props = {"exit": 0, "rows": n + 1}, {"visited": count}
            requests.append(Request(kind=slot, argv=argv, expect=expect, props=props))
    rng.shuffle(requests)
    return requests


# Nominal seconds per full-size round (2-CPU Xeon VM while quiet, Python
# 3.11, seed code).  They turn --seconds into a fixed number of rounds or
# passes, so that the work a run measures depends only on its flags.
ROUND_SECONDS = {
    "split-certify": 1.3,
    "dominance-deep": 1.0,
    "kernel-lemma": 1.2,
    "partitions-inject": 1.2,
}

WORKLOADS = {
    "split-certify": split_certify,
    "dominance-deep": dominance_deep,
    "kernel-lemma": kernel_lemma,
    "partitions-inject": partitions_inject,
}


def make_round(workload: str, seed: int, k: int, toy: bool = False) -> list[Request]:
    """Round k of a workload; the same (workload, seed, k, toy) gives the same requests."""
    return WORKLOADS[workload](random.Random(seed * 1_000_003 + k), toy)
