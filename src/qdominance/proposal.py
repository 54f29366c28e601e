"""Generalized product pairs: the single-layer injection and its evidence.

For n part sizes x_(1..n) with multipliers r_(1..n), the dominant product runs
over {x_(1), ..., x_(n), Sigma} and the subordinate one over
{r_(1)x_(1), ..., r_(n)x_(n), sigma}, where Sigma is the multiplied sum and
sigma the plain sum.  With a single layer (L = 1) the subordinate partitions
inject weight-preservingly into the dominant ones -- `_inject` and `_invert`
realize that map and its inverse on multiplicity tuples, and
`injection_evidence` exercises it exhaustively up to a weight.  Its walk
takes the sources as prefix runs: each prefix of counts that fits the
weight (`_count_prefixes`), then that prefix's joint counts 0, 1, ... as
a range, which is lexicographic order of (counts, joint).  Every source
of a run still goes through `_inject`, the weight check, the congruence
check and `_invert` on its own, so the first failure names the same
source as a source-by-source walk.  For three and
four sizes the difference of reciprocals also splits through the auxiliary
series `h_series`, and the `four-variable-splitting` row of `IDENTITIES`
certifies that splitting for four sizes once for every tuple.
`check_proposal` runs the coefficientwise comparison for arbitrary n and
labels how strong the supporting argument is.

Each of the nineteen addends of h multiplies, per size, a block A(e, k), a
tail G(ke) or nothing, and each of these is q^lead times binomials over the
size's two denominators (1 - q^e)(1 - q^(ke)).  So 6h is one numerator, a
weighted list of pieces q^lead * prod (1 - q^b) over the six denominators,
and `_h_numerator` writes it once over the sizes e and the scaled sizes ke,
every exponent a sum or difference of them.  It is read two ways, like the
split numerators in `antitelescope`.  `h_series` reads it with ints and
packs it (`series._Signed`); the series is bounded coefficientwise by the
numerator's L1 norm times the reciprocal of the six denominators, which
fixes the slot width before anything is packed.  `fourvar_identity_sides`
reads it with unit forms (`polyring._Form`), so each size and scaled size
is a free variable, and states that 6/P - 6/Q is the sum of the four 6h,
one per omitted size, over their six denominators and the two composite
binomials; `polyring.decide_identity` checks it exactly.  Substituting
q-powers is a ring homomorphism, so that one identity holds for every
tuple and order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from operator import mul

from .dominance import NamedInequality, check_named, nbase_pair, report_dict
from .polyring import RationalTerm, _Form, from_pieces
from .series import (
    QSeries,
    ResourceError,
    _Signed,
    positive_ints,
    ratio,
    reciprocal_from_exponents,
    require_series_work,
)

DEFAULT_INJECTION_BOUND = 24

# Most sources one injection walk may visit.  The largest walk the tests and
# benchmarks make has about 1.8e5 sources; eight unit sizes up to weight 24
# would have about 1.1e7.
MAX_INJECTION_SOURCES = 10**6


class NotInImageError(ValueError):
    """Raised when a count vector cannot be pulled back through the injection."""


@dataclass(frozen=True)
class ProposalParams:
    """Part sizes x and multipliers r, one of each per variable."""

    x: tuple[int, ...]
    r: tuple[int, ...]

    def __post_init__(self) -> None:
        positive_ints(self.x, "x")
        positive_ints(self.r, "r", len(self.x))

    @property
    def n(self) -> int:
        return len(self.x)

    @cached_property
    def image_sizes(self) -> tuple[int, ...]:
        """Part sizes on the dominant side: each x_(i), then Sigma."""
        # the bases do not depend on the modulus and length
        return nbase_pair(self.x, self.r, 1, 1)[0].bases

    @cached_property
    def source_sizes(self) -> tuple[int, ...]:
        """Part sizes on the subordinate side: each r_(i)x_(i), then sigma."""
        return nbase_pair(self.x, self.r, 1, 1)[1].bases


def proposal_params(x, r) -> ProposalParams:
    return ProposalParams(tuple(x), tuple(r))


def _inject(counts: tuple[int, ...], joint: int, rs: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """The injection on plain tuples: (image counts, image joint count).

    The composite count becomes the minimum mu' of the per-variable counts;
    each variable count becomes r_(i)*(count - mu') plus the old composite
    count, which also serves as the congruence witness A.
    """
    mu_prime = min(counts)
    out = []  # a plain loop: once per source and at n <= 3 it is cheaper than a comprehension
    for r, c in zip(rs, counts):
        out.append(r * (c - mu_prime) + joint)
    return tuple(out), mu_prime


def _invert(counts: tuple[int, ...], joint: int, rs: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """The pull-back on plain tuples; NotInImageError off the image.

    Every count must be congruent to the minimum count mu modulo its r_(i);
    then the composite count of the preimage is mu and the variable counts
    are the quotients shifted by the composite count of the image.
    """
    mu = min(counts)
    out = []
    for r, c in zip(rs, counts):
        offset = c - mu
        if offset % r:
            raise NotInImageError(
                f"count {c} is not congruent to the minimum {mu} modulo {r}"
            )
        out.append(offset // r + joint)
    return tuple(out), mu


def _count_prefixes(sizes: tuple[int, ...], budget: int) -> list[tuple[tuple[int, ...], int]]:
    """(counts, weight) for every count vector over `sizes` of weight <= budget.

    The prefixes come in lexicographic order of counts.
    """
    prefixes = [((), 0)]
    for size in sizes:
        prefixes = [
            (counts + (c,), weight + c * size)
            for counts, weight in prefixes
            for c in range((budget - weight) // size + 1)
        ]
    return prefixes


def _source_failure(counts, joint: int, weight: int, rs, image_sizes) -> str | None:
    """The first check the source (counts, joint) of this weight fails, or None.

    Its image must keep the weight and carry the congruence witness (the
    source's joint count), and `_invert` must bring it back to the source.
    """
    image_counts, image_joint = _inject(counts, joint, rs)
    if sum(map(mul, image_counts, image_sizes)) + image_joint * image_sizes[-1] != weight:
        return "weight changed"
    for c, r in zip(image_counts, rs):
        if (c - joint) % r:
            return "congruence witness failed"
    if _invert(image_counts, image_joint, rs) != (counts, joint):
        return "round-trip failed"
    return None


def _walk_sources(params: ProposalParams, max_weight: int) -> tuple[int, list[int], str | None]:
    """(sources visited, sources per weight, first failure) of the injection walk.

    The sources come as prefix runs: each count prefix, then its joint
    counts 0, 1, ... while the weight fits, which is lexicographic order of
    (counts, joint).  Every source is checked on its own, and the walk stops
    at the first failure.
    """
    rs, image_sizes, sizes = params.r, params.image_sizes, params.source_sizes
    last = sizes[-1]
    per_weight = [0] * (max_weight + 1)
    source_count = 0
    for counts, prefix_weight in _count_prefixes(sizes[:-1], max_weight):
        for joint in range((max_weight - prefix_weight) // last + 1):
            source_count += 1
            weight = prefix_weight + joint * last
            per_weight[weight] += 1
            failed = _source_failure(counts, joint, weight, rs, image_sizes)
            if failed is not None:
                return source_count, per_weight, f"{failed} on counts={counts}, joint={joint}"
    return source_count, per_weight, None


# The nineteen addends of h, each a product of at most one factor per size:
# "A" its block, "G" its tail and "-" an absent size, in (x, y, z) order, with
# the addend's weight times 6.
_H_ADDENDS = (
    (6, "AAA"),
    (3, "AA-"),
    (3, "-AA"),
    (3, "A-A"),
    (3, "AG-"),
    (3, "A-G"),
    (3, "-AG"),
    (3, "GA-"),
    (3, "-GA"),
    (3, "G-A"),
    (2, "A--"),
    (2, "-A-"),
    (2, "--A"),
    (6, "AAG"),
    (6, "AGA"),
    (6, "GAA"),
    (6, "AGG"),
    (6, "GAG"),
    (6, "GGA"),
)


def _h_numerator(sizes, scaled) -> list:
    """6h as pieces (weight, lead, binomials) over three sizes e and their scaled sizes s = ke.

    Over the size's two denominators (1 - q^e)(1 - q^s), its block is
    q^e (1 - q^(s - e)), its tail q^s (1 - q^e) and its absence
    (1 - q^e)(1 - q^s); an addend multiplies one of each per size.
    """
    factors = [{"A": (e, (s - e,)), "G": (s, (e,)), "-": (e - e, (e, s))} for e, s in zip(sizes, scaled)]
    pieces = []
    for weight, code in _H_ADDENDS:
        leads, binomials = zip(*(size[c] for size, c in zip(factors, code)))
        pieces.append((weight, sum(leads[1:], leads[0]), sum(binomials, ())))
    return pieces


def h_series(params, order: int) -> QSeries:
    """The nonnegative three-size splitting series, summed exactly.

    Nineteen addends with weights 1, 1/2, and 1/3 over the ratio blocks
    A(e, k) = q^e(1-q^((k-1)e)) / ((1-q^e)(1-q^(ke))) and geometric tails
    G(e) = q^e/(1-q^e): the top block A(x,r)A(y,R)A(z,rho); the three pair
    products and six block-times-tail products at weight 1/2; the three lone
    blocks at weight 1/3; and the six triple products at weight 1.  6h is
    one packed numerator over the six denominators, divided by 6 once read.
    """
    x, y, z, r, R, rho = positive_ints(params, "h parameters", 6)
    sizes, scaled = (x, y, z), (r * x, R * y, rho * z)
    pieces = _h_numerator(sizes, scaled)
    denominators = sizes + scaled
    # each binomial product has L1 norm at most 2^(its length)
    packing = _Signed.for_bound(denominators, order, sum(w * 2 ** len(b) for w, _, b in pieces))
    d = packing.divide(1, denominators)
    six_h = sum(weight * packing.times_pieces(d, [(lead, binomials)]) for weight, lead, binomials in pieces)
    return QSeries.from_coeffs([ratio(c, 6) for c in packing.decode(six_h).coeffs], order)


def fourvar_identity_sides() -> list[tuple[list[RationalTerm], list[RationalTerm]]]:
    """[(6/P - 6/Q, the four 6h over their denominators)] over (x, y, z, w, a, b, c, d).

    x..w are the q-powers of the sizes and a..d those of the scaled sizes;
    P runs over x..w and Sigma = abcd, Q over a..d and sigma = xyzw.  Each
    6h is `_h_numerator` at unit forms, over its three sizes' six
    denominators and the two composite binomials (1 - sigma)(1 - Sigma).
    The pair is equal, so the four-size single-layer splitting holds
    exactly for every tuple and every order.
    """
    variables = (*"xyzw", *"abcd")
    zero = _Form((0,) * len(variables))
    units = _Form.units(len(variables))
    sizes, scaled = units[:4], units[4:]
    sigma, Sigma = sum(sizes, zero), sum(scaled, zero)
    factor = {e: from_pieces(variables, [(1, zero, [e])]) for e in (*units, sigma, Sigma)}

    def over(numerator, exponents) -> RationalTerm:
        return RationalTerm(from_pieces(variables, numerator), tuple(factor[e] for e in exponents))

    lhs = [over([(6, zero, [])], (*sizes, Sigma)), over([(-6, zero, [])], (*scaled, sigma))]
    rhs = []
    for kept in combinations(zip(sizes, scaled), 3):
        own, own_scaled = zip(*kept)
        rhs.append(over(_h_numerator(own, own_scaled), (*own, *own_scaled, sigma, Sigma)))
    return [(lhs, rhs)]


# The all-parameter identities of this module, as (name, sides) rows; see `polyring.decide_identity`.
IDENTITIES = (("four-variable-splitting", fourvar_identity_sides),)


def proposal_status(n: int, L: int) -> str:
    """How strongly the n-variable, L-layer comparison is supported."""
    if n <= 3:
        return "theorem"
    if L == 1:
        return "proved-L1"
    return "conjecture-evidence"


def injection_evidence(params: ProposalParams, max_weight: int) -> dict:
    """Exhaustively exercise the injection on all sources up to max_weight.

    Verifies weight preservation, the congruence witness, the inverse
    round-trip (which implies that images are pairwise distinct), and that
    per-weight source counts stay below the unrestricted dominant-side
    counts.  A failure names the source's counts and joint count.  The
    sources are counted first, as the coefficients of the source-side
    reciprocal, and more than MAX_INJECTION_SOURCES raise ResourceError
    before any vector is built, as does a weight over the series work
    bound, before the count.
    """
    image, source = require_series_work(nbase_pair(params.x, params.r, 1, 1), max_weight)
    planned = sum(reciprocal_from_exponents(source, max_weight).coeffs)
    if planned > MAX_INJECTION_SOURCES:
        raise ResourceError(
            f"{planned} injection sources up to weight {max_weight} exceed the bound {MAX_INJECTION_SOURCES}"
        )
    source_count, per_weight, failure = _walk_sources(params, max_weight)
    if failure is None:
        unrestricted = reciprocal_from_exponents(image, max_weight)
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


def check_proposal(
    params: ProposalParams,
    m: int,
    L: int,
    order: int,
) -> dict:
    """Coefficientwise comparison for one generalized tuple, with provenance.

    Delegates the series check to the named-inequality machinery; when L == 1
    it additionally runs the exhaustive injection evidence up to
    min(order, DEFAULT_INJECTION_BOUND).
    """
    inequality = NamedInequality(
        "Proposal", {"L": L, "m": m, "xs": params.x, "rs": params.r}
    )
    report = check_named(inequality, order)
    result = {
        "status": proposal_status(params.n, L),
        "holds": report.holds,
        "report": report_dict(
            report,
            inequality="Proposal",
            parameters={"L": L, "m": m, "xs": list(params.x), "rs": list(params.r)},
        ),
        "injection": None,
    }
    if L == 1:
        result["injection"] = injection_evidence(params, min(order, DEFAULT_INJECTION_BOUND))
    return result
