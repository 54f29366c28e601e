"""Generalized product pairs: the single-layer injection and its evidence.

For n part sizes x_(1..n) with multipliers r_(1..n), the dominant product runs
over {x_(1), ..., x_(n), Sigma} and the subordinate one over
{r_(1)x_(1), ..., r_(n)x_(n), sigma}, where Sigma is the multiplied sum and
sigma the plain sum.  With a single layer (L = 1) the subordinate partitions
inject weight-preservingly into the dominant ones -- `_inject` and `_invert`
realize that map and its inverse on multiplicity tuples, and
`injection_evidence` exercises it exhaustively up to a weight.  For three and
four sizes the difference of reciprocals also splits through the auxiliary
series `h_series`, whose 19-addend transcription is checksummed by
`fourvar_identity`.
`check_proposal` runs the coefficientwise comparison for arbitrary n and
labels how strong the supporting argument is.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul

from .dominance import NamedInequality, check_named, nbase_pair, report_dict
from .series import (
    QSeries,
    divide_binomial,
    multiply_binomial,
    positive_ints,
    reciprocal_from_exponents,
    series_add,
    series_mul,
    series_scale,
    series_sub,
    spec_reciprocal_pair,
)

SIXTH = Fraction(1, 6)

DEFAULT_INJECTION_BOUND = 24


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
    return tuple([r * (c - mu_prime) + joint for r, c in zip(rs, counts)]), mu_prime


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


def _ratio_block(e: int, k: int, order: int) -> QSeries:
    """q^e (1 - q^((k-1)e)) / ((1 - q^e)(1 - q^(ke))); zero when k == 1."""
    out = QSeries.monomial(e, order)
    out = multiply_binomial(out, (k - 1) * e)
    out = divide_binomial(out, e)
    return divide_binomial(out, k * e)


def _geometric(e: int, order: int) -> QSeries:
    """q^e / (1 - q^e)."""
    return divide_binomial(QSeries.monomial(e, order), e)


def h_series(params, order: int) -> QSeries:
    """The nonnegative three-size splitting series, summed exactly.

    Nineteen addends with weights 1, 1/2, and 1/3 over the ratio blocks
    A(e, k) = q^e(1-q^((k-1)e)) / ((1-q^e)(1-q^(ke))) and geometric tails
    G(e) = q^e/(1-q^e): the top block A(x,r)A(y,R)A(z,rho); the three pair
    products and six block-times-tail products at weight 1/2; the three lone
    blocks at weight 1/3; and the six triple products at weight 1.  Everything
    is accumulated six-fold in integers and divided once at the end.
    """
    x, y, z, r, R, rho = positive_ints(params, "h parameters", 6)
    ax = _ratio_block(x, r, order)
    ay = _ratio_block(y, R, order)
    az = _ratio_block(z, rho, order)
    gx = _geometric(r * x, order)
    gy = _geometric(R * y, order)
    gz = _geometric(rho * z, order)
    weighted = (
        (6, (ax, ay, az)),
        (3, (ax, ay)),
        (3, (ay, az)),
        (3, (ax, az)),
        (3, (ax, gy)),
        (3, (ax, gz)),
        (3, (ay, gz)),
        (3, (ay, gx)),
        (3, (az, gy)),
        (3, (az, gx)),
        (2, (ax,)),
        (2, (ay,)),
        (2, (az,)),
        (6, (ax, ay, gz)),
        (6, (ax, az, gy)),
        (6, (ay, az, gx)),
        (6, (ax, gy, gz)),
        (6, (ay, gx, gz)),
        (6, (az, gy, gx)),
    )
    total = QSeries.zero(order)
    for weight, factors in weighted:
        term = factors[0]
        for factor in factors[1:]:
            term = series_mul(term, factor)
        total = series_add(total, series_scale(term, weight))
    return series_scale(total, SIXTH)


def fourvar_identity(params, order: int) -> dict:
    """Check the four-size single-layer splitting; the transcription checksum.

    The difference of the two five-factor reciprocals must equal the sum of
    the four h series (one per omitted size) divided by the two composite
    binomials.
    """
    x, y, z, w, r, R, rho, P = positive_ints(params, "fourvar parameters", 8)
    dominant, subordinate = nbase_pair((x, y, z, w), (r, R, rho, P), 1, 1)
    lhs = series_sub(*spec_reciprocal_pair(dominant, subordinate, order))
    total = h_series((x, y, z, r, R, rho), order)
    total = series_add(total, h_series((x, y, w, r, R, P), order))
    total = series_add(total, h_series((x, z, w, r, rho, P), order))
    total = series_add(total, h_series((y, z, w, R, rho, P), order))
    rhs = divide_binomial(
        divide_binomial(total, subordinate.bases[-1]), dominant.bases[-1]
    )
    mismatch = next(
        (n for n, c in enumerate(series_sub(lhs, rhs).coeffs) if c != 0), None
    )
    return {
        "params": (x, y, z, w, r, R, rho, P),
        "order": order,
        "equal": mismatch is None,
        "witness": None
        if mismatch is None
        else {"exponent": mismatch, "lhs": lhs.coeff(mismatch), "rhs": rhs.coeff(mismatch)},
    }


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
    counts.  A failure names the source's counts and joint count.
    """
    failure = None
    rs, image_sizes = params.r, params.image_sizes
    per_weight = [0] * (max_weight + 1)
    source_count = 0
    for counts, joint, weight in _bounded_vectors(params.source_sizes, max_weight):
        source_count += 1
        per_weight[weight] += 1
        image_counts, image_joint = _inject(counts, joint, rs)
        if sum(map(mul, image_counts, image_sizes)) + image_joint * image_sizes[-1] != weight:
            failure = f"weight changed on counts={counts}, joint={joint}"
            break
        if any([(c - joint) % r for c, r in zip(image_counts, rs)]):
            failure = f"congruence witness failed on counts={counts}, joint={joint}"
            break
        if _invert(image_counts, image_joint, rs) != (counts, joint):
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
