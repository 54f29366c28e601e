"""Generalized product pairs: the single-layer injection and its evidence.

For n part sizes x_(1..n) with multipliers r_(1..n), the dominant product runs
over {x_(1), ..., x_(n), Sigma} and the subordinate one over
{r_(1)x_(1), ..., r_(n)x_(n), sigma}, where Sigma is the multiplied sum and
sigma the plain sum.  With a single layer (L = 1) the subordinate partitions
inject weight-preservingly into the dominant ones -- `inject` and `invert`
realize that map on multiplicity vectors.  For three and four sizes the
difference of reciprocals also splits through the auxiliary series `h_series`,
whose 19-addend transcription is checksummed by `fourvar_identity`.
`check_proposal` runs the coefficientwise comparison for arbitrary n and
labels how strong the supporting argument is.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .dominance import NamedInequality, check_named, nbase_pair, report_dict
from .series import (
    QSeries,
    divide_binomial,
    first_negative,
    multiply_binomial,
    positive_ints,
    reciprocal_from_exponents,
    series_add,
    series_mul,
    series_scale,
    series_sub,
    spec_reciprocal,
)

SIXTH = Fraction(1, 6)

PROPOSAL_STATUSES = ("theorem", "proved-L1", "conjecture-evidence")

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

    @property
    def weighted_sum(self) -> int:
        return self.image_sizes[-1]

    @property
    def plain_sum(self) -> int:
        return self.source_sizes[-1]

    def source_weight(self, vector: "CountVector") -> int:
        return _dot(vector, self.source_sizes)

    def image_weight(self, vector: "CountVector") -> int:
        return _dot(vector, self.image_sizes)


def proposal_params(x, r) -> ProposalParams:
    return ProposalParams(tuple(x), tuple(r))


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
        if not self.counts or any(
            not isinstance(c, int) or c < 0 for c in self.counts
        ):
            raise ValueError(
                f"counts must be nonempty nonnegative integers, got {self.counts!r}"
            )
        if not isinstance(self.joint, int) or self.joint < 0:
            raise ValueError(f"joint count must be >= 0, got {self.joint!r}")

    @property
    def minimum(self) -> int:
        return min(self.counts)


def _dot(vector: CountVector, sizes: tuple[int, ...]) -> int:
    if len(vector.counts) + 1 != len(sizes):
        raise ValueError(
            f"vector has {len(vector.counts)} counts but {len(sizes) - 1} sizes"
        )
    return sum(c * s for c, s in zip(vector.counts, sizes)) + vector.joint * sizes[-1]


def inject(pi_prime: CountVector, params: ProposalParams) -> CountVector:
    """Map a subordinate-side vector to its dominant-side image.

    The composite count becomes the minimum mu' of the per-variable counts;
    each variable count becomes r_(i)*(count - mu') plus the old composite
    count, which also serves as the congruence witness A.  Weight is
    preserved.
    """
    if len(pi_prime.counts) != params.n:
        raise ValueError(f"expected {params.n} counts, got {len(pi_prime.counts)}")
    mu_prime = pi_prime.minimum
    counts = tuple(
        r * (c - mu_prime) + pi_prime.joint
        for r, c in zip(params.r, pi_prime.counts)
    )
    return CountVector(counts, mu_prime, witness=pi_prime.joint)


def invert(pi: CountVector, params: ProposalParams) -> CountVector:
    """Pull a dominant-side vector back; fails off the injection's image.

    Every count must be congruent to the minimum count mu modulo its r_(i);
    then the composite count of the preimage is mu and the variable counts
    are the quotients shifted by the composite count of pi.
    """
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


def _bounded_vectors(sizes: tuple[int, ...], budget: int):
    if not sizes:
        yield ()
        return
    for count in range(budget // sizes[0] + 1):
        for tail in _bounded_vectors(sizes[1:], budget - count * sizes[0]):
            yield (count,) + tail


def source_vectors(params: ProposalParams, max_weight: int):
    """All subordinate-side vectors of weight <= max_weight."""
    for values in _bounded_vectors(params.source_sizes, max_weight):
        yield CountVector(values[:-1], values[-1])


def image_vectors(params: ProposalParams, max_weight: int):
    """All dominant-side vectors of weight <= max_weight."""
    for values in _bounded_vectors(params.image_sizes, max_weight):
        yield CountVector(values[:-1], values[-1])


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


def h_scan(params, order: int) -> dict:
    """Positivity report for one h tuple."""
    negative = first_negative(h_series(params, order))
    return {
        "params": tuple(params),
        "order": order,
        "first_negative": negative,
        "nonnegative": negative is None,
    }


def fourvar_identity(params, order: int) -> dict:
    """Check the four-size single-layer splitting; the transcription checksum.

    The difference of the two five-factor reciprocals must equal the sum of
    the four h series (one per omitted size) divided by the two composite
    binomials.
    """
    x, y, z, w, r, R, rho, P = positive_ints(params, "fourvar parameters", 8)
    dominant, subordinate = nbase_pair((x, y, z, w), (r, R, rho, P), 1, 1)
    lhs = series_sub(spec_reciprocal(dominant, order), spec_reciprocal(subordinate, order))
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

    Verifies weight preservation, the congruence witness, pairwise-distinct
    images, the inverse round-trip, and that per-weight source counts stay
    below the unrestricted dominant-side counts.
    """
    failure = None
    seen = set()
    per_weight = Counter()
    source_count = 0
    for source in source_vectors(params, max_weight):
        source_count += 1
        image = inject(source, params)
        weight = params.source_weight(source)
        per_weight[weight] += 1
        if params.image_weight(image) != weight:
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


def check_proposal(
    params: ProposalParams,
    m: int,
    L: int,
    order: int,
    injection_bound: int = DEFAULT_INJECTION_BOUND,
) -> dict:
    """Coefficientwise comparison for one generalized tuple, with provenance.

    Delegates the series check to the named-inequality machinery; when L == 1
    it additionally runs the exhaustive injection evidence up to
    min(order, injection_bound).
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
        result["injection"] = injection_evidence(params, min(order, injection_bound))
    return result
