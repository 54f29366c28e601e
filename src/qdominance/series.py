"""Exact truncated power series in q over the integers.

A QSeries holds the coefficients of q^0 through q^N densely, where N is
the truncation order.  Every engine computes over ints, and all
arithmetic is exact and stays strictly inside the truncation window.  A
scaled value is brought back to its true value only where it is
reported, by `ratio`: the one place the package forms a rational, so the
half-weighted Thm2 groups and the h series may read as
fractions.Fraction there.

Products of binomial factors (1 - q^(a+jm)) are described by ProductSpec
values rather than expanded eagerly, so reciprocals can be taken factor
by factor.  An unbounded product (length INF) is materialized by
keeping only the factors whose exponent fits under the truncation order;
the omitted factors are congruent to 1 modulo q^(N+1), so this is a
semantic rule, not an approximation.

Every series is packed the same way, in `_Signed`: one Python int with
B-bit slots, slot n holding the coefficient of q^n, reduced modulo
M = 2^(B(N+1)).  q -> 2^B is a ring homomorphism from Z[q]/(q^(N+1)) to
Z/MZ, so adding, subtracting, shifting by q^lead, multiplying by
(1 - q^e) and applying 1/(1 - q^e) by doubling, as prod_k (1 + q^(2^k e))
with one shift-add per doubling, all compute the residue of the true
series, and a value in between may wrap.  A residue is read back, by its
signs or in full, through a bias of 2^(B-1) in every slot; that is exact
for a series whose every |coefficient| is below 2^(B-1).  So only a
series that is read must fit, and B is proven for it before anything is
packed, never read off the computed values.

A reciprocal pair (`_Signed.reciprocal_pair`) is expanded in stages,
each in slots only as wide as its partial product needs.  The factors
are applied largest exponent first, the shared ones and then each
side's.  After i factors whose least exponent is e, counted across the
shared factors and the side's together, the coefficient of q^n counts
the tuples (m_j) with sum m_j e_j = n, each sum m_j at most k = N // e,
so it is at most C(i + k, k), the number of tuples of i naturals summing
to at most k.  A stage's slots hold that bound for the factors applied by
its end, or are B bits if that is fewer, and a stage that widens widens
at least twofold.  Every partial product lies coefficientwise between 0
and the full reciprocal, and so does every value inside one factor's
doubling, since 1 + q^e + ... + q^((2^j - 1)e) <= 1/(1 - q^e).  So no
slot of a narrower stage wraps, copying its slots into wider ones with a
byte stride is exact, and the pair is the residue that doubling every
factor in B-bit slots gives, whatever B is.  The stages are planned
before anything is packed.  A series of fewer than _STAGED_BYTES bytes,
(N + 1) B/8, takes one stage in B-bit slots: there the plan and the
copies cost more than the narrow slots save.  Measured with Python
3.11 on a 2-vCPU Xeon VM: pairs of 40 to 560 factors a side (RR, BGa,
Proposal, Thm2 at L = 31) break even at 1,500 to 2,500 bytes and expand
20 to 45% faster from about 5,000 bytes on, while under 1,000 bytes
staging took up to 1.9 times as long; pairs of 9 to 16 factors a side
stay within the runs' spread of about 10% at every size up to 17,000
bytes.  `dominance.dominates` is the pair's only caller.

Every proof starts from one bound on the coefficients of prod 1/(1 - q^e)
(`_coeff_bits`): the product of the per-factor multiplicity ranges or the
saddle bound F(x)/x^N, whichever is smaller.  The saddle bound is sound at
every fixed-point x = 1 - 1/t, so it is evaluated once, at a t that
approximates the saddle point, with no search.
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass
from fractions import Fraction

Coefficient = int | Fraction

# Length marker for products with no last factor.
INF = math.inf


class SingularSeriesError(ValueError):
    """Raised when a division by 1 - q^0, the zero series, is requested."""


class ResourceError(Exception):
    """Refuses a request above one of the package's work bounds, before the work starts."""


class ParameterError(ValueError):
    """A request outside its domain; the only ValueError that means exit 2 or a skipped sweep point."""


# Largest (order + 1) * (1 + factor count) one request may expand.  The
# deepest benchmark check (a BGa pair with 460 factors at order 1,500) costs
# about 7e5, so this leaves a factor of about 14; at the bound a series of
# one factor has at most 5e6 coefficients.
MAX_SERIES_WORK = 10_000_000

# A reciprocal pair whose series, (order + 1) slots of B bits, is shorter
# than this many bytes is expanded in one stage; see the module docstring.
_STAGED_BYTES = 2048


_INT_ONLY = frozenset((int,))


def ratio(c: int, scale: int) -> Coefficient:
    """c / scale: an int when scale divides c, a Fraction otherwise."""
    return c // scale if c % scale == 0 else Fraction(c, scale)


@dataclass(frozen=True)
class QSeries:
    """Truncated power series: coeffs[n] is the coefficient of q^n, n <= order."""

    order: int
    coeffs: tuple[Coefficient, ...]

    def __post_init__(self) -> None:
        if self.order < 0:
            raise ValueError(f"order must be nonnegative, got {self.order}")
        if len(self.coeffs) != self.order + 1:
            raise ValueError(
                f"need {self.order + 1} coefficients for order {self.order}, "
                f"got {len(self.coeffs)}"
            )

    @staticmethod
    def from_coeffs(coeffs, order: int | None = None) -> "QSeries":
        cs = list(coeffs)
        if order is None:
            order = len(cs) - 1
        if len(cs) < order + 1:
            cs.extend([0] * (order + 1 - len(cs)))
        return QSeries(order, tuple(cs[: order + 1]))

    def coeff(self, n: int) -> Coefficient:
        if not 0 <= n <= self.order:
            raise IndexError(f"exponent {n} outside tracked range 0..{self.order}")
        return self.coeffs[n]

    def is_zero(self) -> bool:
        return not any(self.coeffs)


# Fixed-point scale of the saddle bound: a value v in (0, 1] is the int v * 2^64.
_FIX = 64
_ONE = 1 << _FIX
# The saddle bound is evaluated at t = 1/(1 - x) inside [2, _MAX_T].
_MAX_T = 1 << 32


def _product_bits(exponents: list[int], order: int) -> int:
    """Bits that hold every coefficient through q^order of prod 1/(1 - q^e).

    The coefficient of q^n counts the tuples (k_e) with sum k_e * e = n,
    and each k_e lies in 0 .. order // e, so it is at most
    prod (order // e + 1) < 2^(sum of their bit lengths).
    """
    return sum((order // e + 1).bit_length() for e in exponents)


def _cut(m: int, s: int) -> tuple[int, int]:
    """m / 2^s rounded down to a 64-bit mantissa: a lower bound."""
    k = m.bit_length() - _FIX
    return (m >> k, s - k) if k > 0 else (m, s)


def _pow_down(X: int, n: int) -> tuple[int, int]:
    """(m, s) with 0 < m / 2^s <= (X / 2^64)^n, by squaring with floors."""
    m, s, base, bs = 1, 0, X, _FIX
    while n:
        if n & 1:
            m, s = _cut(m * base, s + bs)
        base, bs = _cut(base * base, 2 * bs)
        n >>= 1
    return m, s


def _pow_up(X: int, n: int) -> int:
    """An upper bound on (X / 2^64)^n * 2^64, n >= 1, by squaring with ceilings."""
    r = _ONE
    while n:
        if n & 1:
            r = (r * X + _ONE - 1) >> _FIX
        X = (X * X + _ONE - 1) >> _FIX
        n >>= 1
    return r


def _saddle_bound(exponents: list[int], order: int, t: int) -> int:
    """An integer bound on every coefficient through q^order, at x = 1 - 1/t.

    With F(x) = prod 1/(1 - x^e), every coefficient c_n is nonnegative, so
    c_n x^n <= F(x) and c_n <= F(x) / x^order for n <= order and 0 < x < 1.
    Here x is exactly X / 2^64 with X = 2^64 - 2^64 // t, so for
    2 <= t <= 2^64 it lies in [1/2, 1 - 2^-64].  The denominator
    x^order * prod (1 - x^e) is bounded from below in integers: x^order by
    floors, each x^e by ceilings (which stay at most 2^64 - 1, so every
    1 - x^e is at least 2^-64), and the running product is cut back to its
    top bits by floors.  The exponents must be sorted and positive.
    """
    X = _ONE - _ONE // t
    den, s = _pow_down(X, order)
    s += _FIX * len(exponents)
    powers: dict[int, int] = {}
    xe, prev = _ONE, 0
    for e in exponents:
        if e != prev:
            step = powers.get(e - prev)
            if step is None:
                step = powers[e - prev] = _pow_up(X, e - prev)
            xe = (xe * step + _ONE - 1) >> _FIX
            prev = e
        den *= _ONE - xe
        cut = den.bit_length() - 4 * _FIX
        if cut > 0:
            den >>= cut
            s -= cut
    return (1 << s) // den


def _saddle_start(exponents: list[int], order: int) -> int:
    """The t at which `_coeff_bits` evaluates `_saddle_bound`, near its minimum.

    The saddle point solves sum over e of e x^e / (1 - x^e) = order.  With
    x = e^(-1/T) each term is T * phi(e/T), phi(v) = v / (e^v - 1), and phi
    is replaced by the triangle max(0, 1 - v/3.3) of the same area
    (pi^2/6).  The sum is then linear in T over the exponents below 3.3 T,
    and the first prefix of the sorted exponents whose root excludes the
    next exponent gives the root.  The same x is 1 - 1/t at
    t = 1/(1 - e^(-1/T)), which is T + 1/2 to within 1/(12 T).  Every t in
    [2, 2^64] gives a sound bound, so the approximation only costs width,
    never soundness.  The exponents must be sorted, positive and not empty.
    """
    total = 0
    for c, e in enumerate(exponents, 1):
        total += e
        T = (33 * order + 10 * total) // (33 * c)
        if c == len(exponents) or 10 * exponents[c] >= 33 * T:
            break
    t = (66 * order + 20 * total + 33 * c) // (66 * c)
    return min(max(2, t), _MAX_T)


def _coeff_bits(exponents: list[int], order: int) -> int:
    """c with every coefficient through q^order of prod 1/(1 - q^e) below 2^c.

    c is the smaller of the product bound and the saddle bound, the latter
    evaluated once at `_saddle_start`, in O(factors + log order), whenever
    the product bound is above a machine word.  The exponents must be
    positive and at most the order.
    """
    bits = _product_bits(exponents, order)
    if bits > 64:
        exponents = sorted(exponents)
        bits = min(bits, _saddle_bound(exponents, order, _saddle_start(exponents, order)).bit_length())
    return bits


def _factors(exponents, order: int) -> list[int]:
    """The exponents at most the order; exponent 0 is singular and a negative one is refused."""
    factors = [e for e in exponents if e <= order]
    if factors and min(factors) <= 0:
        if 0 in factors:
            raise SingularSeriesError("cannot divide by 1 - q^0")
        raise ValueError(f"exponents must be positive, got {min(factors)}")
    return factors


def _split_shared(first: list[int], second: list[int]) -> tuple[list[int], list[list[int]]]:
    """The multiset intersection of two lists, in the first list's order, and each list's rest."""
    unmatched: dict[int, int] = {}
    for e in second:
        unmatched[e] = unmatched.get(e, 0) + 1
    shared, rest = [], []
    for e in first:
        if unmatched.get(e):
            unmatched[e] -= 1
            shared.append(e)
        else:
            rest.append(e)
    return shared, [rest, [e for e, k in unmatched.items() for _ in range(k)]]


def _prefix_bytes(applied: int, least: int, order: int, top: int) -> int:
    """Bytes that hold every coefficient through q^order of a product of
    `applied` factors 1/(1 - q^e), each e at least `least`, or `top` if
    that is fewer: C(applied + k, k), k = order // least, bounds them (see
    the module docstring)."""
    k = order // least
    return min(top, -(-math.comb(applied + k, k).bit_length() // 8))


def _stages(factors: list[int], order: int, top: int, applied: int, least: int, width: int) -> list[tuple[int, int]]:
    """The stages (end, width) that apply the factors, sorted largest first,
    after `applied` factors whose least exponent is `least`, to a partial
    product in slots of `width` bytes (0 while it is still 1).

    A stage applies the factors before `end` that no earlier stage did, in
    slots of `width` bytes: at most `top`, and at least the bound proven
    for the factors applied by its end (`_prefix_bytes`).  A stage that
    needs wider slots than the last widens them at least twofold, and runs
    on while that width holds the bound.
    """

    def need(end: int) -> int:
        return _prefix_bytes(applied + end, min(least, factors[end - 1]), order, top)

    stages, start = [], 0
    while start < len(factors):
        wanted = need(start + 1)
        if wanted > width:
            width = min(top, max(wanted, 2 * width))
        lo, hi = start + 1, len(factors)
        if width == top:
            lo = hi
        while lo < hi:  # the last end whose bound fits the width
            mid = (lo + hi + 1) // 2
            if need(mid) <= width:
                lo = mid
            else:
                hi = mid - 1
        stages.append((lo, width))
        start = lo
    return stages


def _pair_stages(
    first: list[int], second: list[int], order: int, top: int
) -> list[tuple[list[int], list[tuple[int, int]]]]:
    """(factors, stages) for the factors the lists share, then for each
    list's rest; each list's last stage is `top` bytes wide.

    A series shorter than _STAGED_BYTES takes one stage at `top` bytes per
    part; see the module docstring.
    """
    shared, sides = _split_shared(first, second)
    if (order + 1) * top < _STAGED_BYTES:
        return [(part, [(len(part), top)]) for part in (shared, *sides)]
    shared.sort(reverse=True)
    stages = _stages(shared, order, top, 0, order + 1, 0)
    plan = [(shared, stages)]
    width = stages[-1][1] if stages else 0
    for side in sides:
        side.sort(reverse=True)
        stages = _stages(side, order, top, len(shared), min(shared, default=order + 1), width)
        if not stages or stages[-1][1] < top:
            stages.append((len(side), top))
        plan.append((side, stages))
    return plan


def _widen(x: int, order: int, size: int, step: int) -> int:
    """x's order + 1 nonnegative slots of `size` bytes, each copied into `step` bytes."""
    data = x.to_bytes((order + 1) * size, "little")
    wide = bytearray((order + 1) * step)
    for i in range(size):
        wide[i::step] = data[i::size]
    return int.from_bytes(wide, "little")


def _apply(x: int, width: int, factors: list[int], stages: list[tuple[int, int]], order: int) -> tuple[int, int]:
    """(x times prod 1/(1 - q^e) over the factors, its slot bytes), stage by
    stage from x in slots of `width` bytes (0 for x = 1)."""
    start = 0
    for end, wider in stages:
        if width and wider != width:
            x = _widen(x, order, width, wider)
        width = wider
        x = _double(x, factors[start:end], order, 8 * width)
        start = end
    return x, width


def _double(x: int, factors: list[int], order: int, bits: int) -> int:
    """x times prod 1/(1 - q^e) over the factors, in B-bit slots through q^order."""
    full = (1 << (order + 1) * bits) - 1
    half = order // 2
    for e in factors:
        s = e
        while s <= half:
            x += (x << s * bits) & full
            s <<= 1
        if s <= order:
            shift = s * bits
            x += (x & (full >> shift)) << shift
    return x


# memoryview.cast formats by item size: on a little-endian host, slots of
# these byte widths are read in one call.
_CAST_FORMATS = {struct.calcsize(f): f for f in "BHIQ"} if sys.byteorder == "little" else {}


def _slots(x: int, order: int, bits: int) -> list[int]:
    """The order + 1 B-bit slots of x, lowest first; 0 <= x < 2^(B(order+1))."""
    width = bits // 8
    data = x.to_bytes((order + 1) * width, "little")
    fmt = _CAST_FORMATS.get(width)
    if fmt is not None:
        return memoryview(data).cast(fmt).tolist()
    return [int.from_bytes(data[i : i + width], "little") for i in range(0, len(data), width)]


class _Signed:
    """Signed series through q^order as residues modulo M = 2^(B(order+1)), slot n for q^n.

    Every method but the readers is a ring operation on residues, so its
    result is the residue of the true series even where a value on the way
    wraps.  The readers (`negatives`, `negative`, `decode`) read a residue
    x back through y = (x + H) & (M - 1), H holding 2^(B-1) in every slot:
    for a series whose every |d_n| is below 2^(B-1), slot n of y is
    d_n + 2^(B-1) exactly, so d_n < 0 iff the top bit of slot n is clear.
    The exact sum of d_n 2^(Bn), a signed int, is one representative of
    its residue, so they read it too.  Two series whose every
    |coefficient| is below 2^(B-2) are equal iff their residues are,
    since their difference is then below 2^(B-1).  B is the requested
    width rounded up to whole bytes.
    """

    __slots__ = ("order", "bits", "mask", "bias")

    def __init__(self, order: int, bits: int) -> None:
        self.order = order
        self.bits = bits = -(-bits // 8) * 8
        self.mask = (1 << (order + 1) * bits) - 1
        self.bias = int.from_bytes((bytes(bits // 8 - 1) + b"\x80") * (order + 1), "little")

    @classmethod
    def for_bound(cls, exponents, order: int, weight: int) -> "_Signed":
        """Slots for series whose |coefficients| are at most weight * prod 1/(1 - q^e).

        The reciprocal's coefficients are below 2^c (`_coeff_bits`), so
        every such series is below 2^(c + bit_length(weight)), and
        B = c + bit_length(weight) + 2, rounded up to whole bytes, keeps it
        below 2^(B-2).
        """
        bits = _coeff_bits(_factors(exponents, order), order) + weight.bit_length() + 2
        return cls(order, bits)

    @classmethod
    def for_reciprocals(cls, order: int, *exponent_lists) -> "_Signed":
        """Slots for prod 1/(1 - q^e) over each list and the difference of any two.

        Each reciprocal is nonnegative and below 2^c_i (`_coeff_bits`), so
        it and every difference of two are below 2^c, c = max c_i, in
        absolute value; B = c + 1, rounded up to whole bytes, keeps them
        below 2^(B-1), where `negative` and `decode` are exact.  Every list
        is checked as in `_factors` first.
        """
        factors = [_factors(exponents, order) for exponents in exponent_lists]
        bits = max(_coeff_bits(f, order) for f in factors) + 1
        return cls(order, bits)

    def reciprocal_pair(self, first, second) -> tuple[int, int]:
        """prod 1/(1 - q^e) over each list, the factors the two share applied once.

        The factors are applied in the stages that `_pair_stages` plans,
        each in slots no wider than its proven bound, and the result is
        the residue that `divide` gives in B-bit slots; see the module
        docstring.
        """
        order = self.order
        (shared, stages), *sides = _pair_stages(_factors(first, order), _factors(second, order), order, self.bits // 8)
        x, width = _apply(1, 0, shared, stages, order)
        return tuple(_apply(x, width, factors, stages, order)[0] for factors, stages in sides)

    def divide(self, x: int, exponents) -> int:
        """x times prod 1/(1 - q^e) over positive exponents; those above the order change nothing."""
        return _double(x, exponents, self.order, self.bits)

    def times_binomials(self, x: int, exponents) -> int:
        """x times prod (1 - q^e); e = 0 gives 0 and e above the order changes nothing."""
        order, bits, mask = self.order, self.bits, self.mask
        for e in exponents:
            if e <= order:
                x = (x - (x << e * bits)) & mask
        return x

    def times_pieces(self, x: int, pieces) -> int:
        """x times the sum of q^lead * prod (1 - q^e) over the (lead, exponents) pieces."""
        order, bits, mask = self.order, self.bits, self.mask
        total = 0
        for lead, exponents in pieces:
            if lead <= order:
                total += self.times_binomials((x << lead * bits) & mask, exponents)
        return total & mask

    def negatives(self, x: int) -> int:
        """The top bit of the slot of every negative coefficient of the series x holds.

        Only the low B(order+1) bits of x + H are read, and they depend only
        on x mod M, so x may be any representative of its residue.
        """
        # bias & ~(x + bias), with nonnegative operands wherever x + bias is
        return self.bias ^ ((x + self.bias) & self.bias)

    def negative(self, x: int) -> tuple[int, int] | None:
        """(n, d_n) for the first negative coefficient of the series x holds, or None."""
        clear = self.negatives(x)
        if not clear:
            return None
        bits = self.bits
        n = ((clear & -clear).bit_length() - 1) // bits
        return n, (((x + self.bias) >> n * bits) & ((1 << bits) - 1)) - (1 << bits - 1)

    def decode(self, x: int) -> QSeries:
        """The series x holds."""
        half = 1 << self.bits - 1
        slots = _slots((x + self.bias) & self.mask, self.order, self.bits)
        return QSeries(self.order, tuple([c - half for c in slots]))


def reciprocal_from_exponents(exponents, order: int) -> QSeries:
    """prod 1/(1 - q^e) over the given exponents, through q^order.

    Exponent 0 raises SingularSeriesError and a negative exponent
    ValueError, before anything is packed.
    """
    packing = _Signed.for_reciprocals(order, exponents)
    return packing.decode(packing.divide(1, exponents))


def positive_ints(values, label: str, count: int | None = None) -> tuple[int, ...]:
    """The values as a tuple of positive ints, or ParameterError naming the label.

    Only exact ints pass: bools, floats and Fractions are refused.  With
    ``count`` the tuple must have that length; without, it must not be empty.
    """
    try:
        items = tuple(values)
    except TypeError:
        raise ParameterError(f"{label} must be positive integers, got {values!r}") from None
    if (
        (len(items) == count if count is not None else items)
        and _INT_ONLY.issuperset(map(type, items))
        and min(items, default=1) >= 1
    ):
        return items
    if count == 1:
        wanted = "a positive integer"
    else:
        wanted = "positive integers" if count is None else f"{count} positive integers"
    got = items[0] if count == len(items) == 1 else items
    raise ParameterError(f"{label} must be {wanted}, got {got!r}")


@dataclass(frozen=True)
class ProductSpec:
    """The product of (1 - q^(b + j*modulus)) over the bases b and j = 0 .. length-1.

    A length of INF leaves every base's factors unbounded.  The constant
    term of the product is always 1.
    """

    bases: tuple[int, ...]
    modulus: int
    length: int | float = INF

    def __post_init__(self) -> None:
        sizes = (*self.bases, self.modulus)
        if self.length != INF:
            sizes += (self.length,)
        positive_ints(sizes, "factor bases, modulus and length (or INF)")

    def _ranges(self, order: int) -> list[range]:
        """Per base, the range of its factor exponents under the truncation order."""
        out = []
        for b in self.bases:
            top = order if self.length == INF else min(order, b + (self.length - 1) * self.modulus)
            out.append(range(b, top + 1, self.modulus))
        return out


def product_spec(bases, modulus: int, length: int | float = INF) -> ProductSpec:
    """Spec for the multi-argument product over the given base exponents."""
    return ProductSpec(tuple(bases), modulus, length)


def require_series_work(specs, order: int, rows: int = 0) -> list[list[int]]:
    """Each spec's factor exponents under the order, or ResourceError above MAX_SERIES_WORK.

    The work is (order + 1) * (1 + rows + the factors of all the specs
    under the order): every factor, and every row of a per-index report,
    costs one pass over order + 1 coefficients, and the series themselves
    hold order + 1 each even when no factor is under the order.  Each
    spec's factor ranges are taken once, counted and, only when admitted,
    listed, so a refusal allocates nothing whatever the order.
    """
    ranges = [spec._ranges(order) for spec in specs]
    work = (order + 1) * (1 + rows + sum(len(r) for spec_ranges in ranges for r in spec_ranges))
    if work > MAX_SERIES_WORK:
        terms = "1 + rows + factors" if rows else "1 + factors"
        raise ResourceError(
            f"series work (order + 1) x ({terms}) = {work} exceeds the bound {MAX_SERIES_WORK}"
        )
    return [[e for r in spec_ranges for e in r] for spec_ranges in ranges]


def serialize(a: QSeries) -> str:
    """One 'index: value' line per coefficient."""
    return "\n".join(f"{n}: {c}" for n, c in enumerate(a.coeffs))
