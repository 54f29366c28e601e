"""Telescoping decomposition of 1/P(L) - 1/Q(L) into per-index addends.

The difference of two reciprocal products telescopes as

    1/P(L) - 1/Q(L) = sum over i of
        (Q(i)/Q(i-1) - P(i)/P(i-1)) / (P(i) * Q(L)/Q(i-1))

where P(i) and Q(i) are the products truncated at i factor layers.  The
engine takes P(L) and Q(L) as two ProductSpecs that share one modulus and
one finite length L.  When every addend is coefficientwise
nonnegative the dominance is certified term by term; where a bare addend
goes negative, the splittings below (V/W for the three-base pairs, G1..G4
for the four-base pairs) refine it into pieces that stay nonnegative.  Both
splittings read their sizes and multipliers back off the pair through
`dominance.nbase_params`.

Every addend and split group at index i shares the denominator
reciprocal D_i = 1/(P(i) * Q(L)/Q(i-1)).  With F_j = 1/(P(j) * Q(L)/Q(j)),
so that F_0 = 1/Q(L) and F_L = 1/P(L), one has D_i = F_(i-1)/(P layer i-1),
F_i = D_i * (Q layer i-1) and addend i = F_i - F_(i-1).  `_Walk` goes
over i = 1..L carrying these forward, and forms each group as D_i times
its sparse numerator: a power of q times at most four binomials.  The
half-weighted Thm2 groups are carried doubled and halved only where they
are read.

The numerators are written once, over t = (i-1)m, the sizes x, y[, z] and
the scaled sizes a = rx, b = Ry[, c = rho z]; every exponent is a sum,
difference or double of these.  They are read two ways: the walk calls
them with ints, and `split_identity_sides` with unit linear forms
(`_Form`), which `polyring.from_pieces` turns into polynomials in T = q^t
and the q-powers of the sizes.  The module's `IDENTITIES` rows state that
they sum to scale * (prod over the Q layer of (1 - q^(b+t)) - prod over
the P layer), at t = 0 (index 1) and at a generic t, and
`polyring.decide_identity` checks it exactly.  Substituting q-powers is a
ring homomorphism, so that one identity says that the groups sum to
scale * addend at every size, multiplier and index.

The walk is packed (`series._Signed`): every series is one int with
B-bit slots, reduced modulo M = 2^(B(N+1)) at truncation order N.
q -> 2^B is a ring homomorphism from Z[q]/(q^(N+1)) to Z/MZ, and every
step of the walk is compatible with it: adding and subtracting, the
q^lead shift, multiplying by (1 - q^e), which is x - (x << eB), and
applying 1/(1 - q^e) = prod_k (1 + q^(2^k e)) by doubling.  So a value
in between may wrap; only a series that is read must have every
|coefficient| below 2^(B-1), and each side of a compared pair below
2^(B-2).

B is proven before anything is packed.  Every D_i and F_i, and 1/P and
1/Q, is the reciprocal of a sub-multiset of P + Q (as multisets of
factors), so each is coefficientwise at most C = 1/(P * Q), whose
coefficients `series._coeff_bits` bounds.  Each addend or group is D_i
times a polynomial of L1 norm at most K: for an addend
2^|Q layer| + 2^|P layer|, for a group the sum over its pieces of
2^(number of binomials), at the engine's scale.  A scaled addend and
the sum of one index's groups are then at most K * C.  A per-index
walk (`positivity_scan`, `decompositions`) reads one index at a time,
so its B is the bit length of K * C plus 2, in whole bytes.  Only
`certify_split` and `group_totals` sum over i, and the walk stops such
a walk itself after i = min(L, N // m + 1), past which every addend and
group is 0 through q^N; so no caller has to stop it, and a running total
is at most min(L, N // m + 1) * K * C, whose bit length plus 2, in
whole bytes, is the summing walk's B.  Reading needs no unpacking: the
sign test and the first negative coefficient come from the biased top
bit of each slot, and "groups sum to scale * addend" compares residues.
The telescope check multiplies back: F_L times P(L)'s binomials is 1
modulo M iff F_L is the residue of 1/P(L), since P(L) has constant
term 1 and so is a unit modulo M.  `certify_split` decodes nothing
else; `decompositions`, the scan's `--dump-series` and `group_totals`
decode what they return.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any

from .dominance import SPLIT_MODES, nbase_params
from .polyring import RationalTerm, _Form, from_pieces
from .series import (
    INF,
    Coefficient,
    ParameterError,
    ProductSpec,
    QSeries,
    _Signed,
    ratio,
    require_series_work,
    serialize,
)


@dataclass(frozen=True)
class AddendDecomposition:
    """One telescoping addend together with a named split that sums to it.

    The groups are stored multiplied by ``scale``, so that they stay
    integral: the engine carries the half-weighted Thm2 groups doubled
    (scale 2), and `unscaled()` returns them at scale 1.
    """

    index: int
    addend: QSeries
    groups: tuple[tuple[str, QSeries], ...]
    t_exponent: int
    scale: int = 1

    def unscaled(self) -> "AddendDecomposition":
        """The same decomposition with the groups at their true value."""
        if self.scale == 1:
            return self
        groups = tuple((name, QSeries.from_coeffs([ratio(c, self.scale) for c in g.coeffs])) for name, g in self.groups)
        return AddendDecomposition(self.index, self.addend, groups, self.t_exponent)


def _thm1_numerators(values, t):
    """(name, [(lead, binomial exponents), ...]) for V and W at t; values = (x, y, rx, Ry)."""
    x, y, a, b = values
    return (("V", [(t + y, (b - y, x, t + a))]), ("W", [(t + x, (a - x, b, t + y))]))


def _thm2_numerators(values, t):
    """Doubled G1..G4 numerators at t; values = (x, y, z, rx, Ry, rho z).  Index 1 (t = 0) has no G4."""
    x, y, z, a, b, c = values
    if not t:
        return (
            ("G1", [(x, (a - x, b, c, y + z)), (x, (a - x, y, z, b + c))]),
            ("G2", [(y, (b - y, c, a, z + x)), (y, (b - y, z, x, c + a))]),
            ("G3", [(z, (c - z, x, y, a + b)), (z, (c - z, a, b, x + y))]),
        )
    return (
        ("G1", [(t + x, (a - x, t + b, t + c, y + z)), (t + x, (a - x, t + y, t + z, b + c))]),
        ("G2", [(t + y, (b - y, t + c, t + a, z + x)), (t + y, (b - y, t + z, t + x, c + a))]),
        ("G3", [(t + z, (c - z, t + x, t + y, a + b))]),
        ("G4", [(t + z, (c - z, t + a, t + b, x + y)), (t + z + x + y, (c - z, t + t, a - x, b - y))]),
    )


# split -> (number of sizes n, numerators, integer scale of the groups)
_SPLITS = {"thm1": (2, _thm1_numerators, 1), "thm2": (3, _thm2_numerators, 2)}


def split_identity_sides(split: str) -> list[tuple[list[RationalTerm], list[RationalTerm]]]:
    """[scale * (prod Q layer - prod P layer)] and [the sum of the groups], over (t, x, y[, z], a, b[, c]).

    The numerators are read at unit forms, first with t the zero form
    (index 1), then with t free: one (lhs, rhs) pair each.
    """
    n, numerators, scale = _SPLITS[split]
    variables = ("t", *"xyz"[:n], *"abc"[:n])
    zero = _Form((0,) * len(variables))
    units = _Form.units(len(variables))
    sizes, scaled = units[1 : n + 1], units[n + 1 :]
    layers = ((scale, (*scaled, sum(sizes, zero))), (-scale, (*sizes, sum(scaled, zero))))
    pairs = []
    for t in (zero, units[0]):
        lhs = from_pieces(variables, [(weight, zero, [t + e for e in layer]) for weight, layer in layers])
        groups = [(1, lead, exps) for _, pieces in numerators((*sizes, *scaled), t) for lead, exps in pieces]
        pairs.append(([RationalTerm(lhs)], [RationalTerm(from_pieces(variables, groups))]))
    return pairs


# The all-parameter identities of this module, as (name, sides) rows; see `polyring.decide_identity`.
IDENTITIES = (
    ("three-factor-difference", partial(split_identity_sides, "thm1")),
    ("four-factor-difference", partial(split_identity_sides, "thm2")),
)


def _layers(P: ProductSpec, Q: ProductSpec) -> tuple[int, int]:
    """(modulus, L) shared by the two products, or ValueError; a pair needs a factor."""
    shared = (P.modulus, P.length) == (Q.modulus, Q.length)
    if not (shared and (P.bases or Q.bases)) or P.length == INF:
        raise ValueError(
            "antitelescoping needs finite products with one shared modulus and length"
        )
    return P.modulus, P.length


class _Walk:
    """The packed walk of one pair and split, admitted before any expansion; see the module docstring.

    A ``per_index`` walk counts its L rows in the series work, steps i = 1..L and reads one
    index at a time, so its slots hold one index's series; a summing walk steps
    i = 1..min(L, order // m + 1), the indices its slot width is proven for.
    """

    def __init__(self, P: ProductSpec, Q: ProductSpec, order: int, split: str, per_index: bool = False) -> None:
        if split not in SPLIT_MODES:
            raise ParameterError(f"split must be one of {SPLIT_MODES}, got {split!r}")
        self.P, self.Q = P, Q
        self.m, self.L = _layers(P, Q)
        self.exponents = require_series_work((P, Q), order, self.L if per_index else 0)
        self.numerators, self.scale, self.values = None, 1, ()
        if split != "none":
            n, self.numerators, self.scale = _SPLITS[split]
            xs, rs = nbase_params(P, Q)
            if len(xs) != n:
                raise ParameterError(f"the {split} split needs {n} sizes, the pair has {len(xs)}")
            self.values = xs + tuple(r * x for r, x in zip(rs, xs))
        weight = self.scale * (2 ** len(P.bases) + 2 ** len(Q.bases))
        if self.numerators is not None:
            for t in (0, self.m):
                groups = self.numerators(self.values, t)
                weight = max(weight, sum(2 ** len(exps) for _, pieces in groups for _, exps in pieces))
        indices = min(self.L, order // self.m + 1)
        self.packing = _Signed.for_bound(sum(self.exponents, []), order, weight if per_index else indices * weight)
        self.stop = self.L if per_index else indices

    def steps(self, f: int | None = None):
        """Yield (i, t, addend, groups) for i = 1 up to the walk's stop, every series packed.

        The walk starts from F_0 = f, or expands 1/Q itself when f is
        None; F_i is f plus the addends through index i.
        """
        P, Q, numerators, values = self.P, self.Q, self.numerators, self.values
        packing = self.packing
        if f is None:
            f = packing.divide(1, self.exponents[1])
        times, times_pieces = packing.times_binomials, packing.times_pieces
        for i in range(1, self.stop + 1):
            t = (i - 1) * self.m
            d = packing.divide(f, [b + t for b in P.bases])
            f_next = times(d, [b + t for b in Q.bases])
            groups = ()
            if numerators is not None:
                groups = tuple(
                    (name, times_pieces(d, pieces)) for name, pieces in numerators(values, t)
                )
            yield i, t, f_next - f, groups
            f = f_next

    def group_negative(self, g: int) -> tuple[int, Coefficient] | None:
        """The first negative coefficient of a group, at its true value."""
        neg = self.packing.negative(g)
        return neg if neg is None else (neg[0], ratio(neg[1], self.scale))

    def decomposition(self, i: int, t: int, addend: int, groups) -> AddendDecomposition:
        decode = self.packing.decode
        named = tuple((name, decode(g)) for name, g in groups)
        return AddendDecomposition(i, decode(addend), named, t, self.scale)


def decompositions(P: ProductSpec, Q: ProductSpec, order: int, split: str = "none"):
    """Yield the decomposition of 1/P - 1/Q at every index i = 1..L, in order.

    P and Q must share one modulus and one finite length L; a split also
    needs them to be the `nbase_pair` with two (thm1) or three (thm2)
    sizes.  One denominator reciprocal D_i per index is shared by the
    addend and all split groups; see the module docstring.  Split groups
    are yielded at the engine's integer scale (Thm2 doubled).  As in
    `positivity_scan`, the L indices count in the series work bound.
    """
    walk = _Walk(P, Q, order, split, per_index=True)
    for step in walk.steps():
        yield walk.decomposition(*step)


def group_totals(P: ProductSpec, Q: ProductSpec, order: int, split: str) -> dict[str, QSeries]:
    """Each split group summed over i = 1..L, at the engine's integer scale.

    The sums are carried packed and each is decoded once.  The walk stops
    before the first index with t = (i-1)m above the order: every group
    lead from there on is t plus a positive size, so every later group is
    0 through q^order, and the cost does not grow with L.
    """
    walk = _Walk(P, Q, order, split)
    totals: dict[str, int] = {}
    for _, _, _, groups in walk.steps():
        for name, g in groups:
            totals[name] = totals.get(name, 0) + g
    return {name: walk.packing.decode(x) for name, x in totals.items()}


def certify_split(P: ProductSpec, Q: ProductSpec, order: int, split: str) -> dict[str, Any]:
    """Split certificate for a Thm1 (split "thm1") or Thm2 ("thm2") pair.

    Checks that every split group is nonnegative, that the groups sum to
    their addend, that every addend and the difference 1/P(L) - 1/Q(L) are
    nonnegative, and that the addends sum to the difference exactly.
    Returns {"ok", "witness"}; the witness is the first failed check.
    The addends are differences of consecutive F_j, so they sum to the
    difference iff F_L times P(L)'s binomials is 1 (module docstring);
    1/P(L) is expanded only where that fails.  The walk stops, as in
    `group_totals`, before the first index with t = (i-1)m above the
    order, so the cost does not grow with L.  A pair over the series work
    bound raises ResourceError before any expansion.
    """
    if split not in _SPLITS:
        raise ParameterError(f"split must be one of {tuple(_SPLITS)}, got {split!r}")
    walk = _Walk(P, Q, order, split)
    packing, scale, (exponents_p, exponents_q) = walk.packing, walk.scale, walk.exponents
    negative, mask = packing.negative, packing.mask
    f = first = packing.divide(1, exponents_q)
    for i, _, addend, groups in walk.steps(first):
        for name, g in groups:
            neg = walk.group_negative(g)
            if neg is not None:
                return _failed({"i": i, "location": name, "exponent": neg[0], "coefficient": neg[1]})
        if (sum(g for _, g in groups) - scale * addend) & mask:
            return _failed({"i": i, "location": "group-sum"})
        neg = negative(addend)
        if neg is not None:
            return _failed({"i": i, "location": "addend", "exponent": neg[0], "coefficient": neg[1]})
        f += addend
    telescopes = not (packing.times_binomials(f, exponents_p) - 1) & mask
    neg = negative((f if telescopes else packing.divide(1, exponents_p)) - first)
    if neg is not None:
        return _failed({"location": "difference", "exponent": neg[0], "coefficient": neg[1]})
    if not telescopes:
        return _failed({"location": "telescope"})
    return {"ok": True, "witness": None}


def _failed(witness: dict[str, Any]) -> dict[str, Any]:
    return {"ok": False, "witness": witness}


def positivity_scan(
    P: ProductSpec,
    Q: ProductSpec,
    order: int,
    split: str = "none",
    dump_series: bool = False,
) -> dict[str, Any]:
    """Per-index first-negative report for addends and their split groups.

    With ``dump_series`` the report also carries every scanned addend (and
    group) series in serialized form under "series".  Every index is one
    row, so the L rows count in the series work as one pass over order + 1
    coefficients each, and a pair over the bound raises ResourceError
    before any expansion.
    """
    walk = _Walk(P, Q, order, split, per_index=True)
    rows = []
    dumps = []
    all_nonnegative = True
    for step in walk.steps():
        i, _, addend, groups = step
        row = {
            "i": i,
            "addend": walk.packing.negative(addend),
            "groups": {name: walk.group_negative(g) for name, g in groups},
        }
        if row["addend"] is not None or any(
            v is not None for v in row["groups"].values()
        ):
            all_nonnegative = False
        rows.append(row)
        if dump_series:
            dec = walk.decomposition(*step)
            entry = {"i": i, "addend": serialize(dec.addend)}
            if split != "none":
                entry["groups"] = {name: serialize(g) for name, g in dec.unscaled().groups}
            dumps.append(entry)
    report = {
        "L": len(rows),  # one row per index 1..L
        "order": order,
        "split": split,
        "rows": rows,
        "all_nonnegative": all_nonnegative,
    }
    if dump_series:
        report["series"] = dumps
    return report
