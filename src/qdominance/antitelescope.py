"""Telescoping decomposition of 1/P(L) - 1/Q(L) into per-index addends.

The difference of two reciprocal products telescopes as

    1/P(L) - 1/Q(L) = sum over i of
        (Q(i)/Q(i-1) - P(i)/P(i-1)) / (P(i) * Q(L)/Q(i-1))

where P(i) and Q(i) are the products truncated at i factor layers.  The
engine takes P(L) and Q(L) as two ProductSpecs whose factor families share
one modulus and one finite length L.  When every addend is coefficientwise
nonnegative the dominance is certified term by term; where a bare addend
goes negative, the splittings below (V/W for the three-base pairs, G1..G4
for the four-base pairs) refine it into pieces that stay nonnegative.  Both
splittings read their sizes and multipliers back off the pair through
`dominance.nbase_params`.

Every addend and split group at index i shares the denominator
reciprocal D_i = 1/(P(i) * Q(L)/Q(i-1)).  With F_j = 1/(P(j) * Q(L)/Q(j)),
so that F_0 = 1/Q(L) and F_L = 1/P(L), one has D_i = F_(i-1)/(P layer i-1),
F_i = D_i * (Q layer i-1) and addend i = F_i - F_(i-1).  `decompositions`
walks i = 1..L carrying these forward, one binomial pass per factor of a
layer, and forms each group as D_i times its sparse numerator: a power of
q times at most four binomials.  The arithmetic stays in integers; the
half-weighted Thm2 groups are carried doubled and halved only where they
are reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from .dominance import nbase_params
from .series import (
    INF,
    Coefficient,
    ProductSpec,
    QSeries,
    _norm,
    divide_binomials,
    first_negative,
    multiply_binomials,
    serialize,
    series_add,
    series_scale,
    series_shift,
    series_sub,
    spec_reciprocal,
)

SPLIT_MODES = ("none", "thm1", "thm2")


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
        factor = Fraction(1, self.scale)
        groups = tuple((name, series_scale(g, factor)) for name, g in self.groups)
        return AddendDecomposition(self.index, self.addend, groups, self.t_exponent)

    def group_negatives(self) -> dict[str, tuple[int, Coefficient] | None]:
        """Each group's first negative coefficient, at its true value."""
        out = {}
        for name, g in self.groups:
            neg = first_negative(g)
            if neg is not None and self.scale != 1:
                neg = (neg[0], _norm(Fraction(neg[1], self.scale)))
            out[name] = neg
        return out

    def groups_sum_to_addend(self) -> bool:
        total = QSeries.zero(self.addend.order)
        for _, g in self.groups:
            total = series_add(total, g)
        if self.scale != 1:
            return total == series_scale(self.addend, self.scale)
        return total == self.addend


def _thm1_numerators(values, t: int):
    """(name, [(lead, binomial exponents), ...]) for V and W at t = (i-1)m."""
    x, y, r, R = values
    return (
        ("V", [(t + y, ((R - 1) * y, x, t + r * x))]),
        ("W", [(t + x, ((r - 1) * x, R * y, t + y))]),
    )


def _thm2_numerators(values, t: int):
    """Doubled G1..G4 numerators as sums of q^lead times four binomials.

    Index 1 (t = 0) has three groups and no G4.
    """
    x, y, z, r, R, rho = values
    a, b, c = r * x, R * y, rho * z
    if t == 0:
        return (
            ("G1", [(x, ((r - 1) * x, b, c, y + z)), (x, ((r - 1) * x, y, z, b + c))]),
            ("G2", [(y, ((R - 1) * y, c, a, z + x)), (y, ((R - 1) * y, z, x, c + a))]),
            ("G3", [(z, ((rho - 1) * z, x, y, a + b)), (z, ((rho - 1) * z, a, b, x + y))]),
        )
    return (
        ("G1", [
            (t + x, ((r - 1) * x, t + b, t + c, y + z)),
            (t + x, ((r - 1) * x, t + y, t + z, b + c)),
        ]),
        ("G2", [
            (t + y, ((R - 1) * y, t + c, t + a, z + x)),
            (t + y, ((R - 1) * y, t + z, t + x, c + a)),
        ]),
        ("G3", [(t + z, ((rho - 1) * z, t + x, t + y, a + b))]),
        ("G4", [
            (t + z, ((rho - 1) * z, t + a, t + b, x + y)),
            (t + z + x + y, ((rho - 1) * z, 2 * t, (r - 1) * x, (R - 1) * y)),
        ]),
    )


# split -> (number of sizes n, numerators, integer scale of the groups)
_SPLITS = {"thm1": (2, _thm1_numerators, 1), "thm2": (3, _thm2_numerators, 2)}


def _layers(P: ProductSpec, Q: ProductSpec) -> tuple[int, int]:
    """(modulus, L) shared by every factor family of the pair, or ValueError."""
    moduli = {f.modulus for f in P.families + Q.families}
    lengths = {f.length for f in P.families + Q.families}
    if len(moduli) != 1 or len(lengths) != 1 or INF in lengths:
        raise ValueError(
            "antitelescoping needs finite products with one shared modulus and length"
        )
    return moduli.pop(), lengths.pop()


def decompositions(
    P: ProductSpec,
    Q: ProductSpec,
    order: int,
    split: str = "none",
    reciprocal_q: QSeries | None = None,
):
    """Yield the decomposition of 1/P - 1/Q at every index i = 1..L, in order.

    P and Q must share one modulus and one finite length L; a split also
    needs them to be the `nbase_pair` with two (thm1) or three (thm2)
    sizes.  One denominator reciprocal D_i per index is shared by the
    addend and all split groups; see the module docstring.
    ``reciprocal_q`` may pass in 1/Q when the caller has it already.  Split
    groups are yielded at the engine's integer scale (Thm2 doubled).
    """
    if split not in SPLIT_MODES:
        raise ValueError(f"split must be one of {SPLIT_MODES}, got {split!r}")
    m, L = _layers(P, Q)
    numerators, scale, values = None, 1, ()
    if split != "none":
        n, numerators, scale = _SPLITS[split]
        xs, rs = nbase_params(P, Q)
        if len(xs) != n:
            raise ValueError(f"the {split} split needs {n} sizes, the pair has {len(xs)}")
        values = xs + rs
    f = spec_reciprocal(Q, order) if reciprocal_q is None else reciprocal_q
    for i in range(1, L + 1):
        t = (i - 1) * m
        d = divide_binomials(f, [b + t for b in P.bases])
        f_next = multiply_binomials(d, [b + t for b in Q.bases])
        groups = ()
        if numerators is not None:
            groups = tuple(
                (name, _sum_pieces(d, pieces)) for name, pieces in numerators(values, t)
            )
        yield AddendDecomposition(i, series_sub(f_next, f), groups, t, scale)
        f = f_next


def _sum_pieces(d: QSeries, pieces) -> QSeries:
    total = None
    for lead, exponents in pieces:
        piece = multiply_binomials(series_shift(d, lead), exponents)
        total = piece if total is None else series_add(total, piece)
    return total


def certify_split(P: ProductSpec, Q: ProductSpec, order: int, split: str) -> dict[str, Any]:
    """Split certificate for a Thm1 (split "thm1") or Thm2 ("thm2") pair.

    Checks that every split group is nonnegative, that the groups sum to
    their addend, that every addend and the difference 1/P(L) - 1/Q(L) are
    nonnegative, and that the addends sum to the difference exactly.
    Returns {"ok", "witness"}; the witness is the first failed check.
    The addends are differences of consecutive F_j, so the telescoping
    check compares the end of the walk, F_L, with a direct expansion of
    1/P(L).
    """
    if split not in _SPLITS:
        raise ValueError(f"split must be one of {tuple(_SPLITS)}, got {split!r}")
    reciprocal_q = spec_reciprocal(Q, order)
    diff = series_sub(spec_reciprocal(P, order), reciprocal_q)
    total = QSeries.zero(order)
    witness = None

    def note(found):
        nonlocal witness
        if witness is None:
            witness = found

    for dec in decompositions(P, Q, order, split, reciprocal_q):
        i = dec.index
        for name, neg in dec.group_negatives().items():
            if neg is not None:
                note({"i": i, "location": name, "exponent": neg[0], "coefficient": neg[1]})
        if not dec.groups_sum_to_addend():
            note({"i": i, "location": "group-sum"})
        neg = first_negative(dec.addend)
        if neg is not None:
            note({"i": i, "location": "addend", "exponent": neg[0], "coefficient": neg[1]})
        total = series_add(total, dec.addend)
    neg = first_negative(diff)
    if neg is not None:
        note({"location": "difference", "exponent": neg[0], "coefficient": neg[1]})
    if total != diff:
        note({"location": "telescope"})
    return {"ok": witness is None, "witness": witness}


def positivity_scan(
    P: ProductSpec,
    Q: ProductSpec,
    order: int,
    split: str = "none",
    dump_series: bool = False,
) -> dict[str, Any]:
    """Per-index first-negative report for addends and their split groups.

    With ``dump_series`` the report also carries every scanned addend (and
    group) series in serialized form under "series".
    """
    rows = []
    dumps = []
    all_nonnegative = True
    for dec in decompositions(P, Q, order, split):
        row = {
            "i": dec.index,
            "addend": first_negative(dec.addend),
            "groups": dec.group_negatives(),
        }
        if row["addend"] is not None or any(
            v is not None for v in row["groups"].values()
        ):
            all_nonnegative = False
        rows.append(row)
        if dump_series:
            entry = {"i": dec.index, "addend": serialize(dec.addend)}
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
