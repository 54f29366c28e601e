"""Telescoping decomposition of 1/P(L) - 1/Q(L) into per-index addends.

The difference of two reciprocal products telescopes as

    1/P(L) - 1/Q(L) = sum over i of
        (Q(i)/Q(i-1) - P(i)/P(i-1)) / (P(i) * Q(L)/Q(i-1))

where P(i) and Q(i) are the products truncated at i factor layers.  When
every addend is coefficientwise nonnegative the dominance is certified
term by term; where a bare addend goes negative, the splittings below
(V/W for the three-base pairs, G1..G4 for the four-base pairs) refine it
into pieces that stay nonnegative.

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
from itertools import islice
from typing import Any, Mapping

from .series import (
    Coefficient,
    ProductSpec,
    QSeries,
    _norm,
    divide_binomials,
    first_negative,
    multiply_binomials,
    product_spec,
    serialize,
    series_add,
    series_scale,
    series_shift,
    series_sub,
    spec_reciprocal,
)

SPLIT_MODES = ("none", "thm1", "thm2")


@dataclass(frozen=True)
class ProductFamily:
    """Products P(i) built from the same base exponents, one layer per index.

    spec(i) is the product of (1 - q^(b + j*modulus)) over bases b and layers
    j < i; spec(0) is the empty product.  ``params`` optionally records the
    named parameters the bases were derived from, so splits can recover them.
    """

    bases: tuple[int, ...]
    modulus: int
    params: Mapping[str, int] | None = None

    def __post_init__(self) -> None:
        if not self.bases or any(not isinstance(b, int) or b < 1 for b in self.bases):
            raise ValueError(f"bases must be positive integers, got {self.bases}")
        if self.modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {self.modulus}")

    def spec(self, i: int) -> ProductSpec:
        if i < 0:
            raise ValueError(f"index must be >= 0, got {i}")
        if i == 0:
            return ProductSpec(())
        return product_spec(self.bases, self.modulus, i)

    def step_exponents(self, i: int) -> list[int]:
        """Exponents of the factors spec(i) adds on top of spec(i-1)."""
        if i < 1:
            raise ValueError(f"index must be >= 1, got {i}")
        return [b + (i - 1) * self.modulus for b in self.bases]

    def layer_exponents(self, lo: int, hi: int) -> list[int]:
        """Exponents of spec(hi)/spec(lo), i.e. layers lo .. hi-1."""
        return [b + j * self.modulus for j in range(lo, hi) for b in self.bases]


@dataclass(frozen=True)
class AddendDecomposition:
    """One telescoping addend together with a named split that sums to it.

    The groups are stored multiplied by ``scale``, so that they stay
    integral: the engine carries the half-weighted Thm2 groups doubled
    (scale 2), and the public views return them at scale 1.
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


def family(bases, modulus: int, **params: int) -> ProductFamily:
    return ProductFamily(tuple(bases), modulus, params or None)


def thm1_families(
    m: int, x: int, y: int, r: int, R: int
) -> tuple[ProductFamily, ProductFamily]:
    """The dominant/subordinate family pair for a sextuple's product shapes."""
    record = {"x": x, "y": y, "r": r, "R": R}
    p = ProductFamily((x, y, r * x + R * y), m, record)
    q = ProductFamily((r * x, R * y, x + y), m, record)
    return p, q


def thm2_families(
    m: int, x: int, y: int, z: int, r: int, R: int, rho: int
) -> tuple[ProductFamily, ProductFamily]:
    """The dominant/subordinate family pair for an octuple's product shapes."""
    record = {"x": x, "y": y, "z": z, "r": r, "R": R, "rho": rho}
    p = ProductFamily((x, y, z, r * x + R * y + rho * z), m, record)
    q = ProductFamily((r * x, R * y, rho * z, x + y + z), m, record)
    return p, q


def _check_index(i: int, L: int) -> None:
    if not isinstance(i, int) or not isinstance(L, int) or not 1 <= i <= L:
        raise ValueError(f"need 1 <= i <= L, got i={i}, L={L}")


def denominator_exponents(
    P: ProductFamily, Q: ProductFamily, i: int, L: int
) -> list[int]:
    """Factor exponents of P(i) * Q(L)/Q(i-1)."""
    return P.layer_exponents(0, i) + Q.layer_exponents(i - 1, L)


def _validate_params(params, count: int, label: str) -> tuple[int, ...]:
    values = tuple(params)
    if len(values) != count or any(
        not isinstance(v, int) or isinstance(v, bool) or v < 1 for v in values
    ):
        raise ValueError(f"{label} needs {count} positive integers, got {params!r}")
    return values


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


_NUMERATORS = {"thm1": (_thm1_numerators, 1), "thm2": (_thm2_numerators, 2)}


def _split_params(P: ProductFamily, Q: ProductFamily, split: str) -> tuple[int, ...]:
    names = ("x", "y", "r", "R") if split == "thm1" else ("x", "y", "z", "r", "R", "rho")
    record = P.params or {}
    if any(n not in record for n in names):
        raise ValueError(f"{split} split needs families built with parameters {names}")
    values = tuple(record[n] for n in names)
    maker = thm1_families if split == "thm1" else thm2_families
    expected = maker(P.modulus, *values)
    if (P.bases, Q.bases) != (expected[0].bases, expected[1].bases) or (
        P.modulus != Q.modulus
    ):
        raise ValueError(f"families do not match the {split} product shapes")
    return values


def decompositions(
    P: ProductFamily,
    Q: ProductFamily,
    L: int,
    order: int,
    split: str = "none",
    reciprocal_q: QSeries | None = None,
):
    """Yield the decomposition of every index i = 1..L, in order.

    One denominator reciprocal D_i per index is shared by the addend and
    all split groups; see the module docstring.  ``reciprocal_q`` may pass
    in 1/Q(L) when the caller has it already.  Split groups are yielded at
    the engine's integer scale (Thm2 doubled).
    """
    if split not in SPLIT_MODES:
        raise ValueError(f"split must be one of {SPLIT_MODES}, got {split!r}")
    if not isinstance(L, int) or isinstance(L, bool) or L < 1:
        raise ValueError(f"L must be a positive integer, got {L!r}")
    if split == "none":
        numerators, scale, values = None, 1, ()
    else:
        (numerators, scale), values = _NUMERATORS[split], _split_params(P, Q, split)
    f = spec_reciprocal(Q.spec(L), order) if reciprocal_q is None else reciprocal_q
    for i in range(1, L + 1):
        d = divide_binomials(f, P.step_exponents(i))
        f_next = multiply_binomials(d, Q.step_exponents(i))
        t = (i - 1) * P.modulus
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


def _at_index(items, i: int) -> AddendDecomposition:
    """The i-th item of the engine's walk; the caller has checked 1 <= i <= L."""
    return next(islice(items, i - 1, None))


def addend(P: ProductFamily, Q: ProductFamily, i: int, L: int, order: int) -> QSeries:
    """The i-th telescoping addend of 1/P(L) - 1/Q(L), truncated."""
    _check_index(i, L)
    return _at_index(decompositions(P, Q, L, order), i).addend


def _split_families(split: str, params):
    """(L, P, Q) for a Thm1 sextuple or a Thm2 octuple."""
    if split == "thm1":
        L, m, *rest = _validate_params(params, 6, "sextuple")
        return L, *thm1_families(m, *rest)
    if split == "thm2":
        L, m, *rest = _validate_params(params, 8, "octuple")
        return L, *thm2_families(m, *rest)
    raise ValueError(f"split must be thm1 or thm2, got {split!r}")


def thm1_split(params, i: int, order: int) -> AddendDecomposition:
    """Split a three-base addend into the two nonnegative pieces V and W."""
    L, P, Q = _split_families("thm1", params)
    _check_index(i, L)
    return _at_index(decompositions(P, Q, L, order, "thm1"), i)


def thm2_split(params, i: int, order: int) -> AddendDecomposition:
    """Split a four-base addend into nonnegative half-weighted groups.

    The first index gets three groups; later indices get four, the last of
    which is the piece whose positivity rests on the two-variable kernel in
    the lemma module.
    """
    L, P, Q = _split_families("thm2", params)
    _check_index(i, L)
    return _at_index(decompositions(P, Q, L, order, "thm2"), i).unscaled()


def certify_split(split: str, params, order: int) -> dict[str, Any]:
    """Split certificate for one Thm1 sextuple or Thm2 octuple.

    Checks that every split group is nonnegative, that the groups sum to
    their addend, that every addend and the difference 1/P(L) - 1/Q(L) are
    nonnegative, and that the addends sum to the difference exactly.
    Returns {"ok", "witness"}; the witness is the first failed check.
    The addends are differences of consecutive F_j, so the telescoping
    check compares the end of the walk, F_L, with a direct expansion of
    1/P(L).
    """
    L, P, Q = _split_families(split, params)
    reciprocal_q = spec_reciprocal(Q.spec(L), order)
    diff = series_sub(spec_reciprocal(P.spec(L), order), reciprocal_q)
    total = QSeries.zero(order)
    witness = None

    def note(found):
        nonlocal witness
        if witness is None:
            witness = found

    for dec in decompositions(P, Q, L, order, split, reciprocal_q):
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
    P: ProductFamily,
    Q: ProductFamily,
    L: int,
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
    for dec in decompositions(P, Q, L, order, split):
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
        "L": L,
        "order": order,
        "split": split,
        "rows": rows,
        "all_nonnegative": all_nonnegative,
    }
    if dump_series:
        report["series"] = dumps
    return report
