"""Per-group-divide and list-kernel references for the addends and their splits.

`reference_addend` and `reference_thm{1,2}_split` are the original,
deliberately direct per-index addend and Thm1/Thm2 split bodies: every
addend and every split group builds its own numerator and divides it by
the full denominator P(i) * Q(L)/Q(i-1), one binomial at a time, and the
half-weighted Thm2 groups are halved as rationals.  They share no state
between indices or groups, so they pin the incremental engine in
`qdominance.antitelescope` from outside.  P and Q are the length-L product
specs; `layer_exponents` reads their factor layers off.
`reference_exponents` is the per-family factor loop that `ProductSpec`
replaced.

`list_decompositions`, `list_certify_split`, `list_positivity_scan` and
`list_split_series` are the shared-denominator engine as it ran on the
list kernels, one `QSeries` per addend, group and running total, before
it was packed.  They read the pair's layers, split table and sizes
through the `antitelescope` module at call time, so a test that patches
those patches both engines alike.  `group_negatives` and
`groups_sum_to_addend` read one decomposition the way that engine did.
"""

from __future__ import annotations

from fractions import Fraction

from qdominance import antitelescope
from qdominance.antitelescope import AddendDecomposition
from qdominance.dominance import nbase_pair
from qdominance.series import (
    QSeries,
    require_series_work,
    serialize,
)
from reference_series import (
    _norm,
    divide_binomial,
    divide_binomials,
    first_negative,
    monomial,
    multiply_binomial,
    multiply_binomials,
    poly_from_exponents,
    series_add,
    series_scale,
    series_shift,
    series_sub,
    spec_reciprocal,
    zero_series,
)

HALF = Fraction(1, 2)


def _divide_all(series: QSeries, exponents) -> QSeries:
    for e in exponents:
        series = divide_binomial(series, e)
    return series


def _product_term(order: int, lead: int, binomial_exponents) -> QSeries:
    """q^lead times the product of (1 - q^e) over the given exponents."""
    out = monomial(lead, order)
    for e in binomial_exponents:
        out = multiply_binomial(out, e)
    return out


def thm_pair(values):
    """The product pair of a Thm1 sextuple or Thm2 octuple (L, m, sizes, multipliers)."""
    L, m, *rest = values
    half = len(rest) // 2
    return nbase_pair(rest[:half], rest[half:], m, L)


def layer_exponents(spec, lo: int, hi: int) -> list[int]:
    """Factor exponents of the spec's layers lo .. hi-1."""
    return [b + j * spec.modulus for j in range(lo, hi) for b in spec.bases]


def reference_exponents(bases, modulus: int, length, order: int) -> list[int]:
    """The factor exponents of a product, one factor family per base.

    Each base b contributes b + j*modulus for j = 0, 1, ... until the
    family's length runs out (never, for INF) or the exponent passes the
    order.
    """
    out = []
    for base in bases:
        j = 0
        while j != length:
            e = base + j * modulus
            if e > order:
                break
            out.append(e)
            j += 1
    return out


def denominator_exponents(P, Q, i: int, L: int) -> list[int]:
    """Factor exponents of P(i) * Q(L)/Q(i-1)."""
    return layer_exponents(P, 0, i) + layer_exponents(Q, i - 1, L)


def reference_addend(P, Q, i: int, L: int, order: int) -> QSeries:
    numerator = series_sub(
        poly_from_exponents(layer_exponents(Q, i - 1, i), order),
        poly_from_exponents(layer_exponents(P, i - 1, i), order),
    )
    return _divide_all(numerator, denominator_exponents(P, Q, i, L))


def reference_thm1_split(params, i: int, order: int) -> AddendDecomposition:
    L, m, x, y, r, R = params
    P, Q = nbase_pair((x, y), (r, R), m, L)
    denominator = denominator_exponents(P, Q, i, L)
    t = (i - 1) * m
    v = _divide_all(
        _product_term(order, t + y, [(R - 1) * y, x, t + r * x]), denominator
    )
    w = _divide_all(
        _product_term(order, t + x, [(r - 1) * x, R * y, t + y]), denominator
    )
    base = reference_addend(P, Q, i, L, order)
    return AddendDecomposition(i, base, (("V", v), ("W", w)), t)


def reference_thm2_split(params, i: int, order: int) -> AddendDecomposition:
    L, m, x, y, z, r, R, rho = params
    P, Q = nbase_pair((x, y, z), (r, R, rho), m, L)
    denominator = denominator_exponents(P, Q, i, L)
    t = (i - 1) * m
    a, b, c = r * x, R * y, rho * z

    def piece(lead, exps):
        return _product_term(order, lead, exps)

    if i == 1:
        doubled = {
            "G1": series_add(
                piece(x, [(r - 1) * x, b, c, y + z]),
                piece(x, [(r - 1) * x, y, z, b + c]),
            ),
            "G2": series_add(
                piece(y, [(R - 1) * y, c, a, z + x]),
                piece(y, [(R - 1) * y, z, x, c + a]),
            ),
            "G3": series_add(
                piece(z, [(rho - 1) * z, x, y, a + b]),
                piece(z, [(rho - 1) * z, a, b, x + y]),
            ),
        }
    else:
        doubled = {
            "G1": series_add(
                piece(t + x, [(r - 1) * x, t + b, t + c, y + z]),
                piece(t + x, [(r - 1) * x, t + y, t + z, b + c]),
            ),
            "G2": series_add(
                piece(t + y, [(R - 1) * y, t + c, t + a, z + x]),
                piece(t + y, [(R - 1) * y, t + z, t + x, c + a]),
            ),
            "G3": piece(t + z, [(rho - 1) * z, t + x, t + y, a + b]),
            "G4": series_add(
                piece(t + z, [(rho - 1) * z, t + a, t + b, x + y]),
                piece(t + z + x + y, [(rho - 1) * z, 2 * t, (r - 1) * x, (R - 1) * y]),
            ),
        }
    groups = tuple(
        (name, series_scale(_divide_all(numerator, denominator), HALF))
        for name, numerator in doubled.items()
    )
    base = reference_addend(P, Q, i, L, order)
    return AddendDecomposition(i, base, groups, t)


def list_decompositions(P, Q, order: int, split: str = "none", reciprocal_q=None):
    """The shared-denominator walk on the list kernels; see `antitelescope.decompositions`."""
    if split not in antitelescope.SPLIT_MODES:
        raise ValueError(f"split must be one of {antitelescope.SPLIT_MODES}, got {split!r}")
    m, L = antitelescope._layers(P, Q)
    numerators, scale, values = None, 1, ()
    if split != "none":
        n, numerators, scale = antitelescope._SPLITS[split]
        xs, rs = antitelescope.nbase_params(P, Q)
        if len(xs) != n:
            raise ValueError(f"the {split} split needs {n} sizes, the pair has {len(xs)}")
        values = xs + tuple(r * x for r, x in zip(rs, xs))
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


def group_negatives(dec: AddendDecomposition) -> dict:
    """Each group's first negative coefficient, at its true value."""
    out = {}
    for name, g in dec.groups:
        neg = first_negative(g)
        if neg is not None and dec.scale != 1:
            neg = (neg[0], _norm(Fraction(neg[1], dec.scale)))
        out[name] = neg
    return out


def groups_sum_to_addend(dec: AddendDecomposition) -> bool:
    total = zero_series(dec.addend.order)
    for _, g in dec.groups:
        total = series_add(total, g)
    if dec.scale != 1:
        return total == series_scale(dec.addend, dec.scale)
    return total == dec.addend


def _sum_pieces(d: QSeries, pieces) -> QSeries:
    total = zero_series(d.order)
    for lead, exponents in pieces:
        total = series_add(total, multiply_binomials(series_shift(d, lead), exponents))
    return total


def list_certify_split(P, Q, order: int, split: str) -> dict:
    """The split certificate on the list kernels; see `antitelescope.certify_split`."""
    if split not in antitelescope._SPLITS:
        raise ValueError(f"split must be one of {tuple(antitelescope._SPLITS)}, got {split!r}")
    require_series_work((P, Q), order)
    reciprocal_p, reciprocal_q = spec_reciprocal(P, order), spec_reciprocal(Q, order)
    diff = series_sub(reciprocal_p, reciprocal_q)
    total = zero_series(order)
    witness = None

    def note(found):
        nonlocal witness
        if witness is None:
            witness = found

    for dec in list_decompositions(P, Q, order, split, reciprocal_q):
        i = dec.index
        for name, neg in group_negatives(dec).items():
            if neg is not None:
                note({"i": i, "location": name, "exponent": neg[0], "coefficient": neg[1]})
        if not groups_sum_to_addend(dec):
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


def list_positivity_scan(P, Q, order: int, split: str = "none", dump_series: bool = False) -> dict:
    """The per-index scan on the list kernels; see `antitelescope.positivity_scan`."""
    require_series_work((P, Q), order)
    rows = []
    dumps = []
    for dec in list_decompositions(P, Q, order, split):
        rows.append({"i": dec.index, "addend": first_negative(dec.addend), "groups": group_negatives(dec)})
        if dump_series:
            entry = {"i": dec.index, "addend": serialize(dec.addend)}
            if split != "none":
                entry["groups"] = {name: serialize(g) for name, g in dec.unscaled().groups}
            dumps.append(entry)
    report = {
        "L": len(rows),
        "order": order,
        "split": split,
        "rows": rows,
        "all_nonnegative": all(
            row["addend"] is None and all(v is None for v in row["groups"].values()) for row in rows
        ),
    }
    if dump_series:
        report["series"] = dumps
    return report


def list_split_series(params, order: int) -> tuple[QSeries, QSeries]:
    """(sum of V(i), sum of W(i)) on the list kernels; see `partitions.split_series`."""
    v_total = zero_series(order)
    w_total = zero_series(order)
    for dec in list_decompositions(*params.pair, order, "thm1"):
        groups = dict(dec.groups)
        v_total = series_add(v_total, groups["V"])
        w_total = series_add(w_total, groups["W"])
    return v_total, w_total
