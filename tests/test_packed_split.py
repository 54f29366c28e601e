"""The packed split engine against the list-kernel engine it replaced.

`antitelescope` walks the addends and split groups as packed residues
(`series._Signed`); `reference_split.list_*` is the same walk on the list
kernels.  Certificates, scans (with and without dumps), the public
decompositions and the summed V/W series must agree on Thm1/Thm2 pairs,
on pairs whose split is patched to fail in each of the certificate's
ways, and on the non-n-base pairs that are only scanned.  The width
tests check that every series the engine reads fits its proven slots.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdominance import antitelescope, dominance, series
from qdominance.antitelescope import certify_split, decompositions, positivity_scan
from qdominance.partitions import PartitionParams, split_series
from qdominance.series import QSeries, product_spec, reciprocal_from_exponents
from reference_split import (
    list_certify_split,
    list_decompositions,
    list_positivity_scan,
    list_split_series,
    thm_pair,
)
from reference_series import (
    divide_binomials,
    exponents,
    multiply_binomial,
    multiply_binomials,
    series_add,
    series_mul,
    series_scale,
    series_shift,
    series_sub,
    spec_reciprocal,
    zero_series,
)

sizes = st.integers(1, 5)
orders = st.integers(1, 150)
thm1_values = st.tuples(*[sizes] * 6)
thm2_values = st.tuples(*[sizes] * 8)
thm_values = st.one_of(thm1_values, thm2_values)


def split_of(values) -> str:
    return "thm1" if len(values) == 6 else "thm2"


@settings(max_examples=60, deadline=None)
@given(thm_values, orders)
def test_certificate_matches_list_engine(values, order):
    P, Q = thm_pair(values)
    split = split_of(values)
    assert certify_split(P, Q, order, split) == list_certify_split(P, Q, order, split)


@settings(max_examples=40, deadline=None)
@given(thm_values, st.integers(1, 60), st.booleans())
def test_scan_matches_list_engine(values, order, dump):
    P, Q = thm_pair(values)
    split = split_of(values)
    for mode in ("none", split):
        want = list_positivity_scan(P, Q, order, mode, dump)
        assert positivity_scan(P, Q, order, mode, dump) == want


@settings(max_examples=40, deadline=None)
@given(thm_values, st.integers(0, 60))
def test_decompositions_match_list_engine(values, order):
    P, Q = thm_pair(values)
    split = split_of(values)
    assert list(decompositions(P, Q, order, split)) == list(list_decompositions(P, Q, order, split))


@settings(max_examples=40, deadline=None)
@given(thm1_values, st.integers(0, 80))
def test_split_series_matches_list_engine(values, order):
    L, m, x, y, r, R = values
    params = PartitionParams(m, x, y, r, R, L)
    assert split_series(params, order) == list_split_series(params, order)


def unsplit_pairs():
    """Pairs that are not n-base: finiteRR, BGa, BGr, Proposal with n = 4, 5, random bases."""
    L = st.integers(1, 5)
    finite_rr = L.map(lambda n: (product_spec((1, 4), 5, n), product_spec((2, 3), 5, n)))
    bga = st.tuples(st.integers(3, 12), st.integers(1, 11), L).filter(lambda v: v[1] < v[0]).map(
        lambda v: (product_spec((1, v[0] - 1), v[0], v[2]), product_spec((v[1], v[0] - v[1]), v[0], v[2]))
    )
    bgr = st.tuples(st.sampled_from((3, 5, 7)), L).map(
        lambda v: (
            product_spec((1, v[0] + 2, 2 * v[0]), 2 * v[0] + 2, v[1]),
            product_spec((2, v[0], 2 * v[0] + 1), 2 * v[0] + 2, v[1]),
        )
    )
    proposal = st.integers(4, 5).flatmap(
        lambda n: st.tuples(st.lists(sizes, min_size=n, max_size=n), st.lists(sizes, min_size=n, max_size=n), sizes, L)
    ).map(lambda v: dominance.nbase_pair(*v))
    bases = st.lists(st.integers(1, 12), min_size=1, max_size=5)
    loose = st.tuples(bases, bases, st.integers(1, 12), L).map(
        lambda v: (product_spec(v[0], v[2], v[3]), product_spec(v[1], v[2], v[3]))
    )
    return st.one_of(finite_rr, bga, bgr, proposal, loose)


@settings(max_examples=60, deadline=None)
@given(unsplit_pairs(), st.integers(0, 120), st.booleans())
def test_unsplit_scan_matches_list_engine(pair, order, dump):
    assert positivity_scan(*pair, order, "none", dump) == list_positivity_scan(*pair, order, "none", dump)


# --- forced witnesses --------------------------------------------------------
#
# Every Thm1/Thm2 point certifies, so each way the certificate can fail is
# forced by a patch that both engines see: a group numerator made negative
# or made not to sum to its addend, the pair reversed with no groups (a
# negative addend, or with no layers a negative difference), or a walk that
# stops one layer short (the telescope).


def _negative_group(numerators):
    def patched(values, t):
        (name, _), *rest = numerators(values, t)
        return ((name, [(t + 1, (1, 1, 1, 1, 1, 1))]), *rest)

    return patched


def _extra_piece(numerators):
    def patched(values, t):
        *rest, (name, pieces) = numerators(values, t)
        return (*rest, (name, [*pieces, (t, ())]))

    return patched


def _no_groups(values, t):
    return ()


def patch(mp, kind: str, split: str) -> bool:
    """Apply the patch for one witness kind; True when the pair must be reversed."""
    n, numerators, scale = antitelescope._SPLITS[split]
    if kind == "group":
        mp.setitem(antitelescope._SPLITS, split, (n, _negative_group(numerators), scale))
    elif kind == "group-sum":
        mp.setitem(antitelescope._SPLITS, split, (n, _extra_piece(numerators), scale))
    elif kind == "telescope":
        layers = antitelescope._layers
        mp.setattr(antitelescope, "_layers", lambda P, Q: (layers(P, Q)[0], layers(P, Q)[1] - 1))
    else:  # "addend" and "difference": the reversed pair with scale 0 and no groups
        mp.setitem(antitelescope._SPLITS, split, (n, _no_groups, 0))
        mp.setattr(antitelescope, "nbase_params", lambda P, Q: dominance.nbase_params(Q, P))
        if kind == "difference":
            mp.setattr(antitelescope, "_layers", lambda P, Q: (P.modulus, 0))
        return True
    return False


KINDS = ("group", "group-sum", "addend", "difference", "telescope")


@pytest.mark.parametrize(
    "kind, values, location",
    [
        ("group", (2, 2, 1, 2, 2, 2), "V"),
        ("group", (2, 2, 1, 2, 1, 2, 2, 2), "G1"),
        ("group-sum", (2, 2, 1, 2, 2, 2), "group-sum"),
        ("group-sum", (2, 2, 1, 2, 1, 2, 2, 2), "group-sum"),
        ("addend", (2, 2, 1, 2, 2, 2), "addend"),
        ("addend", (2, 2, 1, 2, 1, 2, 2, 2), "addend"),
        ("difference", (2, 2, 1, 2, 2, 2), "difference"),
        ("difference", (2, 2, 1, 2, 1, 2, 2, 2), "difference"),
        ("telescope", (2, 2, 1, 2, 2, 2), "telescope"),
        ("telescope", (2, 2, 1, 2, 1, 2, 2, 2), "telescope"),
    ],
)
def test_each_witness_kind_is_forced(kind, values, location, monkeypatch):
    split = split_of(values)
    P, Q = thm_pair(values)
    if patch(monkeypatch, kind, split):
        P, Q = Q, P
    got = certify_split(P, Q, 40, split)
    assert not got["ok"] and got["witness"]["location"] == location
    assert got == list_certify_split(P, Q, 40, split)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(KINDS), thm_values, st.integers(1, 50))
def test_forced_witnesses_match_list_engine(kind, values, order):
    split = split_of(values)
    P, Q = thm_pair(values)
    with pytest.MonkeyPatch.context() as mp:
        reversed_pair = patch(mp, kind, split)
        if reversed_pair:
            P, Q = Q, P
        assert certify_split(P, Q, order, split) == list_certify_split(P, Q, order, split)
        if not reversed_pair:  # the reversed pair's groups have scale 0
            want = list_positivity_scan(P, Q, order, split, True)
            assert positivity_scan(P, Q, order, split, True) == want


def divide_calls(mp) -> list[list[int]]:
    """The exponent lists that `_Signed.divide` receives from here on."""
    divide, calls = series._Signed.divide, []

    def counted(packing, x, exponents):
        calls.append(list(exponents))
        return divide(packing, x, exponents)

    mp.setattr(series._Signed, "divide", counted)
    return calls


@pytest.mark.parametrize(
    "values, order",
    [((3, 2, 1, 2, 2, 2), 40), ((3, 2, 1, 2, 1, 2, 2, 2), 40), ((10**6, 2, 1, 2, 2, 2), 10)],
)
def test_a_passing_certificate_never_expands_one_over_p(values, order, monkeypatch):
    # The last F times P's binomials is 1, so neither the staged pair nor a
    # divide by all of P's factors runs; P's layers are each a proper part.
    def refuse(*args):
        raise AssertionError("the split certificate expands no reciprocal pair")

    monkeypatch.setattr(series._Signed, "reciprocal_pair", refuse)
    calls = divide_calls(monkeypatch)
    P, Q = thm_pair(values)
    assert len(exponents(P, order)) > len(P.bases)
    assert certify_split(P, Q, order, split_of(values)) == {"ok": True, "witness": None}
    assert exponents(Q, order) in calls and exponents(P, order) not in calls


@pytest.mark.parametrize("values", [(2, 2, 1, 2, 2, 2), (2, 2, 1, 2, 1, 2, 2, 2)])
def test_a_failed_telescope_reports_a_negative_difference_first(values, monkeypatch):
    # The reversed pair walked over no index: its last F is 1/Q, which P's
    # binomials do not take to 1, and 1/P - 1/Q has a negative coefficient.
    # 1/P is expanded on this path, and the difference comes first.
    split = split_of(values)
    patch(monkeypatch, "difference", split)
    Q, P = thm_pair(values)
    walk = antitelescope._Walk(P, Q, 40, split)
    packing, (exponents_p, exponents_q) = walk.packing, walk.exponents
    assert packing.times_binomials(packing.divide(1, exponents_q), exponents_p) & packing.mask != 1
    calls = divide_calls(monkeypatch)
    got = certify_split(P, Q, 40, split)
    assert got["witness"]["location"] == "difference" and exponents_p in calls
    assert got == list_certify_split(P, Q, 40, split)


# --- widths ------------------------------------------------------------------


def read_series(P, Q, order: int, split: str) -> list[QSeries]:
    """Every series the engine reads or compares, from the list engine."""
    reciprocal_p, reciprocal_q = spec_reciprocal(P, order), spec_reciprocal(Q, order)
    out = [reciprocal_p, reciprocal_q, series_sub(reciprocal_p, reciprocal_q)]
    total = zero_series(order)
    group_totals: dict[str, QSeries] = {}
    for dec in list_decompositions(P, Q, order, split):
        total = series_add(total, dec.addend)
        group_sum = zero_series(order)
        for name, g in dec.groups:
            group_sum = series_add(group_sum, g)
            group_totals[name] = series_add(group_totals.get(name, zero_series(order)), g)
        out += [dec.addend, series_scale(dec.addend, dec.scale), total, group_sum]
        out += [g for _, g in dec.groups]
    return out + list(group_totals.values())


@settings(max_examples=60, deadline=None)
@given(thm_values, st.integers(0, 120), st.booleans())
def test_every_read_series_fits_a_quarter_of_its_slot(values, order, split_groups):
    P, Q = thm_pair(values)
    split = split_of(values) if split_groups else "none"
    bits = antitelescope._Walk(P, Q, order, split).packing.bits
    largest = max(abs(c) for s in read_series(P, Q, order, split) for c in s.coeffs)
    assert largest < 1 << bits - 2


@pytest.mark.parametrize(
    "values, order", [((4, 2, 1, 2, 3, 2, 2, 3), 400), ((6, 1, 1, 1, 1, 2, 2, 2), 300), ((5, 1, 1, 1, 5, 5), 500)]
)
def test_deep_read_series_fit_a_quarter_of_their_slot(values, order):
    P, Q = thm_pair(values)
    split = split_of(values)
    bits = antitelescope._Walk(P, Q, order, split).packing.bits
    largest = max(abs(c) for s in read_series(P, Q, order, split) for c in s.coeffs)
    assert largest < 1 << bits - 2


def test_width_is_the_proven_bound():
    # B = c + bit_length(min(L, order // m + 1) * K) + 2 in whole bytes, c
    # bounding 1/(P * Q), K the largest L1 norm of a read numerator at the
    # engine's scale.
    rng = random.Random(7)
    for _ in range(600):
        n = rng.choice((2, 3))
        values = (rng.randrange(1, 7), *(rng.randrange(1, 6) for _ in range(2 * n + 1)))
        order = rng.randrange(0, 400)
        split = rng.choice(("none", split_of(values)))
        P, Q = thm_pair(values)
        scale, pieces = {"none": (1, 0), "thm1": (1, 2 * 2**3), "thm2": (2, 7 * 2**4)}[split]
        K = max(scale * 2 * 2 ** (n + 1), pieces)
        factors = [e for e in exponents(P, order) + exponents(Q, order) if e <= order]
        c = series._coeff_bits(factors, order)
        indices = min(values[0], order // values[1] + 1)
        want = max(8, -(-(c + (indices * K).bit_length() + 2) // 8) * 8)
        assert antitelescope._Walk(P, Q, order, split).packing.bits == want
        # a per-index walk reads one index at a time: B = c + bit_length(K) + 2
        want = max(8, -(-(c + K.bit_length() + 2) // 8) * 8)
        assert antitelescope._Walk(P, Q, order, split, per_index=True).packing.bits == want


@pytest.mark.parametrize(
    "values, order",
    [((1, 1, 1, 1), 10), ((2, 3, 1, 2), 40), ((3, 1, 1, 2, 2, 1), 60), ((1, 2, 3, 1, 1, 1), 7)],
)
@pytest.mark.parametrize("m", [1, 2, 5])
def test_width_counts_only_the_summed_indices(values, order, m):
    # the walks that sum over i stop at the first t = (i-1)m above the
    # order, so a huge L needs no wider slots than L = order // m + 1
    split = split_of((1, m, *values))
    widths = [
        antitelescope._Walk(*thm_pair((L, m, *values)), order, split).packing.bits
        for L in (10**9, order // m + 1)
    ]
    assert widths[0] == widths[1]


def test_split_walk_widths_follow_the_saddle_bound():
    # At order 60 the product bound alone gave these walks 104 and 152 bits.
    assert antitelescope._Walk(*thm_pair((4, 3, 1, 2, 2, 3)), 60, "thm1").packing.bits == 40
    assert antitelescope._Walk(*thm_pair((4, 2, 1, 1, 2, 2, 2, 3)), 60, "thm2").packing.bits == 56


@settings(max_examples=60, deadline=None)
@given(thm_values, st.integers(0, 120), st.booleans())
def test_per_index_read_series_fit_a_quarter_of_their_slot(values, order, split_groups):
    # the scan and the dump read each index's addend and groups, never a sum over i
    P, Q = thm_pair(values)
    split = split_of(values) if split_groups else "none"
    bits = antitelescope._Walk(P, Q, order, split, per_index=True).packing.bits
    read = [s for dec in list_decompositions(P, Q, order, split) for s in (dec.addend, *(g for _, g in dec.groups))]
    assert max(abs(c) for s in read for c in s.coeffs) < 1 << bits - 2


@pytest.mark.parametrize(
    "pair, split, per_index, summing",
    [(((1, 2), (2, 2), 1, 100), "thm1", 56, 64), (((1, 1, 2), (2, 2, 2), 1, 61), "thm2", 64, 72)],
)
def test_per_index_walks_take_one_index_width(pair, split, per_index, summing):
    # at order 60 these walks are one byte narrower per slot than a summing walk
    P, Q = dominance.nbase_pair(*pair)
    assert antitelescope._Walk(P, Q, 60, split, per_index=True).packing.bits == per_index
    assert antitelescope._Walk(P, Q, 60, split).packing.bits == summing
    assert positivity_scan(P, Q, 60, split, True) == list_positivity_scan(P, Q, 60, split, True)


def test_coefficient_bound_is_near_the_largest_coefficient():
    # Where the product bound is above a machine word, `_coeff_bits` takes
    # the saddle bound, which stays within 16 bits of the largest
    # coefficient of 1/(P * Q); the product bound's slack there has a
    # median of about 64 bits.
    rng = random.Random(60)
    order, checked = 60, 0
    for _ in range(200):
        n = rng.choice((2, 3))
        P, Q = thm_pair(tuple(rng.randrange(1, 5) for _ in range(2 * n + 2)))
        factors = [e for e in exponents(P, order) + exponents(Q, order) if e <= order]
        if series._product_bits(factors, order) <= 64:
            continue
        largest = max(reciprocal_from_exponents(factors, order).coeffs).bit_length()
        assert largest <= series._coeff_bits(factors, order) <= largest + 16
        checked += 1
    assert checked >= 80


@settings(max_examples=40, deadline=None)
@given(thm_values, st.integers(0, 100), st.booleans())
def test_walk_values_stay_below_the_modulus(values, order, split_groups):
    # Every series the walk hands on is below M in absolute value, so none
    # grows past its slots, and the last F times P's binomials is 1.
    P, Q = thm_pair(values)
    walk = antitelescope._Walk(P, Q, order, split_of(values) if split_groups else "none")
    packing, (exponents_p, exponents_q) = walk.packing, walk.exponents
    M = packing.mask + 1
    f = packing.divide(1, exponents_q)
    assert 0 <= f < M
    for _, _, addend, groups in walk.steps(f):
        assert all(-M < x < M for x in (addend, *(g for _, g in groups)))
        f += addend
    assert packing.times_binomials(f, exponents_p) & packing.mask == 1


# --- signed packing ----------------------------------------------------------


def pack(coeffs, bits: int, mask: int) -> int:
    return sum(c << n * bits for n, c in enumerate(coeffs)) & mask


@pytest.mark.parametrize("bits", [8, 16, 24, 32, 40, 64, 72])
def test_signed_residues_read_back(bits):
    rng = random.Random(bits)
    for _ in range(200):
        order = rng.randrange(0, 40)
        packing = series._Signed(order, bits)
        top = 1 << bits - 1
        coeffs = [rng.choice((-top, top - 1, -1, 0, 1, rng.randrange(-top, top))) for _ in range(order + 1)]
        x = pack(coeffs, bits, packing.mask)
        assert packing.decode(x) == QSeries(order, tuple(coeffs))
        first = next(((n, c) for n, c in enumerate(coeffs) if c < 0), None)
        assert packing.negative(x) == first
        assert packing.negative(x + 5 * packing.mask + 5) == first  # any representative


@pytest.mark.parametrize("size", range(1, 10))
def test_signed_negatives_are_the_top_bits_of_the_negative_slots(size):
    # |coefficients| below 2^(B-1), both extremes and 0 among them, read from
    # a residue, from x + M and x - M, and from the exact signed int (a lemma plane)
    bits = 8 * size
    top = (1 << bits - 1) - 1
    rng = random.Random(size)
    for _ in range(100):
        coeffs = [-top, top, 0] + [rng.randint(-top, top) for _ in range(rng.randrange(0, 38))]
        rng.shuffle(coeffs)
        packing = series._Signed(len(coeffs) - 1, bits)
        exact = sum(c << n * bits for n, c in enumerate(coeffs))
        x, M = exact & packing.mask, packing.mask + 1
        want = sum(1 << (n + 1) * bits - 1 for n, c in enumerate(coeffs) if c < 0)
        first = next((n, c) for n, c in enumerate(coeffs) if c < 0)
        assert first[0] == ((want & -want).bit_length() - 1) // bits
        for y in (x, x + M, x - M, exact):
            assert packing.negatives(y) == want
            assert packing.negative(y) == first


@pytest.mark.parametrize("bits", [8, 16, 24])
def test_signed_ring_operations(bits):
    rng = random.Random(bits)
    for _ in range(100):
        order = rng.randrange(0, 30)
        packing = series._Signed(order, bits)
        coeffs = [rng.randrange(-3, 4) for _ in range(order + 1)]
        exps = [rng.randrange(0, order + 3) for _ in range(rng.randrange(0, 3))]
        want = QSeries(order, tuple(coeffs))
        for e in exps:
            want = multiply_binomial(want, e)
        got = packing.times_binomials(pack(coeffs, bits, packing.mask), exps)
        assert packing.decode(got) == want


@st.composite
def packed_inputs(draw):
    """(packing, a, x): x is a packed + k * M, any representative of a's residue.

    The coefficients of a may be far wider than the slots, so only the
    residue of a is held, and the operations must still map it to the
    residue of their result.
    """
    order = draw(st.integers(0, 40))
    packing = series._Signed(order, draw(st.sampled_from((8, 16, 24, 64))))
    coeffs = draw(st.lists(st.integers(-(2**80), 2**80), min_size=order + 1, max_size=order + 1))
    k = draw(st.integers(-(2**70), 2**70))
    x = pack(coeffs, packing.bits, packing.mask) + k * (packing.mask + 1)
    return packing, QSeries(order, tuple(coeffs)), x


def residue(packing, a: QSeries) -> int:
    return pack(a.coeffs, packing.bits, packing.mask)


@settings(max_examples=150, deadline=None)
@given(packed_inputs(), st.lists(st.integers(1, 45), max_size=4))
def test_signed_divide_is_a_ring_homomorphism(packed, exps):
    packing, a, x = packed
    got = packing.divide(x, exps) & packing.mask
    assert got == residue(packing, divide_binomials(a, exps))


@settings(max_examples=150, deadline=None)
@given(packed_inputs(), st.data())
def test_signed_product_is_a_ring_homomorphism(packed, data):
    packing, a, x = packed
    width = a.order + 1
    coeffs = data.draw(st.lists(st.integers(-(2**80), 2**80), min_size=width, max_size=width))
    b = QSeries(a.order, tuple(coeffs))
    y = residue(packing, b) + data.draw(st.integers(-(2**70), 2**70)) * (packing.mask + 1)
    assert (x * y) & packing.mask == residue(packing, series_mul(a, b))


pieces = st.lists(st.tuples(st.integers(0, 45), st.lists(st.integers(0, 45), max_size=3)), max_size=4)


@settings(max_examples=150, deadline=None)
@given(packed_inputs(), st.integers(0, 45), pieces)
def test_signed_shift_and_pieces_are_ring_homomorphisms(packed, lead, more):
    packing, a, x = packed
    assert packing.times_pieces(x, [(lead, [])]) == residue(packing, series_shift(a, lead))
    want = zero_series(a.order)
    for piece_lead, exps in more:
        want = series_add(want, series_shift(multiply_binomials(a, exps), piece_lead))
    assert packing.times_pieces(x, more) == residue(packing, want)
