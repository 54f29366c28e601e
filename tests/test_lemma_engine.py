"""The packed lemma certificate against the cell-by-cell and row-wise references."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_lemma as reference
from qdominance import lemma
from qdominance.lemma import (
    MAX_LATTICE_CELLS,
    LemmaParams,
    Planes,
    certify_lemma,
    check_lattice,
    kernel_term,
    packings,
    slice_planes,
    slice_terms,
)
from qdominance.polyring import MultiPoly, RationalTerm, decide_identity
from qdominance.series import ResourceError

multiplier = st.integers(1, 6)


@st.composite
def lemma_bounds(draw):
    """(nt, nx, ny): up to (6, 20, 24), square about half the time, zero sides
    included; or a deep lattice, nt in [12, 40] over a box of at most 4 x 4,
    whose slots are wider than 16 bits from nt = 31 (nt = 35 when r or R
    is 1) on."""
    if draw(st.booleans()):
        nt = draw(st.integers(12, 40))
        nx = draw(st.integers(0, 4))
        ny = draw(st.one_of(st.just(nx), st.integers(0, 4)))
    else:
        nt = draw(st.integers(0, 6))
        nx = draw(st.integers(0, 20))
        ny = draw(st.one_of(st.just(nx), st.integers(0, 24)))
    return (nt, nx, ny)


WINDOW_CHECKS = ("sum_without_t2_nonnegative", "window_contained")


def project_window(window: dict) -> dict:
    """The reference's window report in the certificate's shape.

    T2 equals its closed form by construction, which is asserted; that
    check, the slice totals' sign and minimum, the echo of r, R and the
    bounds, and `ok` are dropped.
    """
    assert window["checks"]["t2_matches_closed_form"] is True
    checks = {name: window["checks"][name] for name in WINDOW_CHECKS}
    return {"checks": checks, "negative_term_cells": window["negative_term_cells"]}


def project(report: dict) -> dict:
    """The reference's lemma report in the certificate's shape.

    Where every slice matches, the slice totals are f's planes, so their
    sign is expansion_nonnegative and their minimum min(0, f's minimum):
    both are asserted before `project_window` drops them.  `checks.window`
    and a window witness are recomputed from the two checks left.  The
    reference checks the symmetry on square boxes only, cell by cell; it
    is replaced by the verdict of lemma's `kernel-symmetry` row, which
    holds for every box.
    """
    window, checks = report["window"], report["checks"]
    if checks["slices_match"]:
        assert window["checks"]["total_nonnegative"] == checks["expansion_nonnegative"]
        assert window["min_total_coefficient"] == min(0, report["min_coefficient"])
    _, nx, ny = report["bounds"]
    if nx != ny:
        assert report["symmetry"] is None
    symmetry = decide_identity(dict(lemma.IDENTITIES)["kernel-symmetry"])
    projected = project_window(window)
    witness = report["witness"]
    if witness is not None and witness["check"] == "window":
        witness = {"check": "window", "details": projected["checks"]}
    elif witness is None or witness["check"] == "symmetry":
        witness = None if symmetry.equal else {"check": "symmetry", "details": symmetry.witness}
    return {
        **report,
        "checks": {**checks, "window": all(projected["checks"].values()), "symmetry": symmetry.equal},
        "window": projected,
        "symmetry": {"equal": symmetry.equal, "first_mismatch": symmetry.witness},
        "ok": witness is None,
        "witness": witness,
    }


@settings(max_examples=120, deadline=None)
@given(multiplier, multiplier, lemma_bounds())
def test_certificate_matches_the_reference(r, R, bounds):
    got = certify_lemma(r, R, bounds)
    assert json.dumps(got) == json.dumps(project(reference.lemma_report(r, R, bounds)))


def test_deep_lattices_need_wide_slots():
    # the strategy above reaches f slots wider than 16 bits, and the reference agrees there
    assert packings(LemmaParams(2, 3, (40, 2, 2)))[0].bits > 16
    for bounds in [(40, 2, 2), (35, 0, 3), (31, 4, 4)]:
        got = certify_lemma(2, 3, bounds)
        assert json.dumps(got) == json.dumps(project(reference.lemma_report(2, 3, bounds)))


@settings(max_examples=40, deadline=None)
@given(multiplier, multiplier, lemma_bounds())
def test_views_match_the_reference(r, R, bounds):
    params = LemmaParams(r, R, bounds)
    got = certify_lemma(r, R, bounds)
    assert got["window"] == project_window(reference.negativity_window(params))
    if bounds[1] == bounds[2]:
        assert got["symmetry"] == reference.symmetry_check(r, R, bounds)


def _largest_cell(lattice) -> int:
    return max(c for plane in lattice for row in plane for c in row)


def _halves(term: RationalTerm):
    """The numerator's positive and negative monomials, each over the term's factors."""
    items = term.numerator.terms.items()
    positive = MultiPoly(term.numerator.variables, {e: c for e, c in items if c > 0})
    negative = MultiPoly(term.numerator.variables, {e: -c for e, c in items if c < 0})
    return [RationalTerm(half, term.denominator_factors) for half in (positive, negative)]


@pytest.mark.parametrize(
    "r, R, bounds",
    [(1, 1, (40, 3, 3)), (2, 3, (30, 6, 6)), (5, 1, (31, 2, 9)), (4, 4, (12, 12, 12)), (3, 2, (0, 5, 5))],
)
def test_slot_width_holds_every_half_and_slice_sum(r, R, bounds):
    params = LemmaParams(r, R, bounds)
    f_planes, scan = packings(params)
    assert f_planes.bits >= scan.bits
    top = 1 << f_planes.bits - 1
    for half in _halves(kernel_term(r, R)):
        assert _largest_cell(reference.expand_rational(half, bounds).coeffs) < top
    # in the scan's slots: the 18 slice terms' positive halves, then their
    # negative halves: each one, and their sum
    top = 1 << scan.bits - 1
    terms = [term for _, group in slice_terms(r, R) for term in group]
    for halves in zip(*map(_halves, terms)):
        lattices = [reference.expand_rational(half, bounds).coeffs for half in halves]
        assert max(map(_largest_cell, lattices)) < top
        total = [[list(map(sum, zip(*rows))) for rows in zip(*planes)] for planes in zip(*lattices)]
        assert _largest_cell(total) < top
    for n in range(bounds[0] + 1):
        grids = dict(reference.eqtwo_term_grids(n, params))
        sums = [grid for grid in grids.values()]
        sums.append([list(map(sum, zip(*rows))) for rows in zip(*grids.values())])
        others = [grid for name, grid in grids.items() if name != "T2"]
        sums.append([list(map(sum, zip(*rows))) for rows in zip(*others)])
        assert max(abs(c) for grid in sums for row in grid for c in row) < top


def test_workload_lattices_scan_in_narrower_slots():
    # on lattices of the size lemma requests run, f needs 16-bit slots and the slice scan 8
    for r in range(1, 6):
        for R in range(1, 6):
            for bounds in [(9, 36, 36), (10, 40, 40), (11, 44, 44), (5, 20, 20), (7, 28, 28)]:
                f_planes, scan = packings(LemmaParams(r, R, bounds))
                assert (f_planes.bits, scan.bits) == (16, 8), (r, R, bounds)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([(8, 16), (16, 32), (8, 32), (8, 64)]),
    st.integers(0, 5),
    st.integers(0, 5),
    st.data(),
)
def test_narrowing_keeps_the_cells_that_fit(widths, nx, ny, data):
    narrow_bits, wide_bits = widths
    wide, narrow = (Planes((0, nx, ny), (1 << bits - 2) + 1) for bits in (wide_bits, narrow_bits))
    assert (wide.bits, narrow.bits) == (wide_bits, narrow_bits)
    top, edge = 1 << wide_bits - 1, 1 << narrow_bits - 1
    cell = st.one_of(st.integers(-edge, edge - 1), st.integers(-top + 1, top - 1), st.sampled_from([-edge - 1, edge]))
    rows = [[data.draw(cell) for _ in range(ny + 1)] for _ in range(nx + 1)]
    plane = sum(c << (j * wide.width + k) * wide_bits for j, row in enumerate(rows) for k, c in enumerate(row))
    [got] = narrow.narrowed([plane], wide)
    if all(-edge <= c < edge for row in rows for c in row):
        assert reference.unpack(narrow, got) == rows
    else:
        assert got is None


@pytest.mark.parametrize("seed", range(12))
def test_minimum_matches_the_decoding_reading(seed):
    # f's planes as expanded, with every cell raised by 1 (no zero cell, so
    # `minimum` decodes), and with one cell lowered below 0
    rng = random.Random(seed)
    r, R = rng.randint(1, 6), rng.randint(1, 6)
    bounds = (rng.randint(0, 12), rng.randint(0, 12), rng.randint(0, 12))
    params = LemmaParams(r, R, bounds)
    planes, _ = packings(params)
    tri = lemma.f_expand(params, planes)
    n, cell = rng.randrange(len(tri)), rng.randrange(planes.cells)
    drop = planes.decode(tri[n])[cell] + rng.randint(1, 9)
    lowered = tri[:n] + [tri[n] - (drop << cell * planes.bits)] + tri[n + 1 :]
    raised = [plane + planes.ones for plane in tri]
    assert max(max(planes.decode(plane)) for plane in raised) < 1 << planes.bits - 1
    for case in (tri, raised, lowered):
        want = min(min(planes.decode(plane)) for plane in case)
        assert planes.minimum(case) == reference.decoding_minimum(planes, case) == want
    assert planes.minimum(raised) > 0 and planes.minimum(lowered) < 0


def test_planes_past_the_box_diagonal_are_zero():
    # every numerator monomial and every t-factor of f and of the slice terms has
    # an x + y degree at least its t degree, so plane n is 0 in the box past nx + ny
    def degrees_cover_t(poly):
        return all(n <= a + b for (n, a, b) in poly.terms)

    for r in range(1, 7):
        for R in range(1, 7):
            terms = [kernel_term(r, R), *(term for _, group in slice_terms(r, R) for term in group)]
            for term in terms:
                assert degrees_cover_t(term.numerator), (r, R, term)
                for factor in term.denominator_factors:
                    assert degrees_cover_t(factor), (r, R, factor)


def test_kernel_expansion_matches_the_reference():
    # zero sides, non-square and square x/y bounds
    for bounds in [(0, 0, 0), (3, 6, 7), (2, 0, 5), (5, 3, 0), (6, 13, 9), (4, 16, 16)]:
        for r in range(1, 7):
            for R in range(1, 7):
                params = LemmaParams(r, R, bounds)
                got = reference.lattice(params)
                want = reference.expand_rational(kernel_term(r, R), bounds)
                assert got == want.coeffs, (r, R, bounds)
                assert got == reference.rowwise_f_expand(params), (r, R, bounds)


@pytest.mark.parametrize("bounds", [(7, 9, 12), (5, 0, 4), (9, 21, 3), (12, 30, 30)])
def test_term_planes_match_the_rowwise_grids(bounds):
    _, nx, ny = bounds
    for r in range(1, 5):
        for R in range(1, 5):
            params = LemmaParams(r, R, bounds)
            _, planes = packings(params)
            packed = list(slice_planes(params, planes))
            for n in range(bounds[0] + 1):
                terms = reference.eqtwo_symbolic(n, r, R)
                rowwise = [reference.rowwise_evaluate(m, powers, nx, ny) for _, m, powers in terms]
                assert [name for name, _ in packed] == [name for name, _, _ in terms]
                # the planes past nx + ny are not expanded, and are 0 in the box
                unpacked = [reference.unpack(planes, grids[n] if n < planes.depth else 0) for _, grids in packed]
                assert unpacked == rowwise, (r, R, n)
                total = reference.unpack(planes, sum(grids[n] for _, grids in packed if n < planes.depth))
                assert total == reference.row_sums(rowwise), (r, R, n)


@pytest.mark.parametrize("bounds", [(29, 40, 40), (6, 3, 17), (12, 20, 5)])
def test_t2_negative_cells_are_the_window(bounds):
    """The scan's window mask is T2's negative cells: they are the reference's
    explicit window, and where it is not empty T2 is minus its indicator."""
    _, nx, ny = bounds
    for r in range(1, 8):
        for R in range(1, 8):
            params = LemmaParams(r, R, bounds)
            _, planes = packings(params)
            t2 = dict(slice_planes(params, planes))["T2"]
            for n in range(bounds[0] + 1):
                window = sum(
                    1 << (j * planes.width + k) * planes.bits
                    for j in range(nx + 1)
                    for k in range(ny + 1)
                    if reference._in_window(n, j, k, r, R)
                )
                assert planes.negatives(t2[n]) == window << planes.bits - 1, (r, R, n)
                if r < n:
                    assert t2[n] == -window, (r, R, n)


@pytest.mark.parametrize(
    "r, R, bounds",
    [
        (2, 3, (3, 6, 6)),  # r != R, square
        (2, 2, (3, 6, 6)),  # r == R
        (2, 3, (3, 6, 7)),  # not square
        (4, 1, (2, 0, 0)),
    ],
)
def test_kernel_is_expanded_once(monkeypatch, r, R, bounds):
    calls = []
    real = lemma.f_expand

    def counting(params, planes):
        calls.append((params.r, params.R))
        return real(params, planes)

    monkeypatch.setattr(lemma, "f_expand", counting)
    certify_lemma(r, R, bounds)
    assert calls == [(r, R)]


def _grids_edit(n, edits):
    """A wrapper for slice_planes, or for the reference's eqtwo_term_grids,
    that adds `by` to cell (j, k) of slice n of the named terms."""

    def wrap(real):
        def patched(first, second):
            if isinstance(first, LemmaParams):
                # slice_planes(params, planes): each term's planes of every slice
                planes = second
                terms = list(real(first, planes))
                for name, grids in terms:
                    for j, k, by in (edit[1:] for edit in edits if edit[0] == name):
                        grids[n] += by << (j * planes.width + k) * planes.bits
                return terms
            # eqtwo_term_grids(m, params): each term's grid of slice m
            grids = real(first, second)
            for name, grid in grids if first == n else []:
                for j, k, by in (edit[1:] for edit in edits if edit[0] == name):
                    grid[j][k] += by
            return grids

        return patched

    return wrap


def _expansion_edit(target, n, j, k, by):
    """A wrapper for f_expand, packed or the reference's, that moves one cell
    of the (r, R) = target lattice."""

    def wrap(real):
        def patched(params, planes=None):
            hit = (params.r, params.R) == target
            if planes is None:
                tri = real(params)
                if hit:
                    tri[n][j][k] += by
                return tri
            tri = real(params, planes)
            if hit:
                tri[n] += by << (j * planes.width + k) * planes.bits
            return tri

        return patched

    return wrap


def _failing_symmetry(real):
    """lemma's table with a `kernel-symmetry` row whose pair differs by 1 at one monomial."""
    variables = ("t", "x", "y", "X", "Y")

    def sides():
        [(lhs, rhs)] = lemma.kernel_symmetry_sides()
        return [(lhs + [RationalTerm(MultiPoly(variables, {(0,) * 5: 1}))], rhs)]

    return tuple((name, sides if name == "kernel-symmetry" else row) for name, row in real)


# the reference function that plays a patched one's part, where the names differ
REFERENCE_TWINS = {"slice_planes": "eqtwo_term_grids"}


@pytest.mark.parametrize(
    "r, R, target, edit, witness",
    [
        # a negative cell in f wins over the slice mismatch it also causes
        (2, 3, "f_expand", _expansion_edit((2, 3), 1, 0, 0, -100), "expansion_nonnegative"),
        # one term made negative outside the window also moves the slice sum
        (2, 3, "slice_planes", _grids_edit(1, [("T1", 0, 0, -1)]), "slices_match"),
        # the same negative term, balanced by T8, leaves the sum unchanged
        (2, 3, "slice_planes", _grids_edit(1, [("T1", 0, 0, -1), ("T8", 0, 0, 1)]), "window"),
        # only the symmetry identity fails: it is checked after the window
        (2, 3, "IDENTITIES", _failing_symmetry, "symmetry"),
        # with r == R an asymmetric f also breaks its slices, which win
        (2, 2, "f_expand", _expansion_edit((2, 2), 2, 1, 4, 1), "slices_match"),
        # an f cell that does not fit the scan's slots breaks its slice
        (2, 3, "f_expand", _expansion_edit((2, 3), 2, 1, 1, 1000), "slices_match"),
    ],
)
def test_witness_precedence(monkeypatch, r, R, target, edit, witness):
    bounds = (5, 8, 8)
    f_planes, scan = packings(LemmaParams(r, R, bounds))
    assert (f_planes.bits, scan.bits) == (16, 8)
    monkeypatch.setattr(lemma, target, edit(getattr(lemma, target)))
    twin = REFERENCE_TWINS.get(target, target)
    if hasattr(reference, twin):
        monkeypatch.setattr(reference, twin, edit(getattr(reference, twin)))
    got = certify_lemma(r, R, bounds)
    assert got["ok"] is False
    assert got["witness"]["check"] == witness
    assert json.dumps(got) == json.dumps(project(reference.lemma_report(r, R, bounds)))


def test_lattice_bound_is_checked_before_expanding(monkeypatch):
    def refuse(*args):
        raise AssertionError("the lattice bound must be checked before any expansion")

    monkeypatch.setattr(lemma, "Planes", refuse)
    monkeypatch.setattr(lemma, "f_expand", refuse)
    monkeypatch.setattr(lemma, "slice_planes", refuse)
    monkeypatch.setattr(lemma, "_expand_term", refuse)
    # (0+1)(0+1)(MAX+1) cells: one above the bound
    with pytest.raises(ResourceError, match=f"lattice of {MAX_LATTICE_CELLS + 1} cells, above the lemma bound"):
        certify_lemma(1, 1, (0, 0, MAX_LATTICE_CELLS))
    with pytest.raises(ResourceError, match=f"above the lemma bound {MAX_LATTICE_CELLS}$"):
        check_lattice((100, 9900, 0))
    check_lattice((0, 0, MAX_LATTICE_CELLS - 1))
    check_lattice((99, 99, 99))
