"""The packed lemma certificate against the cell-by-cell and row-wise references,
and against the packed certificate that expanded f on its own."""

import json
import random
import tracemalloc

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
    whose slots are 16 bits wide from nt = 20 (nt = 19 for some r and R)
    on, and 8 bits below."""
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

    The reference compares f with the slice sums cell by cell, and they
    match: that is asserted, and the comparison is replaced by the verdict
    of lemma's `kernel-slices` row, which holds for every n.  So the slice
    totals are f's planes, their sign is expansion_nonnegative and their
    minimum min(0, f's minimum): both are asserted before `project_window`
    drops them.  `checks.window` is recomputed from the two checks left.
    The reference checks the symmetry on square boxes only, cell by cell;
    it is replaced by the verdict of lemma's `kernel-symmetry` row, which
    holds for every box.  The witness is then the first failed check.
    """
    window, checks = report["window"], report["checks"]
    assert checks["slices_match"] is True
    assert window["checks"]["total_nonnegative"] == checks["expansion_nonnegative"]
    assert window["min_total_coefficient"] == min(0, report["min_coefficient"])
    _, nx, ny = report["bounds"]
    if nx != ny:
        assert report["symmetry"] is None
    rows = dict(lemma.IDENTITIES)
    slices, symmetry = decide_identity(rows["kernel-slices"]), decide_identity(rows["kernel-symmetry"])
    projected = project_window(window)
    window_ok = all(projected["checks"].values())
    witness = report["witness"]
    if checks["expansion_nonnegative"]:
        witness = None
        if not slices.equal:
            witness = {"check": "slices_match", "details": slices.witness}
        elif not window_ok:
            witness = {"check": "window", "details": projected["checks"]}
        elif not symmetry.equal:
            witness = {"check": "symmetry", "details": symmetry.witness}
    return {
        **report,
        "checks": {**checks, "slices_match": slices.equal, "window": window_ok, "symmetry": symmetry.equal},
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
    # the strategy above reaches 16-bit slots, and the reference agrees there
    assert packings(LemmaParams(2, 3, (40, 2, 2))).bits == 16
    for bounds in [(40, 2, 2), (35, 0, 3), (20, 4, 4)]:
        got = certify_lemma(2, 3, bounds)
        assert json.dumps(got) == json.dumps(project(reference.lemma_report(2, 3, bounds)))
    # slots wider than 16 bits, from nt = 5500, against the certificate that expanded f
    for bounds in [(6000, 2, 2), (8000, 0, 3), (5500, 1, 1)]:
        assert packings(LemmaParams(2, 3, bounds)).bits == 24
        assert json.dumps(certify_lemma(2, 3, bounds)) == json.dumps(reference.expanded_f_certificate(2, 3, bounds))


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
    # the 18 slice terms' positive halves, then their negative halves: each
    # one, and their sum
    top = 1 << packings(params).bits - 1
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


@pytest.mark.parametrize("seed", range(12))
def test_minimum_matches_the_decoding_reading(seed):
    # f's planes, the slice totals, with every cell raised by 1 (no zero
    # cell, so `minimum` decodes), and with one cell lowered below 0
    rng = random.Random(seed)
    r, R = rng.randint(1, 6), rng.randint(1, 6)
    bounds = (rng.randint(0, 12), rng.randint(0, 12), rng.randint(0, 12))
    params = LemmaParams(r, R, bounds)
    planes = packings(params)
    _, tri = lemma._scan_slices(params, planes)
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
                # the certificate's slice totals are the same planes
                planes = packings(params)
                _, totals = lemma._scan_slices(params, planes)
                assert reference.padded(planes, params, totals) == got, (r, R, bounds)


@st.composite
def plane_writes(draw):
    """(nx, ny, monomials, px): a box of at most 13 x 13 cells and nonnegative
    monomials, some past it, with coefficients up to 2^20."""
    nx, ny = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    monomial = st.tuples(st.integers(0, 1 << 20), st.integers(0, nx + 3), st.integers(0, ny + 3))
    return nx, ny, draw(st.lists(monomial, max_size=6)), draw(st.sampled_from((0, 1)))


@settings(max_examples=200, deadline=None)
@given(plane_writes())
def test_plane_writer_matches_the_byte_row_writer(write):
    nx, ny, monomials, px = write
    # a cell of the monomials over (1-x)^px (1-y) is at most the sum of their coefficients
    planes = Planes((0, nx, ny), sum(c for c, _, _ in monomials))
    assert planes.expand(monomials, px) == reference.byte_row_expand(planes, monomials, px)


def _certify_at(side: str, m: int, bounds) -> dict:
    """The certificate with the multiplier `side` at m and the other at 2, without the field `side`."""
    got = certify_lemma(*((m, 2) if side == "r" else (2, m)), bounds)
    return {k: v for k, v in got.items() if k != side}


@pytest.mark.parametrize("bounds", [(10, 40, 40), (5, 3, 7), (20, 6, 2)])
@pytest.mark.parametrize("side", ["r", "R"])
def test_a_multiplier_past_the_box_certifies_as_the_one_just_past_it(side, bounds):
    # every monomial with a power of X = x^r has x-degree at least r, so for
    # r > nx the box holds f and the slice terms at X = 0; likewise in R past ny
    edge = bounds[1 if side == "r" else 2] + 1
    want = _certify_at(side, edge, bounds)
    for m in (edge + 1, edge + 7, 10**7, 10**15):
        assert _certify_at(side, m, bounds) == want, m


@pytest.mark.parametrize("side", ["r", "R"])
def test_a_huge_multiplier_allocates_nothing_past_the_box(side):
    # a factor 1 - t^a x^b y^d with b > nx or d > ny is 1 in the box and is
    # skipped, so no plane is shifted by a multiplier's worth of slots
    bounds = (10, 40, 40)
    want = _certify_at(side, 41, bounds)  # decides the identities outside the trace
    tracemalloc.start()
    try:
        got = _certify_at(side, 10**7, bounds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert got == want


@pytest.mark.parametrize("bounds", [(7, 9, 12), (5, 0, 4), (9, 21, 3), (12, 30, 30)])
def test_term_planes_match_the_rowwise_grids(bounds):
    _, nx, ny = bounds
    for r in range(1, 5):
        for R in range(1, 5):
            params = LemmaParams(r, R, bounds)
            planes = packings(params)
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
            planes = packings(params)
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
def test_each_slice_term_is_expanded_once(monkeypatch, r, R, bounds):
    # the 18 terms of the slices, in order, and never f
    expanded = []
    real = lemma._expand_term

    def counting(term, planes):
        expanded.append(term)
        return real(term, planes)

    monkeypatch.setattr(lemma, "_expand_term", counting)
    certify_lemma(r, R, bounds)
    terms = [term for _, group in slice_terms(r, R) for term in group]
    assert len(terms) == 18
    assert list(map(id, expanded)) == list(map(id, terms))
    f = kernel_term(r, R)
    assert all(term is not f for term in expanded)


def _grids_edit(n, edits):
    """A wrapper for slice_planes, or for the reference's eqtwo_term_grids or
    f_expand, that adds `by` to cell (j, k) of slice n of the named terms,
    or of f by the edits' sum, so that f stays the sum of the slices."""

    def wrap(real):
        def patched(first, second=None):
            if isinstance(first, LemmaParams) and second is None:
                # the reference's f_expand(params): f's cells of every slice
                tri = real(first)
                for _, j, k, by in edits:
                    tri[n][j][k] += by
                return tri
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


def _failing(*names):
    """A wrapper for lemma's table whose named rows' pairs differ by 1 at one monomial."""
    variables = ("t", "x", "y", "X", "Y")

    def broken(row):
        def sides():
            [(lhs, rhs)] = row()
            return [(lhs + [RationalTerm(MultiPoly(variables, {(0,) * 5: 1}))], rhs)]

        return sides

    def wrap(real):
        return tuple((name, broken(row) if name in names else row) for name, row in real)

    return wrap


def _failing_symmetry(real):
    return _failing("kernel-symmetry")(real)


def _failing_slices(real):
    return _failing("kernel-slices")(real)


def _failing_rows(real):
    return _failing("kernel-slices", "kernel-symmetry")(real)


# the reference functions that play a patched one's part
REFERENCE_TWINS = {"slice_planes": ("eqtwo_term_grids", "f_expand")}
# one term made negative outside the window, balanced by T8 in the total
BALANCED = _grids_edit(1, [("T1", 0, 0, -1), ("T8", 0, 0, 1)])


def _certify_edited(monkeypatch, r, R, edits) -> dict:
    """The certificate at (5, 8, 8) with each (target, edit) patched into lemma,
    and into the reference's twins; it fails, and is the reference's report
    as projected."""
    bounds = (5, 8, 8)
    assert packings(LemmaParams(r, R, bounds)).bits == 8
    for target, edit in edits:
        monkeypatch.setattr(lemma, target, edit(getattr(lemma, target)))
        for twin in REFERENCE_TWINS.get(target, ()):
            monkeypatch.setattr(reference, twin, edit(getattr(reference, twin)))
    got = certify_lemma(r, R, bounds)
    assert got["ok"] is False
    assert json.dumps(got) == json.dumps(project(reference.lemma_report(r, R, bounds)))
    return got


@pytest.mark.parametrize(
    "r, R, target, edit, witness",
    [
        # one term made negative outside the window also makes the total negative (f's cell is 0)
        (2, 3, "slice_planes", _grids_edit(1, [("T1", 0, 0, -1)]), "expansion_nonnegative"),
        # the same negative term, balanced by T8, leaves the total unchanged
        (2, 3, "slice_planes", BALANCED, "window"),
        # only the slices identity fails
        (2, 3, "IDENTITIES", _failing_slices, "slices_match"),
        # only the symmetry identity fails: it is checked after the window
        (2, 3, "IDENTITIES", _failing_symmetry, "symmetry"),
        # with both rows failing, the slices win
        (2, 2, "IDENTITIES", _failing_rows, "slices_match"),
    ],
)
def test_witness_precedence(monkeypatch, r, R, target, edit, witness):
    got = _certify_edited(monkeypatch, r, R, [(target, edit)])
    assert got["witness"]["check"] == witness


@pytest.mark.parametrize(
    "edit, witness",
    [
        # a negative total cell wins over a failing slices row, and over the window it also breaks
        (_grids_edit(1, [("T1", 0, 0, -100)]), "expansion_nonnegative"),
        # a failing slices row wins over the window
        (BALANCED, "slices_match"),
    ],
)
def test_a_failing_slices_row_comes_after_the_signs_and_before_the_window(monkeypatch, edit, witness):
    got = _certify_edited(monkeypatch, 2, 3, [("slice_planes", edit), ("IDENTITIES", _failing_slices)])
    assert got["checks"]["slices_match"] is False
    assert got["witness"]["check"] == witness


def _seeded_lattices(count: int):
    """(r, R, bounds) with r, R <= 7, nt <= 12 and sides <= 30, zero sides and
    nt > nx + ny among them."""
    rng = random.Random(2013)
    for _ in range(count):
        yield rng.randint(1, 7), rng.randint(1, 7), (rng.randint(0, 12), rng.randint(0, 30), rng.randint(0, 30))


def test_certificate_matches_the_expanded_f_certificate_on_seeded_lattices():
    for r, R, bounds in _seeded_lattices(80):
        assert json.dumps(certify_lemma(r, R, bounds)) == json.dumps(
            reference.expanded_f_certificate(r, R, bounds)
        ), (r, R, bounds)


@pytest.mark.parametrize(
    "r, R, bounds",
    [
        # zero sides
        (1, 1, (0, 0, 0)),
        (3, 2, (7, 0, 0)),
        (2, 5, (0, 12, 0)),
        (4, 4, (5, 0, 9)),
        (1, 6, (12, 30, 0)),
        # nt > nx + ny
        (2, 3, (12, 3, 4)),
        (5, 1, (40, 2, 2)),
        (1, 7, (30, 0, 5)),
        # the largest cube, the widest square and the deepest lattice the cap admits
        (2, 3, (99, 99, 99)),
        (2, 3, (9, 315, 315)),
        (2, 3, (249999, 1, 1)),
    ],
)
def test_certificate_matches_the_expanded_f_certificate(r, R, bounds):
    assert json.dumps(certify_lemma(r, R, bounds)) == json.dumps(reference.expanded_f_certificate(r, R, bounds))


@pytest.mark.parametrize("seed", range(8))
def test_a_one_cell_edit_of_a_slice_term_moves_the_certificate(monkeypatch, seed):
    """A term's nonnegative cell lowered to -1 adds one negative term cell to
    the window report; lowered so that the total there is -1, it makes
    min_coefficient -1."""
    rng = random.Random(seed)
    r, R = rng.randint(1, 6), rng.randint(1, 6)
    bounds = (rng.randint(1, 10), rng.randint(1, 15), rng.randint(1, 15))
    params = LemmaParams(r, R, bounds)
    planes = packings(params)
    clean = certify_lemma(r, R, bounds)
    assert clean["ok"] and clean["min_coefficient"] >= 0
    _, totals = lemma._scan_slices(params, planes)
    name, grids = rng.choice(list(slice_planes(params, planes)))
    n, cell = rng.choice(
        [(n, cell) for n, plane in enumerate(grids) for cell, c in enumerate(planes.decode(plane)) if c >= 0]
    )
    j, k = divmod(cell, planes.width)
    term_cell, total_cell = planes.decode(grids[n])[cell], planes.decode(totals[n])[cell]
    real = lemma.slice_planes

    def edited(by):
        monkeypatch.setattr(lemma, "slice_planes", _grids_edit(n, [(name, j, k, by)])(real))
        return certify_lemma(r, R, bounds)

    got = edited(-1 - term_cell)
    assert got["window"]["negative_term_cells"] == clean["window"]["negative_term_cells"] + 1
    got = edited(-1 - total_cell)
    assert got["min_coefficient"] == -1
    assert got["witness"] == {"check": "expansion_nonnegative", "min_coefficient": -1}


def test_lattice_bound_is_checked_before_expanding(monkeypatch):
    def refuse(*args):
        raise AssertionError("the lattice bound must be checked before any expansion")

    monkeypatch.setattr(lemma, "Planes", refuse)
    monkeypatch.setattr(lemma, "slice_planes", refuse)
    monkeypatch.setattr(lemma, "_expand_term", refuse)
    # (0+1)(0+1)(MAX+1) cells: one above the bound
    with pytest.raises(ResourceError, match=f"lattice of {MAX_LATTICE_CELLS + 1} cells, above the lemma bound"):
        certify_lemma(1, 1, (0, 0, MAX_LATTICE_CELLS))
    with pytest.raises(ResourceError, match=f"above the lemma bound {MAX_LATTICE_CELLS}$"):
        check_lattice((100, 9900, 0))
    check_lattice((0, 0, MAX_LATTICE_CELLS - 1))
    check_lattice((99, 99, 99))
