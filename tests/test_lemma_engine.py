"""The one-pass lemma certificate and the kernel's row-wise expansion
against the cell-by-cell reference."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_lemma as reference
from qdominance import lemma
from qdominance.lemma import (
    MAX_LATTICE_CELLS,
    LatticeCapError,
    LemmaParams,
    certify_lemma,
    check_lattice,
    kernel_term,
)

multiplier = st.integers(1, 6)


@st.composite
def lemma_bounds(draw):
    """(nt, nx, ny) up to (6, 20, 24): square about half the time, zero sides included."""
    nt = draw(st.integers(0, 6))
    nx = draw(st.integers(0, 20))
    ny = draw(st.one_of(st.just(nx), st.integers(0, 24)))
    return (nt, nx, ny)


@settings(max_examples=120, deadline=None)
@given(multiplier, multiplier, lemma_bounds())
def test_certificate_matches_the_reference(r, R, bounds):
    got = certify_lemma(r, R, bounds)
    assert json.dumps(got) == json.dumps(reference.lemma_report(r, R, bounds))


@settings(max_examples=40, deadline=None)
@given(multiplier, multiplier, lemma_bounds())
def test_views_match_the_reference(r, R, bounds):
    params = LemmaParams(r, R, bounds)
    got = certify_lemma(r, R, bounds)
    assert got["window"] == reference.negativity_window(params)
    if bounds[1] == bounds[2]:
        assert got["symmetry"] == reference.symmetry_check(r, R, bounds)


def test_kernel_expansion_matches_the_reference():
    # zero sides, non-square and square x/y bounds
    for bounds in [(0, 0, 0), (3, 6, 7), (2, 0, 5), (5, 3, 0), (6, 13, 9), (4, 16, 16)]:
        for r in range(1, 7):
            for R in range(1, 7):
                got = lemma.f_expand(LemmaParams(r, R, bounds))
                want = reference.expand_rational(kernel_term(r, R), bounds)
                assert got == want.coeffs, (r, R, bounds)
                assert all(type(c) is int for plane in got for row in plane for c in row)


@pytest.mark.parametrize(
    "r, R, bounds, expansions",
    [
        (2, 3, (3, 6, 6), 2),  # r != R, square: f and the swapped kernel
        (2, 2, (3, 6, 6), 1),  # r == R: symmetry is a transpose of f
        (2, 3, (3, 6, 7), 1),  # not square: no symmetry check
        (4, 1, (2, 0, 0), 2),
    ],
)
def test_kernel_is_expanded_at_most_twice(monkeypatch, r, R, bounds, expansions):
    calls = []
    real = lemma.f_expand

    def counting(params):
        calls.append((params.r, params.R))
        return real(params)

    monkeypatch.setattr(lemma, "f_expand", counting)
    certify_lemma(r, R, bounds)
    assert len(calls) == expansions
    assert calls[0] == (r, R)


def _shift_cell(tri, n, j, k, by):
    tri[n][j][k] += by
    return tri


def _grids_edit(n, edits):
    """A wrapper for eqtwo_term_grids that adds `by` to cell (j, k) of the
    named term grids of slice n."""

    def wrap(real):
        def patched(m, params):
            grids = real(m, params)
            if m == n:
                named = dict(grids)
                for name, j, k, by in edits:
                    named[name][j][k] += by
            return grids

        return patched

    return wrap


def _expansion_edit(target, n, j, k, by):
    """A wrapper for f_expand that moves one cell of the (r, R) = target lattice."""

    def wrap(real):
        def patched(params):
            tri = real(params)
            if (params.r, params.R) == target:
                _shift_cell(tri, n, j, k, by)
            return tri

        return patched

    return wrap


@pytest.mark.parametrize(
    "r, R, target, edit, witness",
    [
        # a negative cell in f wins over the slice mismatch it also causes
        (2, 3, "f_expand", _expansion_edit((2, 3), 1, 0, 0, -100), "expansion_nonnegative"),
        # one term made negative outside the window also moves the slice sum
        (2, 3, "eqtwo_term_grids", _grids_edit(1, [("T1", 0, 0, -1)]), "slices_match"),
        # the same negative term, balanced by T8, leaves the sum unchanged
        (2, 3, "eqtwo_term_grids", _grids_edit(1, [("T1", 0, 0, -1), ("T8", 0, 0, 1)]), "window"),
        # only the swapped kernel moves
        (2, 3, "f_expand", _expansion_edit((3, 2), 2, 1, 4, 1), "symmetry"),
        # with r == R an asymmetric f also breaks its slices, which win
        (2, 2, "f_expand", _expansion_edit((2, 2), 2, 1, 4, 1), "slices_match"),
    ],
)
def test_witness_precedence(monkeypatch, r, R, target, edit, witness):
    bounds = (3, 8, 8)
    monkeypatch.setattr(lemma, target, edit(getattr(lemma, target)))
    monkeypatch.setattr(reference, target, edit(getattr(reference, target)))
    got = certify_lemma(r, R, bounds)
    assert got["ok"] is False
    assert got["witness"]["check"] == witness
    assert json.dumps(got) == json.dumps(reference.lemma_report(r, R, bounds))


def test_lattice_bound_is_checked_before_expanding(monkeypatch):
    def refuse(*args):
        raise AssertionError("the lattice bound must be checked before any expansion")

    monkeypatch.setattr(lemma, "f_expand", refuse)
    monkeypatch.setattr(lemma, "eqtwo_term_grids", refuse)
    # (0+1)(0+1)(MAX+1) cells: one above the bound
    with pytest.raises(LatticeCapError, match=str(MAX_LATTICE_CELLS)):
        certify_lemma(1, 1, (0, 0, MAX_LATTICE_CELLS))
    with pytest.raises(LatticeCapError):
        check_lattice((100, 9900, 0))
    check_lattice((0, 0, MAX_LATTICE_CELLS - 1))
    check_lattice((99, 99, 99))
