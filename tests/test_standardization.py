"""Standardization commutes with the kernels.

Standardizing a tableau labels its cells 1..n in increasing order of value,
ties broken from the rightmost column leftwards, so of equal values the
rightmost cell takes the smallest label.  The columns of a reverse SSYT and
of a composition tableau hold distinct entries, so the order is total.  If
every kernel commutes with it, each semistandard instance of a property
that depends only on the order of entries is a relabelled standard one,
and a sweep over standard tableaux reaches more cells for the same time.
Here the premise is checked at 5/5.
"""

from __future__ import annotations

import pytest

from ctrect import Filling, violations
from ctrect.bijection import _rho
from ctrect.ct_rectify import _eviction, _phi
from ctrect.jeu_de_taquin import SlideStep, SlideTrace, _rectify_cells
from ctrect.polynomials import compositions, enumerate_ct, enumerate_rssyt, partitions

MAX_CELLS = 5
MAX_ENTRY = 5


def standardize(f: Filling) -> tuple[Filling, list[int]]:
    """The standardized filling, and the value of each label (index 0 unused)."""
    order = sorted((v, -c, r) for r, row in enumerate(f.rows) for c, v in enumerate(row))
    label = {(r, -neg_c): i for i, (_, neg_c, r) in enumerate(order, start=1)}
    rows = tuple(tuple(label[r, c] for c in range(len(row))) for r, row in enumerate(f.rows))
    return Filling(rows), [0] + [v for v, _, _ in order]


def relabel(f: Filling, values: list[int]) -> Filling:
    return Filling(tuple(tuple(None if v is None else values[v] for v in row) for row in f.rows))


def relabel_trace(trace: SlideTrace, values: list[int]) -> SlideTrace:
    steps = tuple(SlideStep(a, b, values[e], d) for a, b, e, d in trace.steps)
    return SlideTrace(values[trace.removed_entry], steps, trace.vacated_cell)


def test_standardize_on_a_worked_example():
    # The two 2s: the one in column 2 takes label 1, the one in column 1 label 2.
    s, values = standardize(Filling([[3, 2], [2]]))
    assert s == Filling([[3, 1], [2]])
    assert values == [0, 2, 2, 3]
    assert relabel(s, values) == Filling([[3, 2], [2]])


def all_of(shapes, enumerate_kind):
    return [f for m in range(1, MAX_CELLS + 1) for shape in shapes(m) for f in enumerate_kind(shape, MAX_ENTRY)]


@pytest.fixture(scope="module")
def cts():
    tableaux = all_of(compositions, enumerate_ct)
    assert len(tableaux) == 1141
    return tableaux


@pytest.fixture(scope="module")
def rssyts():
    tableaux = all_of(partitions, enumerate_rssyt)
    assert len(tableaux) == 1141
    return tableaux


def test_standardized_composition_tableau_is_one(cts):
    for u in cts:
        assert violations("ct", standardize(u)[0]) == [], u.rows


def test_rho_commutes_with_standardization(cts):
    for u in cts:
        assert _rho(standardize(u)[0]) == standardize(_rho(u))[0], u.rows


def test_phi_commutes_with_standardization(cts):
    for u in cts:
        s, values = standardize(u)
        for k in range(1, u.n_rows + 1):
            assert relabel(_phi(s, k, None), values) == _phi(u, k, None), (u.rows, k)


def test_slides_commute_with_standardization(rssyts):
    # The result, and in every trace the removed entry, each step's cells
    # and entry, and the vacated cell.
    for t in rssyts:
        s, values = standardize(t)
        for k in range(1, t.n_rows + 1):
            out, traces = _rectify_cells(s, k)
            want, want_traces = _rectify_cells(t, k)
            assert relabel(out, values) == want, (t.rows, k)
            assert [relabel_trace(trace, values) for trace in traces] == want_traces, (t.rows, k)


def test_eviction_commutes_with_standardization(rssyts):
    for t in rssyts:
        s, values = standardize(t)
        for k in range(1, t.n_rows + 1):
            report = {c: [values[e] for e in entries] for c, entries in _eviction(s, k).items()}
            assert report == _eviction(t, k), (t.rows, k)
