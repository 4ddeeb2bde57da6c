"""The reverse-SSYT kernels against references that keep their first,
plainer form.

The references below are the slide, rectification, eviction, dominant-path
and shift-report code as first written: the slide reads every neighbour
through the grid and builds records through their constructors, eviction
rescans a ``taken`` list for every survivor, and the dominant path reads
slots through ``Filling.entry``.  The library versions must agree with them
exactly on every small instance: the rectified tableau, every trace (class,
steps and order), the shift report and the eviction report.
"""

from __future__ import annotations

import pytest

from ctrect.ct_rectify import _eviction
from ctrect.jeu_de_taquin import (
    SlideStep,
    SlideTrace,
    _dominant_path,
    _rectify_cells,
    _vacate,
    shifting_entries,
)
from ctrect.polynomials import enumerate_rssyt, partitions
from ctrect.tableaux import Filling, check_invariant

MAX_CELLS = 6
MAX_ENTRY = 6
# Per cell count: tableaux, and (tableau, k) cases.  They add up to the
# 8,113 tableaux of the 6/6 dominance sweep and the 19,148 cases of lemma42.
TABLEAUX = {1: 6, 2: 36, 3: 146, 4: 561, 5: 1812, 6: 5552}
CASES = {1: 6, 2: 51, 3: 256, 4: 1131, 5: 4104, 6: 13600}


def reference_slide_out(grid: list[list[int | None]], er: int, ec: int, removed: int) -> SlideTrace:
    steps: list[SlideStep] = []
    while True:
        below = grid[er + 1][ec] if er + 1 < len(grid) and ec < len(grid[er + 1]) else 0
        right = grid[er][ec + 1] if ec + 1 < len(grid[er]) else 0
        below = 0 if below is None else below
        right = 0 if right is None else right
        if below == 0 and right == 0:
            break
        if below >= right:  # the lower neighbor wins ties
            grid[er][ec] = below
            grid[er + 1][ec] = None
            steps.append(SlideStep((er + 2, ec + 1), (er + 1, ec + 1), below, "up"))
            er += 1
        else:
            grid[er][ec] = right
            grid[er][ec + 1] = None
            steps.append(SlideStep((er + 1, ec + 2), (er + 1, ec + 1), right, "left"))
            ec += 1
    _vacate(grid, er, ec)
    return SlideTrace(removed, tuple(steps), (er + 1, ec + 1))


def reference_rectify_cells(t: Filling, k: int) -> tuple[Filling, list[SlideTrace]]:
    grid: list[list[int | None]] = [list(row) for row in t.rows]
    for i in range(k):
        grid[i][0] = None
    traces = [reference_slide_out(grid, i, 0, t.rows[i][0]) for i in range(k - 1, -1, -1)]
    traces.reverse()  # report by cell: largest removed entry first
    out = check_invariant("rssyt", Filling._trusted(grid), "slides broke the tableau rules")
    return out, traces


def reference_shifting_entries(traces: list[SlideTrace]) -> dict[int, list[int]]:
    report: dict[int, list[int]] = {}
    for trace in traces:
        for _, c, e in trace.left_shifts():
            report.setdefault(c, []).append(e)
    return report


def reference_eviction(t: Filling, k: int) -> dict[int, list[int]]:
    survivors = t.column(1)[k:]
    report: dict[int, list[int]] = {}
    for c in range(2, t.width + 1):
        entries = t.column(c)  # decreasing top to bottom
        taken = [False] * len(entries)
        matched = []
        for s in survivors:
            for i, e in enumerate(entries):
                if not taken[i] and e <= s:
                    taken[i] = True
                    matched.append(e)
                    break
        shifting = [e for i, e in enumerate(entries) if not taken[i]]
        if shifting:
            report[c] = shifting
        survivors = matched
    return report


def reference_dominant_path(t: Filling) -> list[tuple[int, int, int]]:
    path: list[tuple[int, int, int]] = []
    min_row = 1
    for c in range(2, t.width + 1):
        found = None
        for r in range(min_row, t.n_rows + 1):
            v = t.entry(r, c)
            if v == 0:
                break  # columns are top-justified
            if v > t.entry(r + 1, c - 1):
                found = (r, c, v)  # topmost dominant entry is the largest
                break
        if found is None:
            break
        path.append(found)
        min_row = found[0]
    return path


def _tableaux(m: int) -> list[Filling]:
    return [t for shape in partitions(m) for t in enumerate_rssyt(shape, MAX_ENTRY)]


@pytest.mark.parametrize("m", range(1, MAX_CELLS + 1))
def test_rectification_and_eviction_match_reference(m):
    cases = 0
    for t in _tableaux(m):
        for k in range(1, t.n_rows + 1):
            out, traces = _rectify_cells(t, k)
            ref_out, ref_traces = reference_rectify_cells(t, k)
            where = (t.rows, k)
            assert out == ref_out, where
            # A record equals only a record of its own class, so this also
            # compares the class of every trace and step.
            assert traces == ref_traces, where
            assert shifting_entries(traces) == reference_shifting_entries(ref_traces), where
            assert _eviction(t, k) == reference_eviction(t, k), where
            cases += 1
    assert cases == CASES[m]


@pytest.mark.parametrize("m", range(1, MAX_CELLS + 1))
def test_dominant_path_matches_reference(m):
    tableaux = _tableaux(m)
    for t in tableaux:
        assert _dominant_path(t) == reference_dominant_path(t), t.rows
    assert len(tableaux) == TABLEAUX[m]


def test_empty_tableau_has_no_path():
    assert _dominant_path(Filling()) == reference_dominant_path(Filling()) == []
