"""The reverse-SSYT and composition-tableau kernels against references
that keep their first, plainer form.

The references below are the slide, rectification, eviction, dominant-path
and shift-report code as first written: the slide reads every neighbour
through the grid and builds records through their constructors, eviction
rescans a ``taken`` list for every survivor, and the dominant path reads
slots through ``Filling.entry``.  The library versions must agree with them
exactly on every small instance: the rectified tableau, every trace (class,
steps and order), the shift report and the eviction report.

The composition-tableau side keeps ``rho``, ``phi`` and its insertion as
first written too: ``rho`` gathers each column with a per-column duplicate
check before sorting it, and ``phi`` scans every row in every column round
for the next candidates, sorts them with a key function and builds its
snapshot labels on every call.  ``_rho`` must give the same reverse SSYT on
every small composition tableau, and ``_phi`` the same tableau and the same
``phi_steps`` list, labels and snapshot fillings alike, on every (u, k).
The first ``phi`` also tested a hole's right neighbour before placing an
entry there, and so finds no admissible cell on some larger tableaux, the
11-cell ``ELEVEN_CELLS`` among them; past the exhaustive bound ``_phi`` is
held to the detour through reverse SSYT on every (u, k), and to the
reference wherever the reference finishes.

The enumerators keep their recursive form: ``_fillings`` places each cell
in a nested call, collects every filling into a list through the validating
constructor, and ``enumerate_ssyt`` complements the reverse SSYT; the Schur
polynomial sums weight monomials over those SSYT.  The streams, the public
tuples and ``schur_expand`` must give the same tableaux, in the same order,
and the same polynomials.  (The ``lru_cache`` of the public enumerators is
left off the references.)
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Iterable

import pytest
from hypothesis import example, given, settings, strategies as st

from ctrect.bijection import _rho, _rho_inv, rho_inv
from ctrect.ct_rectify import _eviction, _phi, phi_steps
from ctrect.jeu_de_taquin import (
    SlideStep,
    SlideTrace,
    _dominant_path,
    _rectify_cells,
    _vacate,
    shifting_entries,
)
from ctrect.polynomials import (
    Polynomial,
    _ct_fillings,
    _rssyt_fillings,
    compositions,
    enumerate_ct,
    enumerate_rssyt,
    enumerate_ssyt,
    partitions,
    schur_expand,
    weight_monomial,
)
from ctrect.tableaux import Filling, InvariantViolationError, check_invariant

MAX_CELLS = 6
MAX_ENTRY = 6
# Per cell count: tableaux, and (tableau, k) cases.  They add up to the
# 8,113 tableaux of the 6/6 dominance sweep and the 19,148 cases of lemma42.
# rho maps the composition tableaux one to one onto the reverse SSYT and
# keeps the number of rows, so both counts hold for composition tableaux too.
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
    survivors = [row[0] for row in t.rows][k:]
    report: dict[int, list[int]] = {}
    for c in range(2, t.width + 1):
        entries = [row[c - 1] for row in t.rows if len(row) >= c]  # decreasing top to bottom
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


def reference_rho(u: Filling) -> Filling:
    # u must be a valid composition tableau.
    rows = u.rows
    cols: list[list[int]] = []
    for c in range(max(map(len, rows), default=0)):
        entries = [row[c] for row in rows if len(row) > c]
        if len(set(entries)) != len(entries):
            raise InvariantViolationError(
                f"column {c + 1} holds duplicate entries; unreachable from a valid composition tableau"
            )
        entries.sort(reverse=True)
        cols.append(entries)
    height = len(cols[0]) if cols else 0
    out = [[col[r] for col in cols if len(col) > r] for r in range(height)]
    return check_invariant("rssyt", Filling._trusted(out), "column sort did not produce a reverse SSYT")


def reference_phi(u: Filling, k: int, steps: list[tuple[str, Filling]] | None) -> Filling:
    # The kernel: u must be a valid composition tableau and 1 <= k <= u.n_rows.
    # Snapshots are taken only when a ``steps`` list is given.
    n = u.n_rows
    grid: list[list[int | None]] = [list(row) for row in u.rows]

    def snapshot(label: str) -> None:
        if steps is not None:
            steps.append((label, Filling(grid)))

    for row in grid[n - k:]:
        row[0] = None
    snapshot(f"remove {k} cell(s) from column 1")

    kept = grid[: n - k]
    for row in grid[n - k:]:
        if len(row) > 1:  # a row left empty disappears
            row[0], row[1] = row[1], None
            kept.append(row)
    grid = kept
    snapshot("swap into column 1")

    grid.sort(key=lambda row: row[0])
    snapshot("reorder rows")

    col = 2  # the 1-based column whose removed boxes are being processed
    while True:
        candidates = [
            (row[col], r)
            for r, row in enumerate(grid)
            if len(row) > col and row[col - 1] is None and row[col] is not None
        ]
        if not candidates:
            break
        candidates.sort(key=lambda p: (-p[0], p[1]))
        for e, r_src in candidates:
            grid[r_src][col] = None  # vacate the source before any bump lands
            reference_insert(grid, e, col)
        snapshot(f"column {col} round")
        col += 1

    for r, row in enumerate(grid, start=1):
        while row and row[-1] is None:
            row.pop()
        if None in row:
            raise InvariantViolationError(f"internal hole survived in row {r}")
    out = check_invariant("ct", Filling._trusted(grid), "phi did not produce a composition tableau")
    snapshot("result")
    return out


def reference_insert(grid: list[list[int | None]], e: int, col: int) -> None:
    # col is the 1-based target column.  Bumped entries re-enter strictly
    # below their old row.
    row_from = 0
    while True:
        target = reference_admissible_row(grid, e, col, row_from)
        if target is None:
            raise InvariantViolationError(f"no admissible cell in column {col} for entry {e}")
        row = grid[target]
        i = col - 1
        if len(row) == i:
            row.append(e)
            return
        bumped = row[i]
        row[i] = e
        if bumped is None:
            return
        e, row_from = bumped, target + 1


def reference_admissible_row(
    grid: list[list[int | None]], e: int, col: int, start_row: int
) -> int | None:
    # Admissible: left neighbor filled with value >= e, and the slot is a
    # hole (with the current right neighbor <= e, holes reading 0), is past
    # the row end, or holds an entry strictly smaller than e (a bump; the
    # right neighbor is then <= the bumped value < e automatically).
    i = col - 1
    for r in range(start_row, len(grid)):
        row = grid[r]
        if len(row) < i:
            continue
        left = row[i - 1]
        if left is None or left < e:
            continue
        if len(row) == i:
            return r
        cur = row[i]
        if cur is None:
            right = row[i + 1] if len(row) > i + 1 else None
            if e >= (0 if right is None else right):
                return r
        elif cur < e:
            return r
    return None


def reference_fillings(
    shape: tuple[int, ...],
    max_entry: int,
    choices: Callable[[list[list[int]], int, int], Iterable[int]],
) -> tuple[Filling, ...]:
    """Every filling of ``shape`` that puts at each cell, in row-reading
    order, a value ``choices(grid, r, c)`` offers.  ``grid`` holds the values
    placed before (r, c); later cells hold stale ones.  Ascending choices
    give the fillings in lexicographic order of their row-reading words."""
    if max_entry < 1:
        raise ValueError("max_entry must be >= 1")
    cells = [(r, c) for r, length in enumerate(shape) for c in range(length)]
    grid = [[0] * length for length in shape]
    out: list[Filling] = []

    def place(i: int) -> None:
        if i == len(cells):
            out.append(Filling([row[:] for row in grid]))
            return
        r, c = cells[i]
        for v in choices(grid, r, c):
            grid[r][c] = v
            place(i + 1)

    place(0)
    return tuple(out)


def reference_enumerate_ssyt(shape: tuple[int, ...], max_entry: int) -> tuple[Filling, ...]:
    """All semistandard Young tableaux of the shape (a tuple) with entries <=
    max_entry, ordered lexicographically by row-reading word.

    v -> max_entry + 1 - v maps them one to one onto the reverse SSYT of the
    shape and reverses the order of the words.
    """
    top = max_entry + 1
    return tuple(
        Filling._trusted([top - v for v in row] for row in t.rows)
        for t in reversed(reference_enumerate_rssyt(shape, max_entry))
    )


def reference_enumerate_rssyt(shape: tuple[int, ...], max_entry: int) -> tuple[Filling, ...]:
    """All reverse semistandard Young tableaux of the shape (a tuple) with
    entries <= max_entry, ordered lexicographically by row-reading word."""
    if any(p < 1 for p in shape) or any(a < b for a, b in zip(shape, shape[1:])):
        raise ValueError(f"{shape} is not a partition shape")
    heights = [sum(part > c for part in shape) for c in range(max(shape, default=0))]

    def choices(grid: list[list[int]], r: int, c: int) -> range:
        # Rows weakly decrease, columns strictly; the heights[c] - r - 1
        # cells below need values under this one.
        hi = max_entry
        if c > 0:
            hi = min(hi, grid[r][c - 1])
        if r > 0:
            hi = min(hi, grid[r - 1][c] - 1)
        return range(heights[c] - r, hi + 1)

    return reference_fillings(shape, max_entry, choices)


def reference_enumerate_ct(shape: tuple[int, ...], max_entry: int) -> tuple[Filling, ...]:
    """All composition tableaux of the shape (a tuple) with entries <=
    max_entry, ordered lexicographically by row-reading word."""
    if any(part < 1 for part in shape):
        raise ValueError(f"{shape} is not a composition shape")

    def choices(grid: list[list[int]], r: int, c: int) -> Iterable[int]:
        # The first column strictly increases and a row weakly decreases.
        if c == 0:
            return range(grid[r - 1][0] + 1 if r > 0 else 1, max_entry + 1)
        # No triple with a complete row above: b at (r, c) may not lie in
        # [a, left] for its a (0 when absent) and left; a row without a
        # c-cell (shape[r1] < c) forms none, since b > 0.
        barred = {
            b
            for r1 in range(r)
            if shape[r1] >= c
            for b in range(grid[r1][c] if shape[r1] > c else 0, grid[r1][c - 1] + 1)
        }
        return [v for v in range(1, grid[r][c - 1] + 1) if v not in barred]

    return reference_fillings(shape, max_entry, choices)


def reference_schur_expand(shape: tuple[int, ...], nvars: int) -> Polynomial:
    """Schur polynomial: sum of weight monomials over all SSYT of the shape."""
    ssyt = reference_enumerate_ssyt(tuple(shape), nvars)
    return Polynomial(nvars, Counter(weight_monomial(t, nvars) for t in ssyt))


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


def _ct_tableaux(m: int) -> list[Filling]:
    return [u for shape in compositions(m) for u in enumerate_ct(shape, MAX_ENTRY)]


@pytest.mark.parametrize("m", range(1, MAX_CELLS + 1))
def test_rho_matches_reference(m):
    tableaux = _ct_tableaux(m)
    for u in tableaux:
        assert _rho(u) == reference_rho(u), u.rows
    assert len(tableaux) == TABLEAUX[m]


@pytest.mark.parametrize("m", range(1, MAX_CELLS + 1))
def test_phi_and_its_steps_match_reference(m):
    cases = 0
    for u in _ct_tableaux(m):
        for k in range(1, u.n_rows + 1):
            ref_steps: list[tuple[str, Filling]] = []
            ref_out = reference_phi(u, k, ref_steps)
            where = (u.rows, k)
            assert _phi(u, k, None) == ref_out, where
            assert phi_steps(u, k) == ref_steps, where
            cases += 1
    assert cases == CASES[m]


@st.composite
def reverse_ssyt(draw, min_cells: int = 8, max_cells: int = 14) -> Filling:
    """A reverse SSYT past the exhaustive bound: a partition of min_cells to
    max_cells cells, with entries up to the cell count, filled row by row
    from the per-cell range ``enumerate_rssyt`` offers, so no draw is
    rejected.  The draw is not uniform over tableaux."""
    n = draw(st.integers(min_cells, max_cells))
    shape: list[int] = []
    while sum(shape) < n:
        shape.append(draw(st.integers(1, min(shape[-1] if shape else n, n - sum(shape)))))
    heights = [sum(part > c for part in shape) for c in range(shape[0])]
    grid: list[list[int]] = []
    for r, length in enumerate(shape):
        row: list[int] = []
        for c in range(length):
            hi = min(n, row[c - 1] if c else n, grid[r - 1][c] - 1 if r else n)
            row.append(draw(st.integers(heights[c] - r, hi)))
        grid.append(row)
    return Filling(grid)


# The reference phi turns the bumped 1 away from the hole of row 2 at k = 2,
# because that hole's right neighbour, 2, is not yet pulled.
ELEVEN_CELLS = Filling([[3, 1, 1], [5, 5, 5, 3], [6, 4, 3, 2]])


def test_reference_phi_fails_on_the_eleven_cell_case():
    with pytest.raises(InvariantViolationError, match="^no admissible cell in column 3 for entry 1$"):
        reference_phi(ELEVEN_CELLS, 2, None)


@settings(max_examples=100, deadline=None)
@given(reverse_ssyt())
@example(_rho(ELEVEN_CELLS))
def test_kernels_match_reference_past_the_exhaustive_bound(t):
    u = rho_inv(t)
    assert _rho(u) == t
    for k in range(1, u.n_rows + 1):
        out = _phi(u, k, None)
        assert out == _rho_inv(_rectify_cells(t, k)[0])
        ref_steps: list[tuple[str, Filling]] = []
        try:
            ref_out = reference_phi(u, k, ref_steps)
        except InvariantViolationError as exc:
            assert str(exc).startswith("no admissible cell in column "), exc
            continue
        assert out == ref_out
        assert phi_steps(u, k) == ref_steps


@pytest.mark.parametrize("m", range(MAX_CELLS + 1))
def test_enumerators_match_reference(m):
    # Every shape of m cells (m = 0: the empty one), every largest entry up
    # to 6; the streams and the cached tuples, in order.
    for max_entry in range(1, MAX_ENTRY + 1):
        for shape in compositions(m):
            expected = reference_enumerate_ct(shape, max_entry)
            assert tuple(_ct_fillings(shape, max_entry)) == expected, (shape, max_entry)
            assert enumerate_ct(shape, max_entry) == expected, (shape, max_entry)
        for shape in partitions(m):
            expected = reference_enumerate_rssyt(shape, max_entry)
            assert tuple(_rssyt_fillings(shape, max_entry)) == expected, (shape, max_entry)
            assert enumerate_rssyt(shape, max_entry) == expected, (shape, max_entry)
            assert enumerate_ssyt(shape, max_entry) == reference_enumerate_ssyt(shape, max_entry)


@pytest.mark.parametrize("m", range(1, 6))
def test_schur_expand_matches_reference(m):
    for shape in partitions(m):
        for nvars in range(1, 7):
            assert schur_expand(shape, nvars) == reference_schur_expand(shape, nvars), (shape, nvars)
